//! Trace inspector: the composition of each kernel's default-scale trace
//! — per-region reference counts, footprints, read/write mix, and
//! compute intensity. Fully streaming: each packed trace is pulled
//! through a bounded chunk buffer, so inspecting it costs one chunk of
//! memory.

use abft_coop_core::report::{pct, Report, TextTable};
use abft_memsim::workloads::{KernelKind, KernelParams};
use abft_memsim::{AccessSource, TraceCache, DEFAULT_CHUNK};

pub fn run(out: &mut Report) {
    for kind in KernelKind::ALL {
        eprintln!("[generating {} trace ...]", kind.label());
        let trace = TraceCache::global().get(KernelParams::default_for(kind));
        let regions = trace.regions().regions();
        let mut refs = vec![0u64; regions.len()];
        let mut writes = vec![0u64; regions.len()];
        let mut total = 0u64;
        let mut src = trace.replay();
        let mut chunk = Vec::with_capacity(DEFAULT_CHUNK);
        while src.fill(&mut chunk, DEFAULT_CHUNK) > 0 {
            for a in &chunk {
                refs[a.region as usize] += 1;
                writes[a.region as usize] += a.write as u64;
            }
            total += chunk.len() as u64;
        }
        let mut t = TextTable::new(&[
            "region",
            "ABFT",
            "detectable",
            "footprint",
            "refs",
            "writes",
            "share",
        ]);
        for (i, r) in regions.iter().enumerate() {
            t.row(&[
                r.name.clone(),
                if r.abft_protected { "yes" } else { "-" }.into(),
                if r.abft_detectable { "yes" } else { "-" }.into(),
                format!("{:.1} MB", r.bytes as f64 / (1 << 20) as f64),
                refs[i].to_string(),
                writes[i].to_string(),
                pct(refs[i] as f64 / total as f64),
            ]);
        }
        write!(out, "\n{}:\n\n{}", kind.label(), t.render());
        writeln!(
            out,
            "\ntotal: {} refs, {} instructions ({:.1} instructions/ref)",
            total,
            trace.instructions(),
            trace.instructions() as f64 / total as f64
        );
    }
}
