//! Trace inspector: the composition of each kernel's default-scale trace
//! — per-region reference counts, footprints, read/write mix, and
//! compute intensity. Fully streaming: each kernel's generator emits
//! straight into a counting sink, so inspecting a trace holds none of it.

use abft_coop_core::report::{pct, Report, TextTable};
use abft_memsim::workloads::{KernelKind, KernelParams};
use abft_memsim::{AccessSink, RegionId};

/// Per-region references and writes of an emitted stream, and the
/// instructions it retires (work + one per access).
struct Tally {
    refs: Vec<u64>,
    writes: Vec<u64>,
    instructions: u64,
}

impl AccessSink for Tally {
    fn emit(&mut self, addr: u64, region: RegionId, write: bool, work: u32) {
        self.emit_lines(addr, region, write, work, 1);
    }

    fn emit_lines(&mut self, _addr: u64, region: RegionId, write: bool, work: u32, lines: u64) {
        self.refs[region as usize] += lines;
        self.writes[region as usize] += write as u64 * lines;
        self.instructions += lines * (work as u64 + 1);
    }
}

pub fn run(out: &mut Report) {
    for kind in KernelKind::ALL {
        eprintln!("[generating {} trace ...]", kind.label());
        let params = KernelParams::default_for(kind);
        let registry = params.regions();
        let regions = registry.regions();
        let mut tally =
            Tally { refs: vec![0; regions.len()], writes: vec![0; regions.len()], instructions: 0 };
        params.emit_into(&mut tally);
        let Tally { refs, writes, instructions } = tally;
        let total: u64 = refs.iter().sum();
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
            instructions,
            instructions as f64 / total as f64
        );
    }
}
