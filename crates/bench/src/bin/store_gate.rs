//! CI gate for the artifact store: runs the Figure 7 grid (4 kernels x
//! 6 strategies) from a fresh in-memory cache against an on-disk store
//! and writes every cell as one canonical line (floats as exact IEEE-754
//! bit patterns). `scripts/ci.sh` runs it three times in separate
//! processes over the same store directory; the later runs pass `--expect`
//! with the first run's output and the gate then asserts
//!
//! * the output files are byte-identical (bit-identical `SimStats`
//!   across processes),
//! * nothing was regenerated (zero trace builds, zero filter builds,
//!   zero SimPoint cluster rebuilds — the grid runs with phase sampling
//!   on, so selections are persisted and reloaded too) and no store
//!   lookup missed,
//! * the artifact hit rate is >= 90%.
//!
//! The first run fails when an artifact it built could not be persisted
//! (`write_failures`): the later runs would regenerate it and blame the
//! wrong process.
//!
//! The grid is sampled, and a warm sampled process needs only the
//! `.simpoint` blobs — each holds the phase selection and the records its
//! representative slices replay. ci.sh deletes every `.trace` and `.miss`
//! blob before the third run, which must pass the same three checks: a
//! cell that still reached for the miss stream would count a store miss
//! and a filter build.
//!
//! Usage: `store_gate <store-dir> <out-file> [--expect <cold-file>]`

use abft_coop_core::{CampaignClient, CampaignResult, CampaignSpec, Strategy};
use abft_memsim::simpoint::SimPointConfig;
use abft_memsim::workloads::{KernelKind, KernelParams};
use abft_memsim::TraceCache;
use std::fmt::Write as _;
use std::sync::Arc;

/// Stable token for a strategy (no spaces; the human-facing labels embed
/// `+` and spaces).
fn strategy_token(s: Strategy) -> &'static str {
    match s {
        Strategy::NoEcc => "no-ecc",
        Strategy::WholeChipkill => "w-ck",
        Strategy::PartialChipkillNoEcc => "p-ck-no-ecc",
        Strategy::WholeSecded => "w-sd",
        Strategy::PartialSecdedNoEcc => "p-sd-no-ecc",
        Strategy::PartialChipkillSecded => "p-ck-p-sd",
    }
}

/// Stable token for a workload: `kind:field:field:...` with ABFT flags
/// as `0`/`1`.
fn workload_token(p: KernelParams) -> String {
    let flag = u8::from;
    match p {
        KernelParams::Dgemm(d) => {
            format!("dgemm:{}:{}:{}:{}", d.n, d.nb, flag(d.abft), d.verify_interval)
        }
        KernelParams::Cholesky(c) => format!("cholesky:{}:{}:{}", c.n, c.nb, flag(c.abft)),
        KernelParams::Cg(c) => {
            format!("cg:{}:{}:{}:{}", c.grid, c.iterations, flag(c.abft), c.verify_interval)
        }
        KernelParams::Hpl(h) => format!("hpl:{}:{}:{}", h.n, h.nb, flag(h.abft)),
    }
}

/// One canonical line per cell; every float travels as the hex of its
/// IEEE-754 bit pattern, so the cold and warm files compare bit-exactly.
fn format_cell(index: usize, r: &CampaignResult) -> String {
    format!(
        "cell {index} {} {} {} cycles={} instr={} seconds={:016x} ipc={:016x} mem_j={:016x} sys_j={:016x}",
        workload_token(r.workload),
        strategy_token(r.strategy),
        r.config_tag,
        r.stats.cycles,
        r.stats.instructions,
        r.stats.seconds.to_bits(),
        r.stats.ipc().to_bits(),
        r.stats.mem_total_j().to_bits(),
        r.stats.system_j().to_bits(),
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("store_gate: {msg}");
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (store_dir, out_file) = match (args.first(), args.get(1)) {
        (Some(s), Some(o)) => (s.clone(), o.clone()),
        _ => fail("usage: store_gate <store-dir> <out-file> [--expect <cold-file>]"),
    };
    let expect = match (args.get(2).map(String::as_str), args.get(3)) {
        (Some("--expect"), Some(path)) => Some(path.clone()),
        (None, _) => None,
        _ => fail("usage: store_gate <store-dir> <out-file> [--expect <cold-file>]"),
    };

    // A fresh cache makes every memo miss go to the store, exactly like
    // a fresh process would.
    let cache = Arc::new(TraceCache::new());
    // Sampling on: the gate then also covers the SimPoint selection
    // blobs (built cold, loaded warm, zero rebuilds).
    let spec = CampaignSpec::builder()
        .kernels(KernelKind::ALL)
        .store(&store_dir)
        .sampling(SimPointConfig::default())
        .build();
    let run = CampaignClient::with_cache(cache).run(&spec);
    if run.results.len() != spec.cells() {
        fail(&format!("expected {} cells, got {}", spec.cells(), run.results.len()));
    }

    let mut out = String::new();
    for (i, r) in run.results.iter().enumerate() {
        let _ = writeln!(out, "{}", format_cell(i, r));
    }
    if let Err(e) = std::fs::write(&out_file, &out) {
        fail(&format!("could not write {out_file}: {e}"));
    }

    let m = &run.metrics;
    eprintln!(
        "store_gate: jobs={} cache_builds={} filter_builds={} simpoint_builds={} \
         sampled_cells={} store_hits={} store_misses={} store_writes={} store_evictions={} \
         write_failures={}",
        m.jobs,
        m.cache_builds,
        m.filter_builds,
        m.simpoint_builds,
        m.sampled_cells,
        m.store_hits,
        m.store_misses,
        m.store_writes,
        m.store_evictions,
        m.write_failures,
    );

    if let Some(cold_file) = expect {
        let cold = match std::fs::read_to_string(&cold_file) {
            Ok(c) => c,
            Err(e) => fail(&format!("could not read {cold_file}: {e}")),
        };
        if cold != out {
            fail("warm-disk results differ from the cold run (SimStats not bit-identical)");
        }
        if m.cache_builds != 0 || m.filter_builds != 0 || m.simpoint_builds != 0 {
            fail(&format!(
                "warm-disk run regenerated artifacts: {} trace builds, {} filter builds, \
                 {} simpoint cluster rebuilds",
                m.cache_builds, m.filter_builds, m.simpoint_builds
            ));
        }
        if m.store_misses != 0 {
            fail(&format!("warm-disk run missed the store {} time(s)", m.store_misses));
        }
        let lookups = m.store_hits + m.store_misses;
        let hit_rate = if lookups == 0 { 0.0 } else { m.store_hits as f64 / lookups as f64 };
        if hit_rate < 0.9 {
            fail(&format!(
                "artifact hit rate {:.2} below the 0.90 gate ({} hits / {} lookups)",
                hit_rate, m.store_hits, lookups
            ));
        }
        println!(
            "store_gate: warm-disk OK — bit-identical grid, zero regenerations, \
             hit rate {hit_rate:.2}"
        );
    } else {
        if m.write_failures != 0 {
            fail(&format!(
                "cold run could not persist {} artifact(s); the warm runs would regenerate them",
                m.write_failures
            ));
        }
        println!("store_gate: cold run OK — {} artifacts written", m.store_writes);
    }
}
