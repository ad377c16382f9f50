//! Two-phase simulation benchmark: measures, for every kernel of the
//! Figure 5-7 grid at default scale, what the cache-filtered miss-stream
//! pipeline costs and saves versus full per-access simulation — the
//! one-off filter-build time, full-path vs filtered-replay wall-clock per
//! cell, and the end-to-end wall-clock of the Figure 7 24-job campaign
//! grid on both paths. Every filtered result is asserted bit-identical to
//! its full-path counterpart before timing is reported. Writes
//! `BENCH_sim.json` (consumed by `scripts/ci.sh` as the perf smoke gate)
//! and prints a summary table. The committed report carries per-kernel
//! `ns_per_event_ceilings` on filtered replay; a run above a ceiling
//! fails, so replay-loop slowdowns are caught like lint regressions.

use abft_bench::print_header;
use abft_coop_core::report::TextTable;
use abft_coop_core::{run_cell, CampaignClient, CampaignSpec, Strategy};
use abft_memsim::miss_stream::MissStream;
use abft_memsim::workloads::{KernelKind, KernelParams};
use abft_memsim::{SimInput, SimPointConfig, SimPointSelection, SystemConfig, TraceCache};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Row {
    kernel: &'static str,
    accesses: u64,
    events: u64,
    filter_build_secs: f64,
    full_replay_secs: f64,
    filtered_replay_secs: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.full_replay_secs / self.filtered_replay_secs
    }

    /// Filtered-replay time per miss event replayed: the cost of the
    /// replay loop itself, whatever share of the kernel's accesses the
    /// caches absorbed (accesses per second would reward a high L2 hit
    /// rate instead).
    fn ns_per_event(&self) -> f64 {
        self.filtered_replay_secs * 1e9 / self.events as f64
    }
}

fn measure(kind: KernelKind, cache: &TraceCache) -> Row {
    let params = KernelParams::default_for(kind);
    let cfg = SystemConfig::default();
    let packed = cache.get(params);

    // Phase 1 (once per kernel x geometry): drive the trace through L1/L2.
    let t0 = Instant::now();
    let ms = Arc::new(MissStream::build(&mut packed.replay(), cfg.l1, cfg.l2, cfg.threads));
    let filter_build_secs = t0.elapsed().as_secs_f64();

    // One cell on each path, equivalence asserted before timing is
    // trusted.
    let strategy = Strategy::PartialChipkillSecded;
    let t0 = Instant::now();
    let full = run_cell(SimInput::Source(&mut packed.replay()), &cfg, strategy);
    let full_replay_secs = t0.elapsed().as_secs_f64().max(1e-9);
    // The filtered replay is what the ns-per-event ceilings gate, and at
    // 15-200 ms a single shot of it swings by a third on a shared box:
    // time the fastest of three.
    let mut filtered_replay_secs = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let filtered = run_cell(SimInput::MissStream(&ms), &cfg, strategy);
        filtered_replay_secs = filtered_replay_secs.min(t0.elapsed().as_secs_f64().max(1e-9));
        assert_eq!(full, filtered, "{}: filtered replay must be bit-identical", kind.label());
    }

    Row {
        kernel: kind.label(),
        accesses: ms.accesses(),
        events: ms.events(),
        filter_build_secs,
        full_replay_secs,
        filtered_replay_secs,
    }
}

/// The Figure 7 grid (4 kernels x 6 strategies) end-to-end, on the given
/// path. The filtered run reuses the pre-warmed miss-stream memo exactly
/// as the harness binaries do after their first campaign.
fn grid_secs(cache: &Arc<TraceCache>, filtered: bool) -> f64 {
    let cfg = SystemConfig::default();
    let t0 = Instant::now();
    if filtered {
        let run = CampaignClient::with_cache(Arc::clone(cache))
            .run(&CampaignSpec::basic(KernelKind::ALL));
        assert_eq!(run.metrics.jobs, 24);
    } else {
        use rayon::prelude::*;
        let jobs: Vec<(KernelParams, Strategy)> = KernelKind::ALL
            .iter()
            .flat_map(|&k| Strategy::ALL.map(|s| (KernelParams::default_for(k), s)))
            .collect();
        jobs.into_par_iter().for_each(|(params, s)| {
            let packed = cache.get(params);
            run_cell(SimInput::Source(&mut packed.replay()), &cfg, s);
        });
    }
    t0.elapsed().as_secs_f64().max(1e-9)
}

/// The Figure 7 grid against an on-disk artifact store, from a fresh
/// in-memory cache each time (a fresh-process stand-in). The first call
/// over an empty store generates and persists every artifact; later
/// calls load blobs instead of generating, which is the cross-process
/// warm-start the store exists for.
fn disk_grid(dir: &std::path::Path, expect_warm: bool) -> f64 {
    let cache = Arc::new(TraceCache::new());
    let spec = CampaignSpec::builder().kernels(KernelKind::ALL).store(dir).build();
    let t0 = Instant::now();
    let run = CampaignClient::with_cache(cache).run(&spec);
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(run.metrics.jobs, 24);
    if expect_warm {
        assert_eq!(run.metrics.cache_builds, 0, "warm disk must not regenerate traces");
        assert_eq!(run.metrics.filter_builds, 0, "warm disk must not refilter miss streams");
        assert_eq!(run.metrics.store_misses, 0, "warm disk must hit every artifact");
    }
    secs
}

/// Pull the `"ns_per_event_ceilings":{"KERNEL":N,..}` object out of the
/// committed `BENCH_sim.json` with plain string ops (the workspace
/// vendors no JSON parser). A report without one yields an empty map.
fn parse_ceilings(text: &str) -> Vec<(String, f64)> {
    const KEY: &str = "\"ns_per_event_ceilings\":";
    let mut out = Vec::new();
    let Some(start) = text.find(KEY) else { return out };
    let body = &text[start + KEY.len()..];
    let Some(open) = body.find('{') else { return out };
    let body = &body[open + 1..];
    let Some(end) = body.find('}') else { return out };
    for pair in body[..end].split(',') {
        let Some((k, v)) = pair.split_once(':') else { continue };
        let k = k.trim().trim_matches('"');
        if let Ok(n) = v.trim().parse::<f64>() {
            out.push((k.to_string(), n));
        }
    }
    out
}

fn rel_err(sampled: f64, exact: f64) -> f64 {
    if exact == 0.0 {
        sampled.abs()
    } else {
        (sampled - exact).abs() / exact.abs()
    }
}

struct SimPointBench {
    accesses: u64,
    events: u64,
    slices: u64,
    phases: usize,
    select_secs: f64,
    exact_replay_secs: f64,
    sampled_replay_secs: f64,
    err_cycles: f64,
    err_energy: f64,
}

impl SimPointBench {
    fn speedup(&self) -> f64 {
        self.exact_replay_secs / self.sampled_replay_secs
    }
}

/// Phase sampling at paper scale: FT-CG on the full Table 3 problem
/// (grid 1024 → n = 1,048,576), one strategy, exact vs sampled replay of
/// the same miss stream. The exact replay is what the speedup gate is
/// measured against; it also yields the paper-scale error directly.
fn simpoint_paper_scale(cache: &TraceCache) -> SimPointBench {
    let params = KernelParams::paper_for(KernelKind::Cg);
    let cfg = SystemConfig::default();
    let ms = cache.get_filtered(params, &cfg);

    let t0 = Instant::now();
    let sel = SimPointSelection::build(&ms, SimPointConfig::default());
    let select_secs = t0.elapsed().as_secs_f64();

    let strategy = Strategy::PartialChipkillSecded;
    let t0 = Instant::now();
    let exact = run_cell(SimInput::MissStream(&ms), &cfg, strategy);
    let exact_replay_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let t0 = Instant::now();
    let sampled =
        run_cell(SimInput::SampledMissStream { stream: &ms, selection: &sel }, &cfg, strategy);
    let sampled_replay_secs = t0.elapsed().as_secs_f64().max(1e-9);

    SimPointBench {
        accesses: ms.accesses(),
        events: ms.events(),
        slices: sel.slices(),
        phases: sel.phases().len(),
        select_secs,
        exact_replay_secs,
        sampled_replay_secs,
        err_cycles: rel_err(sampled.cycles as f64, exact.cycles as f64),
        err_energy: rel_err(sampled.mem_total_j(), exact.mem_total_j()),
    }
}

/// Small-n cross-check: the same sampling config over every default-scale
/// kernel and every strategy, exact-vs-sampled. Returns the worst
/// relative error seen on cycles and on total memory energy.
fn simpoint_crosscheck(cache: &TraceCache) -> (f64, f64) {
    let cfg = SystemConfig::default();
    let (mut worst_cycles, mut worst_energy) = (0.0f64, 0.0f64);
    for &kind in KernelKind::ALL.iter() {
        let params = KernelParams::default_for(kind);
        let ms = cache.get_filtered(params, &cfg);
        let sel = SimPointSelection::build(&ms, SimPointConfig::default());
        for s in Strategy::ALL {
            let exact = run_cell(SimInput::MissStream(&ms), &cfg, s);
            let sampled =
                run_cell(SimInput::SampledMissStream { stream: &ms, selection: &sel }, &cfg, s);
            worst_cycles = worst_cycles.max(rel_err(sampled.cycles as f64, exact.cycles as f64));
            worst_energy = worst_energy.max(rel_err(sampled.mem_total_j(), exact.mem_total_j()));
        }
    }
    (worst_cycles, worst_energy)
}

fn main() {
    print_header("Two-phase simulation benchmark — full path vs filtered miss-stream replay");
    let cache = Arc::new(TraceCache::new());
    let rows: Vec<Row> = KernelKind::ALL.iter().map(|&k| measure(k, &cache)).collect();

    let mut t = TextTable::new(&[
        "kernel",
        "accesses",
        "miss events",
        "filter s",
        "full s",
        "filtered s",
        "speedup",
        "ns/miss event",
    ]);
    for r in &rows {
        t.row(&[
            r.kernel.to_string(),
            r.accesses.to_string(),
            r.events.to_string(),
            format!("{:.2}", r.filter_build_secs),
            format!("{:.2}", r.full_replay_secs),
            format!("{:.3}", r.filtered_replay_secs),
            format!("{:.1}x", r.speedup()),
            format!("{:.1}", r.ns_per_event()),
        ]);
    }
    print!("{}", t.render());

    // End-to-end Figure 7 grid: the full path replays every access in all
    // 24 cells; the filtered path warms 4 miss streams and replays only
    // miss tails. Warm the memo first (the per-kernel rows above used
    // locally built streams, not the cache's), then measure both orders.
    let full_grid_secs = grid_secs(&cache, false);
    let filtered_grid_secs = grid_secs(&cache, true);
    let warm_grid_secs = grid_secs(&cache, true);
    let grid_speedup = full_grid_secs / warm_grid_secs;
    println!(
        "\nfig07 grid (24 jobs): full {full_grid_secs:.2}s, filtered cold \
         {filtered_grid_secs:.2}s, filtered warm {warm_grid_secs:.2}s ({grid_speedup:.1}x)"
    );

    // Artifact-store path: the same grid from fresh caches, once against
    // an empty store (generate + persist) and once against the populated
    // store (load only) — the cross-process cold/warm-disk comparison.
    let store_dir = std::env::temp_dir().join(format!("abft-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let cold_disk_secs = disk_grid(&store_dir, false);
    let warm_disk_secs = disk_grid(&store_dir, true);
    let _ = std::fs::remove_dir_all(&store_dir);
    let disk_speedup = cold_disk_secs / warm_disk_secs.max(1e-9);
    println!(
        "fig07 grid via artifact store: cold disk {cold_disk_secs:.2}s, warm disk \
         {warm_disk_secs:.2}s ({disk_speedup:.1}x; warm run regenerates nothing)"
    );

    // SimPoint phase sampling: paper-scale FT-CG exact vs sampled, plus
    // the small-n error cross-check over the whole default grid. Both
    // gates (≤2% worst error, ≥5x sampled-replay speedup) are enforced
    // here, so a regression fails the bench rather than shipping skewed
    // numbers.
    let sp = simpoint_paper_scale(&cache);
    let (cross_err_cycles, cross_err_energy) = simpoint_crosscheck(&cache);
    println!(
        "simpoint paper-scale FT-CG ({} events, {} slices -> {} phases): exact \
         {:.2}s, sampled {:.3}s ({:.0}x; select {:.2}s), err cycles {:.3}% energy {:.3}%",
        sp.events,
        sp.slices,
        sp.phases,
        sp.exact_replay_secs,
        sp.sampled_replay_secs,
        sp.speedup(),
        sp.select_secs,
        sp.err_cycles * 100.0,
        sp.err_energy * 100.0,
    );
    println!(
        "simpoint small-n cross-check (4 kernels x 6 strategies): worst err cycles \
         {:.3}%, worst err energy {:.3}%",
        cross_err_cycles * 100.0,
        cross_err_energy * 100.0,
    );
    let worst_err = sp.err_cycles.max(sp.err_energy).max(cross_err_cycles).max(cross_err_energy);
    if worst_err > 0.02 {
        eprintln!("bench_sim: sampling error {:.3}% exceeds the 2% gate", worst_err * 100.0);
        std::process::exit(1);
    }
    if sp.speedup() < 5.0 {
        eprintln!("bench_sim: sampled-replay speedup {:.1}x below the 5x gate", sp.speedup());
        std::process::exit(1);
    }

    // Per-kernel ceilings on replay ns per miss event: seeded at 1.25x
    // the measured cost the first time they are written, then preserved
    // verbatim, so every later run gates its replay loop against the
    // committed ceiling — the performance counterpart of
    // repolint.ratchet's rule_totals ratchet. A regression (e.g.
    // re-virtualizing the default replay path) fails the bench instead
    // of silently shipping slower numbers.
    let prior = std::fs::read_to_string("BENCH_sim.json").unwrap_or_default();
    let mut ceilings = parse_ceilings(&prior);
    if ceilings.is_empty() {
        ceilings = rows.iter().map(|r| (r.kernel.to_string(), r.ns_per_event() * 1.25)).collect();
        println!("seeding ns-per-miss-event ceilings at 1.25x the measured replay cost");
    }
    let mut over_ceiling = false;
    for r in &rows {
        if let Some((_, ceiling)) = ceilings.iter().find(|(k, _)| k == r.kernel) {
            if r.ns_per_event() > *ceiling {
                eprintln!(
                    "bench_sim: {} filtered replay {:.1} ns per miss event, above the {:.1} ns ceiling",
                    r.kernel,
                    r.ns_per_event(),
                    ceiling,
                );
                over_ceiling = true;
            }
        }
    }
    if over_ceiling {
        std::process::exit(1);
    }

    let mut json = String::from("{\n  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"accesses\": {}, \"miss_events\": {}, \
             \"filter_build_secs\": {:.4}, \"full_replay_secs\": {:.4}, \
             \"filtered_replay_secs\": {:.4}, \"replay_speedup\": {:.2}, \
             \"filtered_ns_per_event\": {:.2}}}{}",
            r.kernel,
            r.accesses,
            r.events,
            r.filter_build_secs,
            r.full_replay_secs,
            r.filtered_replay_secs,
            r.speedup(),
            r.ns_per_event(),
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    let ceilings_json: Vec<String> =
        ceilings.iter().map(|(k, c)| format!("\"{k}\": {c:.2}")).collect();
    let _ = writeln!(json, "  ],\n  \"ns_per_event_ceilings\": {{{}}},", ceilings_json.join(", "));
    let _ = write!(
        json,
        "  \"fig07_grid\": {{\"jobs\": 24, \"full_secs\": {full_grid_secs:.4}, \
         \"filtered_cold_secs\": {filtered_grid_secs:.4}, \
         \"filtered_warm_secs\": {warm_grid_secs:.4}, \"speedup\": {grid_speedup:.2}}},\n  \
         \"artifact_store\": {{\"cold_disk_secs\": {cold_disk_secs:.4}, \
         \"warm_disk_secs\": {warm_disk_secs:.4}, \"warm_speedup\": {disk_speedup:.2}}},\n  \
         \"simpoint\": {{\"paper_kernel\": \"FT-CG\", \"accesses\": {}, \
         \"miss_events\": {}, \"slices\": {}, \"phases\": {}, \"select_secs\": {:.4}, \
         \"exact_replay_secs\": {:.4}, \"sampled_replay_secs\": {:.4}, \
         \"replay_speedup\": {:.2}, \"paper_err_cycles\": {:.6}, \
         \"paper_err_energy\": {:.6}, \"crosscheck_err_cycles\": {:.6}, \
         \"crosscheck_err_energy\": {:.6}}}\n}}\n",
        sp.accesses,
        sp.events,
        sp.slices,
        sp.phases,
        sp.select_secs,
        sp.exact_replay_secs,
        sp.sampled_replay_secs,
        sp.speedup(),
        sp.err_cycles,
        sp.err_energy,
        cross_err_cycles,
        cross_err_energy,
    );
    let path = "BENCH_sim.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}
