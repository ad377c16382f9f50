//! The campaign engine's core guarantee: the worker count changes only
//! the wall-clock, never a bit of the results — and traces are generated
//! exactly once per (kernel, scale) regardless of how many jobs, runs, or
//! threads ask for them.

use abft_coop::abft_memsim::workloads::{CholeskyParams, HplParams};
use abft_coop::prelude::*;
use std::sync::Arc;

fn small_workloads() -> [KernelParams; 4] {
    [
        DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 }.into(),
        CholeskyParams { n: 256, nb: 64, abft: true }.into(),
        CgParams { grid: 128, iterations: 3, abft: true, verify_interval: 2 }.into(),
        HplParams { n: 256, nb: 64, abft: true }.into(),
    ]
}

fn run_with_threads(cache: &Arc<TraceCache>, threads: usize) -> CampaignRun {
    run_grid(cache, threads, None)
}

fn run_grid(cache: &Arc<TraceCache>, threads: usize, sp: Option<SimPointConfig>) -> CampaignRun {
    let mut spec = CampaignSpec::builder()
        .workloads(small_workloads())
        .strategies(Strategy::ALL)
        .threads(threads);
    if let Some(sp) = sp {
        spec = spec.sampling(sp);
    }
    CampaignClient::with_cache(Arc::clone(cache)).run(&spec.build())
}

#[test]
fn parallel_campaign_is_bit_identical_to_serial() {
    let cache = Arc::new(TraceCache::new());
    let serial = run_with_threads(&cache, 1);
    let parallel = run_with_threads(&cache, 4);

    assert_eq!(serial.results.len(), 24, "4 kernels x 6 strategies");
    assert_eq!(parallel.results.len(), 24);
    for (a, b) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(a.kernel, b.kernel, "grid order must not depend on threads");
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.config_tag, b.config_tag);
        assert_eq!(
            a.stats,
            b.stats,
            "{} / {} differs between 1 and 4 workers",
            a.kernel.label(),
            a.strategy.label()
        );
    }

    // The campaign results also match the one-cell primitive run by hand.
    for w in small_workloads() {
        let trace = w.build();
        for s in Strategy::ALL {
            let direct = run_cell(SimInput::Trace(&trace), &SystemConfig::default(), s);
            let cell = parallel.get(w.kind(), s, "default").expect("every grid cell is present");
            assert_eq!(cell.stats, direct, "{} / {}", w.label(), s.label());
        }
    }
}

#[test]
fn trace_cache_shares_one_generation_per_workload() {
    let cache = Arc::new(TraceCache::new());

    let first = run_with_threads(&cache, 4);
    assert_eq!(first.metrics.jobs, 24);
    assert_eq!(first.metrics.cache_builds, 4, "one generation per workload");
    assert_eq!(first.metrics.cache_hits, 0, "only the filter pre-warm touches the trace level");
    assert_eq!(first.metrics.filter_builds, 4, "one cache-hierarchy pass per workload");
    assert_eq!(first.metrics.filter_hits, 24, "the pre-warm filters; every job hits");

    // A second campaign over the same workloads regenerates and refilters
    // nothing (4 pre-warm lookups + 24 job lookups, all filter hits).
    let second = run_with_threads(&cache, 4);
    assert_eq!(second.metrics.cache_builds, 0, "repeat run must not regenerate");
    assert_eq!(second.metrics.cache_hits, 0);
    assert_eq!(second.metrics.filter_builds, 0, "repeat run must not refilter");
    assert_eq!(second.metrics.filter_hits, 28);

    // Repeat lookups hand back the same allocation, not a copy.
    for w in small_workloads() {
        let a = cache.get(w);
        let b = cache.get(w);
        assert!(Arc::ptr_eq(&a, &b), "{}: repeat lookups must share the Arc", w.label());
    }
}

#[test]
fn sampled_campaign_is_bit_identical_across_workers_and_looks_each_selection_up_once() {
    let sp = SimPointConfig { interval: 2048, max_phases: 6, ..SimPointConfig::default() };
    let cache = Arc::new(TraceCache::new());

    // Cold: the pre-warm builds the 4 selections, each of the 24 jobs
    // hits once — and nothing looks a selection up a second time to
    // account for it.
    let hits0 = cache.simpoint_hits();
    let serial = run_grid(&cache, 1, Some(sp));
    assert_eq!(serial.metrics.simpoint_builds, 4, "one selection per workload");
    assert_eq!(serial.metrics.simpoint_hits, 24);
    assert_eq!(cache.simpoint_hits() - hits0, 24, "jobs only: no post-run accounting lookups");

    // Warm: 4 pre-warm hits + 24 job hits = distinct + jobs.
    let hits1 = cache.simpoint_hits();
    let parallel = run_grid(&cache, 4, Some(sp));
    assert_eq!(parallel.metrics.simpoint_builds, 0);
    assert_eq!(parallel.metrics.simpoint_hits, 28);
    assert_eq!(cache.simpoint_hits() - hits1, 28, "distinct + jobs");

    assert_eq!(serial.results.len(), 24);
    for (a, b) in serial.results.iter().zip(&parallel.results) {
        assert_eq!((a.kernel, a.strategy, &a.config_tag), (b.kernel, b.strategy, &b.config_tag));
        assert_eq!(
            a.stats,
            b.stats,
            "sampled {} / {} differs between 1 and 4 workers",
            a.kernel.label(),
            a.strategy.label()
        );
    }
    for m in [&serial.metrics, &parallel.metrics] {
        assert_eq!(m.sampled_cells, 24);
        assert!(m.slices_replayed >= 24, "every cell replays at least one slice");
        assert!(m.est_error_budget > 0.0 && m.est_error_budget <= 1.0);
    }
    assert_eq!(serial.metrics.slices_replayed, parallel.metrics.slices_replayed);
    assert_eq!(serial.metrics.est_error_budget, parallel.metrics.est_error_budget);
}
