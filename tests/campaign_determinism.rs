//! The campaign engine's core guarantee: the worker count — and with it
//! how many strategies of a row a task replays side by side — changes only
//! the wall-clock, never a bit of the results; and traces are generated
//! exactly once per (kernel, scale) regardless of how many jobs, runs, or
//! threads ask for them.

#![expect(
    clippy::unwrap_used,
    reason = "grid helpers outside `#[test]` fns: a poisoned report lock means a progress assertion already failed"
)]

use abft_coop::abft_memsim::workloads::{CholeskyParams, HplParams};
use abft_coop::prelude::*;
use std::sync::{Arc, Mutex};

fn small_workloads() -> [KernelParams; 4] {
    [
        DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 }.into(),
        CholeskyParams { n: 256, nb: 64, abft: true }.into(),
        CgParams { grid: 128, iterations: 3, abft: true, verify_interval: 2 }.into(),
        HplParams { n: 256, nb: 64, abft: true }.into(),
    ]
}

/// Worker counts, each with the lanes a task of the six-strategy grid gets
/// on it, `ceil(6 / workers)`: every way the engine cuts a row.
const SPLITS: [(usize, usize); 6] = [(1, 6), (2, 3), (3, 2), (4, 2), (6, 1), (7, 1)];

/// Tasks the 4-row, 6-strategy grid makes at `lanes` strategies per task;
/// a task looks its stream (or sample) up once.
fn tasks(lanes: usize) -> u64 {
    4 * 6usize.div_ceil(lanes) as u64
}

/// What the progress hook was told, in the order it was told.
type Reports = Arc<Mutex<Vec<(usize, KernelKind, Strategy)>>>;

fn run_grid(
    cache: &Arc<TraceCache>,
    threads: usize,
    sp: Option<SimPointConfig>,
) -> (CampaignRun, Reports) {
    let mut spec = CampaignSpec::builder()
        .workloads(small_workloads())
        .strategies(Strategy::ALL)
        .threads(threads);
    if let Some(sp) = sp {
        spec = spec.sampling(sp);
    }
    let reports = Reports::default();
    let sink = Arc::clone(&reports);
    let run = CampaignClient::with_cache(Arc::clone(cache))
        .on_progress(move |p| {
            assert_eq!(p.total, 24);
            sink.lock().unwrap().push((p.completed, p.kernel, p.strategy));
        })
        .run(&spec.build());
    (run, reports)
}

fn run_with_threads(cache: &Arc<TraceCache>, threads: usize) -> CampaignRun {
    run_grid(cache, threads, None).0
}

/// Same cells in the same order with the same statistics.
fn assert_same_results(a: &CampaignRun, b: &CampaignRun, what: &str) {
    assert_eq!(a.results.len(), 24, "4 kernels x 6 strategies");
    assert_eq!(b.results.len(), 24, "{what}");
    for (a, b) in a.results.iter().zip(&b.results) {
        assert_eq!(
            (a.kernel, a.strategy, &a.config_tag),
            (b.kernel, b.strategy, &b.config_tag),
            "{what}: grid order must not depend on the lane split"
        );
        assert_eq!(a.stats, b.stats, "{what}: {} / {}", a.kernel.label(), a.strategy.label());
    }
}

/// Every cell reported exactly once, `completed` counting 1..=24.
fn assert_every_cell_reported_once(reports: &Reports, what: &str) {
    let mut reports = reports.lock().unwrap().clone();
    reports.sort_by_key(|&(completed, ..)| completed);
    let counts: Vec<usize> = reports.iter().map(|&(completed, ..)| completed).collect();
    assert_eq!(counts, (1..=24).collect::<Vec<_>>(), "{what}: `completed` counts the cells");
    for w in small_workloads() {
        for s in Strategy::ALL {
            let n = reports.iter().filter(|&&(_, k, seen)| (k, seen) == (w.kind(), s)).count();
            assert_eq!(n, 1, "{what}: {} / {} reported {n} times", w.label(), s.label());
        }
    }
}

#[test]
fn parallel_campaign_is_bit_identical_to_serial() {
    let cache = Arc::new(TraceCache::new());
    let (serial, _) = run_grid(&cache, 1, None);
    for (workers, lanes) in SPLITS {
        let what = format!("{workers} worker(s), {lanes} lane(s) per task");
        let (run, reports) = run_grid(&cache, workers, None);
        assert_same_results(&serial, &run, &what);
        assert_every_cell_reported_once(&reports, &what);
    }

    // The campaign results also match the one-cell primitive run by hand.
    for w in small_workloads() {
        let src = &mut w.stream();
        for s in Strategy::ALL {
            let direct = run_cell(SimInput::Source(src), &SystemConfig::default(), s);
            let cell = serial.get(w.kind(), s, "default").expect("every grid cell is present");
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
    assert_eq!(first.metrics.cache_hits, 0, "a campaign never looks a trace up");
    assert_eq!(first.metrics.filter_builds, 4, "one cache-hierarchy pass per workload");
    assert_eq!(
        first.metrics.filter_hits, 12,
        "the pre-warm filters; 4 workers = ceil(6 / 4) = 2 lanes per task = 3 tasks per row \
         x 4 rows = 12 tasks, one lookup each"
    );

    // Further campaigns over the same workloads regenerate and refilter
    // nothing: the pre-warm's 4 lookups and one per task, all filter hits.
    for (workers, lanes) in SPLITS {
        let again = run_with_threads(&cache, workers);
        assert_eq!(again.metrics.cache_builds, 0, "repeat run must not regenerate");
        assert_eq!(again.metrics.cache_hits, 0);
        assert_eq!(again.metrics.filter_builds, 0, "repeat run must not refilter");
        assert_eq!(
            again.metrics.filter_hits,
            4 + tasks(lanes),
            "{workers} worker(s): 4 pre-warm lookups + 4 rows x ceil(6 / {lanes}) tasks"
        );
    }

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

    // Cold: the pre-warm builds the 4 selections, each task hits once —
    // on one worker a task is a whole row — and nothing looks a selection
    // up a second time to account for it.
    let hits0 = cache.simpoint_hits();
    let (serial, reports) = run_grid(&cache, 1, Some(sp));
    assert_eq!(serial.metrics.simpoint_builds, 4, "one selection per workload");
    assert_eq!(serial.metrics.simpoint_hits, 4, "1 worker: 6 lanes per task, 4 rows = 4 tasks");
    assert_eq!(cache.simpoint_hits() - hits0, 4, "tasks only: no post-run accounting lookups");
    assert_every_cell_reported_once(&reports, "sampled, 1 worker");

    // Warm: the pre-warm's 4 lookups and one per task, every way a row is cut.
    for (workers, lanes) in SPLITS {
        let what = format!("sampled, {workers} worker(s), {lanes} lane(s) per task");
        let hits1 = cache.simpoint_hits();
        let (run, reports) = run_grid(&cache, workers, Some(sp));
        assert_eq!(run.metrics.simpoint_builds, 0, "{what}");
        let lookups = 4 + tasks(lanes);
        assert_eq!(
            run.metrics.simpoint_hits, lookups,
            "{what}: 4 pre-warm lookups + 4 rows x ceil(6 / {lanes}) tasks"
        );
        assert_eq!(cache.simpoint_hits() - hits1, lookups, "{what}: distinct + tasks");
        assert_same_results(&serial, &run, &what);
        assert_every_cell_reported_once(&reports, &what);

        // The sampling counters keep their per-cell meaning.
        assert_eq!(run.metrics.sampled_cells, 24);
        assert!(run.metrics.slices_replayed >= 24, "every cell replays at least one slice");
        assert!(run.metrics.est_error_budget > 0.0 && run.metrics.est_error_budget <= 1.0);
        assert_eq!(serial.metrics.slices_replayed, run.metrics.slices_replayed, "{what}");
        assert_eq!(serial.metrics.est_error_budget, run.metrics.est_error_budget, "{what}");
    }

    // A fused sampled cell is the cell `run_cell` replays alone.
    for w in small_workloads() {
        let sample = cache.get_sampled(w, &SystemConfig::default(), &sp);
        for s in Strategy::ALL {
            let direct = run_cell(SimInput::Sample(&sample), &SystemConfig::default(), s);
            let cell = serial.get(w.kind(), s, "default").expect("every grid cell is present");
            assert_eq!(cell.stats, direct, "sampled {} / {}", w.label(), s.label());
        }
    }
}
