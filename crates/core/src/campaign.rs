//! The parallel campaign engine: one spec in, one [`CampaignRun`] out.
//!
//! The paper's evaluation (Sections 5.1-5.3) is a grid of
//! (kernel x ECC strategy x system config) simulations. A
//! [`CampaignSpec`] names the workloads, strategies and config variants;
//! `run_grid` — reached through [`crate::CampaignClient::run`], the
//! only caller — expands them into independent cells and executes them on
//! a rayon worker pool, a chunk of one (workload, config) row's strategies
//! per task, each through [`run_cells`]: the strategies of a row replay
//! one and the same miss stream, so a task decodes it once and services
//! every event on one lane per strategy. Kernel
//! traces — the dominant fixed cost — are generated straight into the
//! cache hierarchy once per (workload x cache geometry x thread count)
//! through the shared [`TraceCache`] ([`TraceCache::get_filtered`]):
//! cells replay only the `Arc<MissStream>` L2 miss tail through the
//! memory controller and DRAM, which is bit-identical to the full path
//! (cache outcomes are ECC-independent) at O(LLC misses) instead of
//! O(accesses) per grid cell. With phase sampling on, a cell asks for the
//! `Arc<PhaseSample>` instead ([`TraceCache::get_sampled`]) and for
//! nothing else: the selection plus the few records it replays, which a
//! process over a warm store loads without ever reading the miss stream.
//!
//! Every cell runs on a fresh node of its own — a lane shares nothing
//! with its neighbours but the read-only stream — so results are
//! bit-identical regardless of worker count, lane split or completion
//! order (the simulator itself is deterministic; see
//! `tests/campaign_determinism.rs`).
//!
//! ```no_run
//! use abft_coop_core::{CampaignClient, CampaignSpec, Strategy};
//! use abft_memsim::KernelKind;
//!
//! let spec = CampaignSpec::builder()
//!     .kernels(KernelKind::ALL)          // 4 kernels x
//!     .strategies(Strategy::ALL)         // 6 strategies x 1 default config
//!     .build();                          // = 24 cells, 4 trace generations
//! let run = CampaignClient::local().run(&spec);
//! let dgemm = run.basic_test(KernelKind::Dgemm);
//! println!("W_CK memory energy x{:.2}", dgemm.mem_energy_norm(Strategy::WholeChipkill));
//! ```

use crate::client::CampaignSpec;
use crate::experiment::{BasicTest, StrategyResult};
use crate::strategy::Strategy;
use abft_memsim::simpoint::SimPointConfig;
use abft_memsim::system::{Machine, SimInput, SimStats};
use abft_memsim::trace_cache::{FilterKey, TraceCache};
use abft_memsim::workloads::{abft_region_ids, KernelKind, KernelParams};
use abft_memsim::SystemConfig;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run the cells of one (input, config) row — one per strategy, each on a
/// fresh node — in a single pass over the input
/// ([`Machine::simulate_lanes`]): the one way a [`Strategy`] becomes
/// [`SimStats`]. Result `i` is `strategies[i]`'s, bit for bit what that
/// strategy yields alone; no strategy, no result. The input picks the
/// replay path: a pull-based source goes through the full cache hierarchy
/// (one walk for the row); a cache-filtered miss stream replays only the
/// DRAM tail (bit-identical, provided the config's cache geometry and
/// thread count match the filter's [`FilterKey`]); a sampled miss stream,
/// or the phase sample condensed from one, replays only its weighted
/// representative slices (an estimate, error bounded in
/// `tests/simpoint_equivalence.rs` and by perfbench's `sampled_err_pct`).
pub fn run_cells(
    input: SimInput<'_>,
    cfg: &SystemConfig,
    strategies: &[Strategy],
) -> Vec<SimStats> {
    let abft = abft_region_ids(input.regions());
    let assign = |s: &Strategy| s.assignment(&abft);
    let assigns: Vec<_> = strategies.iter().map(assign).collect();
    Machine::simulate_lanes(cfg, input, &assigns)
}

/// One (input, config, strategy) cell: the one-strategy row of
/// [`run_cells`].
pub fn run_cell(input: SimInput<'_>, cfg: &SystemConfig, strategy: Strategy) -> SimStats {
    let mut row = run_cells(input, cfg, &[strategy]);
    row.pop().unwrap_or_else(|| unreachable!("one strategy in, one SimStats out"))
}

/// One completed campaign cell.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The kernel the workload models.
    pub kernel: KernelKind,
    /// The full workload (kernel + scale).
    pub workload: KernelParams,
    /// The ECC strategy simulated.
    pub strategy: Strategy,
    /// Tag of the system-config variant (defaults to `"default"`).
    pub config_tag: String,
    /// Simulation statistics.
    pub stats: SimStats,
    /// Wall-clock this cell took (simulation only; trace generation is
    /// accounted to whichever job built the cache entry): its task's
    /// wall-clock divided evenly among the cells the task replayed
    /// together, so the cells' walls still sum to the workers' busy time.
    pub wall: Duration,
}

/// Progress snapshot handed to the [`crate::CampaignClient::on_progress`]
/// hook after every completed job.
#[derive(Debug, Clone)]
pub struct Progress {
    /// Jobs completed so far (including this one).
    pub completed: usize,
    /// Total jobs in the grid.
    pub total: usize,
    /// Kernel of the job that just finished.
    pub kernel: KernelKind,
    /// Strategy of the job that just finished.
    pub strategy: Strategy,
    /// Config tag of the job that just finished.
    pub config_tag: String,
    /// Wall-clock of the job that just finished.
    pub job_wall: Duration,
    /// [`TraceCache::get`] memo hits so far (process-wide for the cache in
    /// use; a campaign makes none).
    pub cache_hits: u64,
    /// Workloads generated so far (process-wide for the cache in use).
    pub cache_builds: u64,
}

/// Aggregate counters for a finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignMetrics {
    /// Jobs executed.
    pub jobs: usize,
    /// [`TraceCache::get`] memo hits during the run: 0 in every campaign,
    /// whose filter passes generate into the cache walker (or walk a stored
    /// `.trace`) and never look a trace up. Kept for the JSON export.
    pub cache_hits: u64,
    /// Workloads generated during the run: one per filter pass that
    /// neither the store's `.miss` nor its `.trace` blob served.
    pub cache_builds: u64,
    /// Miss-stream lookups served from the memo (delta over the run).
    pub filter_hits: u64,
    /// Miss streams filtered during the run (one cache-hierarchy
    /// simulation each; every other cell skips the caches entirely).
    pub filter_builds: u64,
    /// Artifact-store loads served from disk during the run (zero when
    /// the cache has no store attached).
    pub store_hits: u64,
    /// Artifact-store load attempts that found no usable blob.
    pub store_misses: u64,
    /// Artifact blobs written during the run.
    pub store_writes: u64,
    /// Corrupt artifact blobs evicted during the run.
    pub store_evictions: u64,
    /// Artifacts built during the run that the store could not persist.
    pub write_failures: u64,
    /// Phase-selection lookups served from the memo or the store.
    pub simpoint_hits: u64,
    /// Phase selections actually built (sliced + clustered) during the
    /// run — zero in a warm-store process.
    pub simpoint_builds: u64,
    /// Cells executed through sampled replay (zero when sampling is off).
    pub sampled_cells: usize,
    /// Representative slices replayed across all sampled cells.
    pub slices_replayed: u64,
    /// Worst a-priori heterogeneity error budget across the selections
    /// used (see [`abft_memsim::SimPointSelection::est_error`]); 0 when
    /// sampling is off.
    pub est_error_budget: f64,
    /// End-to-end wall-clock of the run.
    pub wall: Duration,
}

/// Shared per-job progress callback (see
/// [`crate::CampaignClient::on_progress`]).
pub type ProgressHook = Arc<dyn Fn(&Progress) + Send + Sync>;

/// One cell as its task hands it back: a [`CampaignResult`] still to be
/// given its config tag (one `String` clone per cell, made after the
/// parallel section, outside the task loops), plus the phase count and
/// error budget of the selection it replayed (zeros on the exact path).
struct Cell {
    workload: KernelParams,
    cfg_idx: usize,
    strategy: Strategy,
    stats: SimStats,
    wall: Duration,
    phases: u64,
    est_error: f64,
}

/// The engine: expand `spec` into cells, pre-warm every distinct miss
/// stream (or, when `sampling` is on, phase sample), replay the cells on
/// the worker pool — a chunk of one row's strategies per task, through
/// [`run_cells`] — and assemble the counters. `sampling` is passed beside
/// the spec because the caller resolves it (the spec's own setting, else
/// the environment's).
///
/// **How a row is cut.** With `S` strategies on `W` workers a task takes
/// `ceil(S / W)` consecutive strategies of one (workload, config) row, so
/// every row is cut into the same number of chunks and the pool — which
/// deals tasks out round-robin — gives each worker an equal share of
/// *every* row. Rows differ in length by an order of magnitude (the
/// default grid's four are 1.24 / 0.59 / 5.89 / 0.53 M events), so whole
/// rows per task would fuse more and balance far worse; this is the most
/// fusion that keeps the per-cell split's balance (1 worker: the whole
/// row in one pass; `W >= S`: one cell per task).
pub(crate) fn run_grid(
    spec: &CampaignSpec,
    sampling: Option<SimPointConfig>,
    cache: &TraceCache,
    progress: Option<&ProgressHook>,
) -> CampaignRun {
    let CampaignSpec { workloads, strategies, configs, .. } = spec;

    let total = spec.cells();
    let completed = AtomicUsize::new(0);
    let hits0 = cache.hits();
    let builds0 = cache.builds();
    let filter_hits0 = cache.miss_hits();
    let filter_builds0 = cache.miss_builds();
    let simpoint_hits0 = cache.simpoint_hits();
    let simpoint_builds0 = cache.simpoint_builds();
    let store0 = cache.store_metrics();
    #[expect(clippy::disallowed_methods, reason = "wall time is reporting-only progress metadata")]
    let start = Instant::now();

    // Pre-build every distinct miss stream in parallel (each generates its
    // workload into the cache walker; a phase sample pulls its stream
    // through the miss-stream memo, if the store has none). Without
    // this the workload-major job order makes all workers start on the
    // same kernel and serialize behind one memo slot's build; warming
    // first costs max(build times) instead of their sum. Config
    // variants sharing a cache geometry and thread count dedup to one
    // filter pass here.
    let mut distinct: Vec<(KernelParams, usize, FilterKey)> = Vec::new();
    for &w in workloads {
        for (c, (_, cfg)) in configs.iter().enumerate() {
            let key = FilterKey::new(w, cfg);
            if !distinct.iter().any(|(_, _, k)| *k == key) {
                distinct.push((w, c, key));
            }
        }
    }

    let execute = || -> Vec<Vec<Cell>> {
        distinct.into_par_iter().for_each(|(w, c, _)| match &sampling {
            Some(sp) => drop(cache.get_sampled(w, &configs[c].1, sp)),
            None => drop(cache.get_filtered(w, &configs[c].1)),
        });
        // Deterministic nested order: workload, then config, then strategy.
        let lanes = strategies.len().div_ceil(rayon::current_num_threads());
        let mut tasks: Vec<(KernelParams, usize, &[Strategy])> = Vec::new();
        for &w in workloads {
            for c in 0..configs.len() {
                tasks.extend(strategies.chunks(lanes).map(|chunk| (w, c, chunk)));
            }
        }
        tasks
            .into_par_iter()
            .map(|(workload, cfg_idx, chunk)| {
                let (tag, cfg) = &configs[cfg_idx];
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall time is reporting-only progress metadata"
                )]
                let job_start = Instant::now();
                // One lookup per task: the row's lanes share the stream.
                let (stats, phases, est_error) = match &sampling {
                    Some(sp) => {
                        let sample = cache.get_sampled(workload, cfg, sp);
                        let sel = sample.selection();
                        let stats = run_cells(SimInput::Sample(&sample), cfg, chunk);
                        (stats, sel.phases().len() as u64, sel.est_error())
                    }
                    None => {
                        let ms = cache.get_filtered(workload, cfg);
                        (run_cells(SimInput::MissStream(&ms), cfg, chunk), 0, 0.0)
                    }
                };
                let wall = job_start.elapsed() / chunk.len() as u32;
                if let Some(hook) = progress {
                    let mut report = Progress {
                        completed: 0,
                        total,
                        kernel: workload.kind(),
                        strategy: chunk[0],
                        config_tag: tag.clone(),
                        job_wall: wall,
                        cache_hits: cache.hits(),
                        cache_builds: cache.builds(),
                    };
                    for &strategy in chunk {
                        report.completed = completed.fetch_add(1, Ordering::SeqCst) + 1;
                        report.strategy = strategy;
                        hook(&report);
                    }
                }
                chunk
                    .iter()
                    .zip(stats)
                    .map(|(&strategy, stats)| Cell {
                        workload,
                        cfg_idx,
                        strategy,
                        stats,
                        wall,
                        phases,
                        est_error,
                    })
                    .collect()
            })
            .collect()
    };

    let cells: Vec<Cell> = match spec.threads {
        #[expect(
            clippy::expect_used,
            reason = "no recovery path if OS thread spawn fails at startup"
        )]
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("thread pool")
            .install(execute),
        None => execute(),
    }
    .into_iter()
    .flatten()
    .collect();

    let store = cache.store_metrics().since(&store0);
    let metrics = CampaignMetrics {
        jobs: total,
        cache_hits: cache.hits() - hits0,
        cache_builds: cache.builds() - builds0,
        filter_hits: cache.miss_hits() - filter_hits0,
        filter_builds: cache.miss_builds() - filter_builds0,
        store_hits: store.hits,
        store_misses: store.misses,
        store_writes: store.writes,
        store_evictions: store.evictions,
        write_failures: store.write_failures,
        simpoint_hits: cache.simpoint_hits() - simpoint_hits0,
        simpoint_builds: cache.simpoint_builds() - simpoint_builds0,
        sampled_cells: if sampling.is_some() { total } else { 0 },
        slices_replayed: cells.iter().map(|c| c.phases).sum(),
        est_error_budget: cells.iter().map(|c| c.est_error).fold(0.0, f64::max),
        wall: start.elapsed(),
    };
    let results = cells
        .into_iter()
        .map(|cell| CampaignResult {
            kernel: cell.workload.kind(),
            workload: cell.workload,
            strategy: cell.strategy,
            config_tag: configs[cell.cfg_idx].0.clone(),
            stats: cell.stats,
            wall: cell.wall,
        })
        .collect();
    CampaignRun { results, metrics }
}

/// The results of a finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// All cells, in the deterministic grid order
    /// (workload-major, then config, then strategy).
    pub results: Vec<CampaignResult>,
    /// Aggregate counters.
    pub metrics: CampaignMetrics,
}

impl CampaignRun {
    /// The cell for an exact (kernel, strategy, config tag) triple — the
    /// first matching workload when several share a kernel.
    pub fn get(&self, kernel: KernelKind, s: Strategy, tag: &str) -> Option<&CampaignResult> {
        self.results.iter().find(|r| r.kernel == kernel && r.strategy == s && r.config_tag == tag)
    }

    /// The classic [`BasicTest`] view for one kernel under the first
    /// config (rows in the campaign's strategy order) — of the first
    /// matching workload when several share the kernel, and with no rows
    /// when the campaign ran none.
    pub fn basic_test(&self, kernel: KernelKind) -> BasicTest {
        let tag = self.results.first().map_or("", |r| r.config_tag.as_str());
        let mut cells =
            self.results.iter().filter(|r| r.kernel == kernel && r.config_tag == tag).peekable();
        let workload = cells.peek().map(|r| r.workload);
        let rows = cells
            .filter(|r| Some(r.workload) == workload)
            .map(|r| StrategyResult { strategy: r.strategy, stats: r.stats.clone() })
            .collect();
        BasicTest { kernel, rows }
    }

    /// [`BasicTest`] views for every distinct kernel, in grid order
    /// (first config).
    pub fn basic_tests(&self) -> Vec<BasicTest> {
        let mut kinds: Vec<KernelKind> = Vec::new();
        for r in &self.results {
            if !kinds.contains(&r.kernel) {
                kinds.push(r.kernel);
            }
        }
        kinds.into_iter().map(|k| self.basic_test(k)).collect()
    }

    /// Machine-readable JSON of every cell plus the campaign counters.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": {");
        out.push_str(&format!(
            "\"jobs\": {}, \"cache_hits\": {}, \"cache_builds\": {}, \
             \"filter_hits\": {}, \"filter_builds\": {}, \
             \"store_hits\": {}, \"store_misses\": {}, \"store_writes\": {}, \
             \"store_evictions\": {}, \"write_failures\": {}, \
             \"simpoint_hits\": {}, \"simpoint_builds\": {}, \
             \"sampled_cells\": {}, \"slices_replayed\": {}, \
             \"est_error_budget\": {:.6}, \"wall_seconds\": {:.6}",
            self.metrics.jobs,
            self.metrics.cache_hits,
            self.metrics.cache_builds,
            self.metrics.filter_hits,
            self.metrics.filter_builds,
            self.metrics.store_hits,
            self.metrics.store_misses,
            self.metrics.store_writes,
            self.metrics.store_evictions,
            self.metrics.write_failures,
            self.metrics.simpoint_hits,
            self.metrics.simpoint_builds,
            self.metrics.sampled_cells,
            self.metrics.slices_replayed,
            self.metrics.est_error_budget,
            self.metrics.wall.as_secs_f64()
        ));
        out.push_str("},\n  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let st = &r.stats;
            out.push_str(&format!(
                "    {{\"kernel\": {}, \"workload\": {}, \"strategy\": {}, \"config\": {}, \
                 \"wall_seconds\": {:.6}, \"stats\": {{\
                 \"instructions\": {}, \"cycles\": {}, \"seconds\": {:.9}, \"ipc\": {:.6}, \
                 \"mem_dynamic_j\": {:.9}, \"mem_standby_j\": {:.9}, \"mem_total_j\": {:.9}, \
                 \"proc_j\": {:.9}, \"system_j\": {:.9}, \
                 \"l1_hit_rate\": {:.6}, \"l2_hit_rate\": {:.6}, \"row_hit_rate\": {:.6}, \
                 \"dram_reads\": {}, \"dram_writes\": {}, \
                 \"avg_dram_latency_ns\": {:.4}, \"avg_dram_queue_ns\": {:.4}, \
                 \"dram_bandwidth_gbps\": {:.4}}}}}{}\n",
                json_string(r.kernel.label()),
                json_string(&format!("{:?}", r.workload)),
                json_string(r.strategy.label()),
                json_string(&r.config_tag),
                r.wall.as_secs_f64(),
                st.instructions,
                st.cycles,
                st.seconds,
                st.ipc(),
                st.mem_dynamic_j(),
                st.mem_standby_j(),
                st.mem_total_j(),
                st.proc_j(),
                st.system_j(),
                st.l1_hit_rate,
                st.l2_hit_rate,
                st.row_hit_rate,
                st.dram_reads,
                st.dram_writes,
                st.avg_dram_latency_ns,
                st.avg_dram_queue_ns,
                st.dram_bandwidth_gbps,
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Machine-readable CSV of every cell — the spreadsheet-shaped
    /// sibling of [`CampaignRun::to_json`]; `repro --out` writes both as
    /// [`crate::report::Report`] artifacts.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "kernel,workload,strategy,config,wall_seconds,instructions,cycles,seconds,ipc,\
             mem_dynamic_j,mem_standby_j,mem_total_j,proc_j,system_j,\
             l1_hit_rate,l2_hit_rate,row_hit_rate,dram_reads,dram_writes\n",
        );
        for r in &self.results {
            let st = &r.stats;
            out.push_str(&format!(
                "{},{},{},{},{:.6},{},{},{:.9},{:.6},{:.9},{:.9},{:.9},{:.9},{:.9},\
                 {:.6},{:.6},{:.6},{},{}\n",
                csv_field(r.kernel.label()),
                csv_field(&format!("{:?}", r.workload)),
                csv_field(r.strategy.label()),
                csv_field(&r.config_tag),
                r.wall.as_secs_f64(),
                st.instructions,
                st.cycles,
                st.seconds,
                st.ipc(),
                st.mem_dynamic_j(),
                st.mem_standby_j(),
                st.mem_total_j(),
                st.proc_j(),
                st.system_j(),
                st.l1_hit_rate,
                st.l2_hit_rate,
                st.row_hit_rate,
                st.dram_reads,
                st.dram_writes,
            ));
        }
        out
    }
}

/// Minimal CSV field quoting: fields containing separators or quotes are
/// double-quoted with embedded quotes doubled (RFC 4180).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Minimal JSON string quoting (labels and tags are ASCII in practice).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CampaignClient, CampaignSpecBuilder};
    use abft_memsim::workloads::DgemmParams;

    fn tiny() -> KernelParams {
        KernelParams::Dgemm(DgemmParams { n: 128, nb: 64, abft: true, verify_interval: 2 })
    }

    /// Run a spec over `tiny()` against a private cache.
    fn run_tiny(cache: &Arc<TraceCache>, spec: CampaignSpecBuilder) -> CampaignRun {
        CampaignClient::with_cache(Arc::clone(cache)).run(&spec.workload(tiny()).build())
    }

    #[test]
    fn grid_order_is_workload_config_strategy() {
        let cache = Arc::new(TraceCache::new());
        let run = run_tiny(
            &cache,
            CampaignSpec::builder()
                .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
                .config("a", SystemConfig::default())
                .config("b", SystemConfig::default())
                .threads(2),
        );
        let seen: Vec<(String, Strategy)> =
            run.results.iter().map(|r| (r.config_tag.clone(), r.strategy)).collect();
        assert_eq!(
            seen,
            vec![
                ("a".into(), Strategy::NoEcc),
                ("a".into(), Strategy::WholeChipkill),
                ("b".into(), Strategy::NoEcc),
                ("b".into(), Strategy::WholeChipkill),
            ]
        );
        assert_eq!(run.metrics.jobs, 4);
        assert_eq!(run.metrics.cache_builds, 1, "one workload = one generation");
        assert_eq!(run.metrics.cache_hits, 0, "a campaign never looks a trace up");
        assert_eq!(
            run.metrics.filter_builds, 1,
            "both configs share the default cache geometry = one filter pass"
        );
        assert_eq!(
            run.metrics.filter_hits, 4,
            "the pre-warm filters; 2 strategies on 2 workers = one cell per task, every task hits"
        );
    }

    #[test]
    fn progress_hook_sees_every_cell_once_whatever_the_lane_split() {
        use std::sync::Mutex;
        let strategies = [Strategy::NoEcc, Strategy::WholeSecded, Strategy::WholeChipkill];
        // 1 worker: one three-lane task; 2: a two-lane and a one-lane
        // task; 3: three one-lane tasks.
        for threads in [1, 2, 3] {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let seen2 = Arc::clone(&seen);
            let spec = CampaignSpec::builder()
                .workload(tiny())
                .strategies(strategies)
                .threads(threads)
                .build();
            let run = CampaignClient::with_cache(Arc::new(TraceCache::new()))
                .on_progress(move |p| {
                    assert_eq!(p.total, 3);
                    seen2.lock().unwrap().push((p.completed, p.strategy));
                })
                .run(&spec);
            let mut seen = seen.lock().unwrap().clone();
            seen.sort_by_key(|&(completed, _)| completed);
            let counts: Vec<usize> = seen.iter().map(|&(completed, _)| completed).collect();
            assert_eq!(
                counts,
                [1, 2, 3],
                "{threads} worker(s): `completed` counts cells up to `total`"
            );
            for s in strategies {
                let reports = seen.iter().filter(|&&(_, seen)| seen == s).count();
                assert_eq!(reports, 1, "{threads} worker(s): {s} reported {reports} times");
            }
            assert_eq!(run.results.len(), 3);
        }
    }

    #[test]
    fn an_empty_row_yields_nothing() {
        let cfg = SystemConfig::default();
        let src = &mut tiny().stream();
        assert!(run_cells(SimInput::Source(src), &cfg, &[]).is_empty());
        assert!(Machine::simulate_lanes(&cfg, SimInput::Source(src), &[]).is_empty());
    }

    #[test]
    fn a_one_strategy_spec_runs_one_lane_tasks_like_run_cell() {
        let cache = Arc::new(TraceCache::new());
        let s = Strategy::PartialChipkillSecded;
        let run = run_tiny(&cache, CampaignSpec::builder().strategy(s).threads(1));
        assert_eq!(run.results.len(), 1);
        assert_eq!(run.metrics.filter_hits, 1, "one row of one strategy = one task = one lookup");
        let ms = cache.get_filtered(tiny(), &SystemConfig::default());
        let input = || SimInput::MissStream(&ms);
        assert_eq!(run.results[0].stats, run_cell(input(), &SystemConfig::default(), s));
        assert_eq!(
            run_cells(input(), &SystemConfig::default(), &[s]),
            [run.results[0].stats.clone()]
        );
    }

    #[test]
    fn a_strategy_listed_twice_gets_two_equal_cells() {
        let listed = [Strategy::WholeChipkill, Strategy::NoEcc, Strategy::WholeChipkill];
        for threads in [1, 2, 3] {
            let cache = Arc::new(TraceCache::new());
            let run = run_tiny(&cache, CampaignSpec::builder().strategies(listed).threads(threads));
            let got: Vec<Strategy> = run.results.iter().map(|r| r.strategy).collect();
            assert_eq!(got, listed, "{threads} worker(s)");
            assert_eq!(run.results[0].stats, run.results[2].stats, "{threads} worker(s)");
            assert_ne!(run.results[0].stats, run.results[1].stats, "{threads} worker(s)");
        }
    }

    #[test]
    fn more_workers_than_cells_still_runs_every_cell_once() {
        let cache = Arc::new(TraceCache::new());
        let count = Arc::new(AtomicUsize::new(0));
        let count2 = Arc::clone(&count);
        let spec = CampaignSpec::builder()
            .workload(tiny())
            .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
            .threads(16)
            .build();
        let run = CampaignClient::with_cache(Arc::clone(&cache))
            .on_progress(move |_| {
                count2.fetch_add(1, Ordering::SeqCst);
            })
            .run(&spec);
        assert_eq!(count.load(Ordering::SeqCst), 2);
        let got: Vec<Strategy> = run.results.iter().map(|r| r.strategy).collect();
        assert_eq!(got, [Strategy::NoEcc, Strategy::WholeChipkill]);
        assert_eq!(run.metrics.filter_hits, 2, "ceil(2 / 16) = 1 lane per task, 2 tasks");
    }

    #[test]
    fn basic_test_view_matches_direct_run() {
        let cache = Arc::new(TraceCache::new());
        let run = run_tiny(&cache, CampaignSpec::builder().threads(2));
        let bt = run.basic_test(KernelKind::Dgemm);
        assert_eq!(bt.rows.len(), 6);
        assert!(run.basic_test(KernelKind::Cg).rows.is_empty(), "no such cells, no rows");
        let direct = run_cell(
            SimInput::Source(&mut tiny().stream()),
            &SystemConfig::default(),
            Strategy::WholeChipkill,
        );
        assert_eq!(bt.row(Strategy::WholeChipkill).stats, direct);
    }

    #[test]
    fn sampled_campaign_reports_sampling_metrics() {
        let cache = Arc::new(TraceCache::new());
        let sp = SimPointConfig { interval: 2048, max_phases: 4, ..Default::default() };
        let run = run_tiny(
            &cache,
            CampaignSpec::builder()
                .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
                .sampling(sp)
                .threads(2),
        );
        assert_eq!(run.metrics.jobs, 2);
        assert_eq!(run.metrics.sampled_cells, 2);
        assert_eq!(run.metrics.simpoint_builds, 1, "one selection per distinct filter key");
        assert!(run.metrics.slices_replayed >= 2, "each cell replays at least one slice");
        assert!((0.0..=1.0).contains(&run.metrics.est_error_budget));
        let json = run.to_json();
        assert!(json.contains("\"sampled_cells\": 2"));
        assert!(json.contains("\"simpoint_builds\": 1"));
        assert!(json.contains("\"est_error_budget\""));
        // An unsampled campaign reports sampling as off.
        let exact = run_tiny(&cache, CampaignSpec::builder().strategy(Strategy::NoEcc));
        assert_eq!(exact.metrics.sampled_cells, 0);
        assert_eq!(exact.metrics.slices_replayed, 0);
        assert_eq!(exact.metrics.est_error_budget, 0.0);
    }

    #[test]
    fn json_is_structurally_sound() {
        let cache = Arc::new(TraceCache::new());
        let run = run_tiny(&cache, CampaignSpec::builder().strategy(Strategy::NoEcc));
        let json = run.to_json();
        assert!(json.contains("\"kernel\": \"FT-DGEMM\""));
        assert!(json.contains("\"strategy\": \"No ECC\""));
        assert!(json.contains("\"cache_builds\": 1"));
        assert!(json.contains("\"filter_builds\": 1"));
        assert!(json.contains("\"filter_hits\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
