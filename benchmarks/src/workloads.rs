//! The four workloads: one client, closed loop, one worker, one process.
//!
//! Each is a struct whose `new` is the set-up, whose [`Workload::rep`] is
//! one identical repetition through the campaign engine (the clock is
//! read inside, so directories are made and big allocations dropped
//! outside it), and whose [`Workload::traced_rep`] re-enacts the same
//! repetition layer by layer under spans. Every rep checks the campaign
//! counters it must show, so a rep that silently did different work is a
//! failure instead of a different timing.
//!
//! Why these four (also in BENCHMARK.json and README.md):
//! * `grid_replay` — replay is ~100% of the work, generation, filtering,
//!   store and sampling are 0%: where a replay-loop change must show and a
//!   store or filter change must not.
//! * `grid_cold` — the first run of any figure binary: filter ~55%,
//!   replay ~25%, store *writes* ~14%, generation + packing ~5%.
//! * `paper_warm_store` — the fresh-process warm-disk case the store
//!   exists for: store *reads* ≈ half, sampled replay ≈ half.
//! * `paper_sampled` — `simpoint` does all the work (selection + weighted
//!   slice replay) and carries the accuracy check, so speed bought with
//!   error shows.

use crate::check::{selection_covers_stream, Cell, StreamFacts};
use crate::inputs::Inputs;
use crate::layers::{self, Timed};
use crate::trace::Tracer;
use abft_coop_core::{CampaignClient, CampaignMetrics, CampaignRun, CampaignSpec, Strategy};
use abft_memsim::workloads::abft_region_ids;
use abft_memsim::{
    ArtifactStore, FilterKey, KernelKind, KernelParams, Machine, MissStream, SimPointConfig,
    SimPointSelection, SimRequest, SimStats, SystemConfig, TraceCache,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The one strategy `grid_cold` simulates, and the one the per-event
/// probes program (range registers in use, two schemes in the mix).
pub const COLD_STRATEGY: Strategy = Strategy::PartialChipkillSecded;

/// What the campaign and its cache counted during one rep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub cache_builds: u64,
    pub cache_hits: u64,
    pub filter_builds: u64,
    pub filter_hits: u64,
    pub simpoint_builds: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_writes: u64,
    pub store_evictions: u64,
    /// Packed traces + miss streams resident in the rep's `TraceCache`.
    pub resident_bytes: u64,
}

impl Counters {
    fn of(m: &CampaignMetrics, cache: &TraceCache) -> Counters {
        Counters {
            cache_builds: m.cache_builds,
            cache_hits: m.cache_hits,
            filter_builds: m.filter_builds,
            filter_hits: m.filter_hits,
            simpoint_builds: m.simpoint_builds,
            store_hits: m.store_hits,
            store_misses: m.store_misses,
            store_writes: m.store_writes,
            store_evictions: m.store_evictions,
            resident_bytes: cache.resident_bytes() + cache.miss_resident_bytes(),
        }
    }
}

/// Bytes of each blob kind in a store directory.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreBytes {
    pub trace: u64,
    pub miss: u64,
    pub simpoint: u64,
}

impl StoreBytes {
    fn of(dir: &Path) -> StoreBytes {
        let mut b = StoreBytes::default();
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let len = entry.metadata().map_or(0, |m| m.len());
            match entry.path().extension().and_then(|e| e.to_str()) {
                Some("trace") => b.trace += len,
                Some("miss") => b.miss += len,
                Some("simpoint") => b.simpoint += len,
                _ => {}
            }
        }
        b
    }

    pub fn total(&self) -> u64 {
        self.trace + self.miss + self.simpoint
    }
}

/// One repetition's outcome.
pub struct Rep {
    /// Wall seconds of the timed region (0 for a traced rep: its spans
    /// are its timing).
    pub wall_s: f64,
    /// Σ per-cell wall seconds inside it.
    pub cell_wall_s: f64,
    pub cells: Vec<Cell>,
    pub counters: Counters,
    /// `Err` when the counters show the rep did not do the work the
    /// workload is defined as.
    pub expected_work: Result<(), String>,
}

impl Rep {
    /// A traced re-enactment: no timing of its own.
    fn untimed(cells: Vec<Cell>, expected_work: Result<(), String>) -> Rep {
        Rep { wall_s: 0.0, cell_wall_s: 0.0, cells, counters: Counters::default(), expected_work }
    }
}

/// One miss stream a workload replays, with what it was built from.
#[derive(Clone)]
pub struct Stream {
    pub params: KernelParams,
    pub ms: Arc<MissStream>,
    pub facts: StreamFacts,
}

impl Stream {
    fn of(params: KernelParams, ms: Arc<MissStream>) -> Stream {
        let facts = StreamFacts::of(&ms);
        Stream { params, ms, facts }
    }
}

pub trait Workload {
    /// One repetition through the campaign engine, one worker.
    fn rep(&mut self) -> Rep;

    /// The same repetition re-enacted from the layers' public functions,
    /// one worker, every call under a span of `tr`.
    fn traced_rep(&mut self, tr: &Tracer, rep: u32) -> Rep;

    /// The streams a rep replays (the per-event probes walk them).
    fn streams(&self) -> Vec<Stream>;

    /// Grid cells per rep.
    fn cells(&self) -> u64;

    /// Blobs on disk after a rep (store workloads).
    fn store_bytes(&self) -> StoreBytes {
        StoreBytes::default()
    }

    /// The phase selection a rep replays (sampled workloads).
    fn selection(&self) -> Option<Arc<SimPointSelection>> {
        None
    }

    /// `grid_replay` itself: the one workload the traced run also drives
    /// on `nproc` workers.
    fn grid_replay(&self) -> Option<&GridReplay> {
        None
    }
}

/// Miss events the cells of one rep stand for: the unit of
/// `campaign_ns_per_event`. A sampled cell counts its whole stream.
pub fn events_per_rep(w: &dyn Workload) -> u64 {
    let streams = w.streams();
    let per_stream = w.cells() / streams.len() as u64;
    streams.iter().map(|s| s.facts.events * per_stream).sum()
}

fn replay_exact(cfg: &SystemConfig, ms: &MissStream, s: Strategy) -> SimStats {
    let assign = s.assignment(&abft_region_ids(ms.regions()));
    black_box(Machine::new(cfg.clone()).simulate(SimRequest::miss_stream(ms, assign)))
}

fn replay_sampled(
    cfg: &SystemConfig,
    ms: &MissStream,
    sel: &SimPointSelection,
    s: Strategy,
) -> SimStats {
    let assign = s.assignment(&abft_region_ids(ms.regions()));
    black_box(Machine::new(cfg.clone()).simulate(SimRequest::sampled(ms, sel, assign)))
}

fn label(params: KernelParams, s: Strategy) -> String {
    format!("{} x {}", params.label(), s.label())
}

/// The engine's cells as checkable [`Cell`]s (grid order: workload-major,
/// then strategy).
fn cells_of(run: &CampaignRun, streams: &[Stream]) -> Vec<Cell> {
    run.results
        .iter()
        .map(|r| {
            let facts = streams
                .iter()
                .find(|s| s.params == r.workload)
                .expect("every cell's workload is one of the workload's streams")
                .facts;
            Cell::exact(label(r.workload, r.strategy), r.stats.clone(), facts)
        })
        .collect()
}

fn cell_wall_s(run: &CampaignRun) -> f64 {
    run.results.iter().map(|r| r.wall.as_secs_f64()).sum()
}

/// One campaign through the client, and the wall seconds it took.
fn run_timed(client: &CampaignClient, spec: &CampaignSpec) -> (CampaignRun, f64) {
    let t = Instant::now();
    let run = black_box(client.run(spec));
    (run, t.elapsed().as_secs_f64())
}

fn expect(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} = {got}, expected {want}"))
    }
}

fn replay_span(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::Dgemm => "system.replay.dgemm",
        KernelKind::Cholesky => "system.replay.cholesky",
        KernelKind::Cg => "system.replay.cg",
        KernelKind::Hpl => "system.replay.hpl",
    }
}

/// A fresh, empty directory under the benchmark's `out/`.
fn fresh_dir(out: &Path, name: &str) -> PathBuf {
    let dir = out.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// grid_replay
// ---------------------------------------------------------------------

/// The 24-cell fig07 grid on a warm in-memory `TraceCache`.
pub struct GridReplay {
    cfg: SystemConfig,
    cache: Arc<TraceCache>,
    grid: [KernelParams; 4],
    streams: Vec<Stream>,
}

impl GridReplay {
    pub fn new(inputs: &Inputs) -> Result<GridReplay, String> {
        let cfg = SystemConfig::default();
        let cache = Arc::new(TraceCache::new());
        let streams =
            inputs.grid.iter().map(|&p| Stream::of(p, cache.get_filtered(p, &cfg))).collect();
        layers::selfcheck(&cache, inputs.grid[3], &cfg)?;
        Ok(GridReplay { cfg, cache, grid: inputs.grid, streams })
    }
}

impl GridReplay {
    /// The grid through the engine on `threads` workers.
    pub fn campaign(&self, threads: usize) -> Rep {
        let client = CampaignClient::with_cache(Arc::clone(&self.cache));
        let spec = CampaignSpec::builder()
            .workloads(self.grid)
            .strategies(Strategy::ALL)
            .threads(threads)
            .build();
        let (run, wall_s) = run_timed(&client, &spec);
        let counters = Counters::of(&run.metrics, &self.cache);
        Rep {
            wall_s,
            cell_wall_s: cell_wall_s(&run),
            cells: cells_of(&run, &self.streams),
            counters,
            expected_work: expect("cache_builds", counters.cache_builds, 0).and(expect(
                "filter_builds",
                counters.filter_builds,
                0,
            )),
        }
    }
}

impl Workload for GridReplay {
    fn rep(&mut self) -> Rep {
        self.campaign(1)
    }

    fn traced_rep(&mut self, tr: &Tracer, rep: u32) -> Rep {
        let mut cells = Vec::new();
        tr.rep(rep, || {
            for st in &self.streams {
                let name = replay_span(st.params.kind());
                for s in Strategy::ALL {
                    let stats = tr.span(name, || replay_exact(&self.cfg, &st.ms, s));
                    tr.count(name, st.facts.events);
                    cells.push(Cell::exact(label(st.params, s), stats, st.facts));
                }
            }
        });
        Rep::untimed(cells, Ok(()))
    }

    fn streams(&self) -> Vec<Stream> {
        self.streams.clone()
    }

    fn cells(&self) -> u64 {
        (self.streams.len() * Strategy::ALL.len()) as u64
    }

    fn grid_replay(&self) -> Option<&GridReplay> {
        Some(self)
    }
}

// ---------------------------------------------------------------------
// grid_cold
// ---------------------------------------------------------------------

/// Per rep one campaign on a fresh `TraceCache` over a fresh, empty
/// `ArtifactStore`: four kernels generated, packed, filtered, persisted
/// and replayed once.
pub struct GridCold {
    cfg: SystemConfig,
    grid: [KernelParams; 4],
    dir: PathBuf,
    /// Filled by the first rep (the streams only exist once one has run).
    streams: Vec<Stream>,
    store_bytes: StoreBytes,
}

impl GridCold {
    pub fn new(inputs: &Inputs, out: &Path) -> Result<GridCold, String> {
        let cfg = SystemConfig::default();
        layers::selfcheck(&TraceCache::new(), inputs.grid[3], &cfg)?;
        Ok(GridCold {
            cfg,
            grid: inputs.grid,
            dir: fresh_dir(out, "store-cold"),
            streams: Vec::new(),
            store_bytes: StoreBytes::default(),
        })
    }

    /// Outside the clock: note what the rep left on disk, then remove it.
    fn sweep(&mut self) {
        self.store_bytes = StoreBytes::of(&self.dir);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for GridCold {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for GridCold {
    fn rep(&mut self) -> Rep {
        let cache = Arc::new(TraceCache::new());
        let client = CampaignClient::with_cache(Arc::clone(&cache));
        let spec = CampaignSpec::builder()
            .workloads(self.grid)
            .strategy(COLD_STRATEGY)
            .threads(1)
            .store(&self.dir)
            .build();
        let (run, wall_s) = run_timed(&client, &spec);
        let counters = Counters::of(&run.metrics, &cache);
        // The first rep records the streams (memo hits on its cache).
        if self.streams.is_empty() {
            self.streams = self
                .grid
                .iter()
                .map(|&p| Stream::of(p, cache.get_filtered(p, &self.cfg)))
                .collect();
        }
        self.sweep();
        Rep {
            wall_s,
            cell_wall_s: cell_wall_s(&run),
            cells: cells_of(&run, &self.streams),
            counters,
            expected_work: expect("cache_builds", counters.cache_builds, 4)
                .and(expect("filter_builds", counters.filter_builds, 4))
                .and(expect("store_writes", counters.store_writes, 8)),
        }
    }

    fn traced_rep(&mut self, tr: &Tracer, rep: u32) -> Rep {
        let cfg = &self.cfg;
        let mut cells = Vec::new();
        let mut expected_work = Ok(());
        // The engine at one worker: pre-warm kernel by kernel (consult the
        // store, generate, persist, filter, persist), everything staying
        // resident as in its cache, then replay the four cells.
        let built = tr.rep(rep, || {
            let store = tr
                .span("store.open", || ArtifactStore::open(&self.dir))
                .expect("the benchmark's out/ directory is writable");
            let mut built = Vec::new();
            for &p in &self.grid {
                let key = FilterKey::new(p, cfg);
                let absent = tr.span("store.lookup", || {
                    store.load_miss(&key).is_none() && store.load_trace(p).is_none()
                });
                let packed = tr.span("workloads.build_packed", || Arc::new(p.build_packed()));
                let saved = tr.span("store.save_trace", || store.save_trace(p, &packed));
                let ms = tr.span("miss_stream.build", || {
                    let mut src = Timed::new(packed.replay(), tr, "packed.decode");
                    MissStream::build(&mut src, key.l1, key.l2, key.threads)
                });
                let saved = saved.and(tr.span("store.save_miss", || store.save_miss(&key, &ms)));
                if !absent || saved.is_err() {
                    expected_work = Err("the rep's store was not fresh and writable".to_string());
                }
                tr.count("accesses.generated", packed.len());
                tr.count("packed.bytes", packed.packed_bytes());
                tr.count("events.filtered", ms.events());
                built.push((p, packed, ms));
            }
            for (p, _, ms) in &built {
                let name = replay_span(p.kind());
                let stats = tr.span(name, || replay_exact(cfg, ms, COLD_STRATEGY));
                tr.count(name, ms.events());
                let known = self.streams.iter().find(|s| s.params == *p);
                let facts = known.expect("the warm-up reps recorded the streams").facts;
                cells.push(Cell::exact(label(*p, COLD_STRATEGY), stats, facts));
            }
            built
        });
        drop(built);
        self.sweep();
        Rep::untimed(cells, expected_work)
    }

    fn streams(&self) -> Vec<Stream> {
        self.streams.clone()
    }

    fn cells(&self) -> u64 {
        self.grid.len() as u64
    }

    fn store_bytes(&self) -> StoreBytes {
        self.store_bytes
    }
}

// ---------------------------------------------------------------------
// paper_warm_store
// ---------------------------------------------------------------------

/// Paper-scale FT-CG × 6 strategies, phase-sampled, by a fresh
/// `TraceCache` over a store that set-up populated.
pub struct PaperWarmStore {
    cfg: SystemConfig,
    params: KernelParams,
    simpoint: SimPointConfig,
    dir: PathBuf,
    stream: Stream,
    selection: Arc<SimPointSelection>,
    store_bytes: StoreBytes,
}

impl PaperWarmStore {
    pub fn new(inputs: &Inputs, out: &Path) -> Result<PaperWarmStore, String> {
        let cfg = SystemConfig::default();
        layers::selfcheck(&TraceCache::new(), inputs.grid[3], &cfg)?;
        let (params, simpoint) = (inputs.paper_cg, SimPointConfig::default());
        let dir = fresh_dir(out, "store-paper");
        let store =
            ArtifactStore::open(&dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
        // The cold process: generates, filters, clusters, and persists all
        // three artifacts on the way.
        let cold = TraceCache::with_store(Arc::new(store));
        let selection = cold.get_simpoints(params, &cfg, &simpoint);
        let stream = Stream::of(params, cold.get_filtered(params, &cfg));
        selection_covers_stream(&selection)?;
        let written = cold.store_metrics().writes;
        let this = PaperWarmStore {
            cfg,
            params,
            simpoint,
            store_bytes: StoreBytes::of(&dir),
            dir,
            stream,
            selection,
        };
        expect("set-up store_writes", written, 3)?;
        Ok(this)
    }

    fn cell(&self, s: Strategy, stats: SimStats) -> Cell {
        Cell {
            label: label(self.params, s),
            stats,
            facts: self.stream.facts,
            sampled: true,
            exact: None,
        }
    }
}

impl Drop for PaperWarmStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for PaperWarmStore {
    fn rep(&mut self) -> Rep {
        let cache = Arc::new(TraceCache::new());
        let client = CampaignClient::with_cache(Arc::clone(&cache));
        let spec = CampaignSpec::builder()
            .workload(self.params)
            .strategies(Strategy::ALL)
            .threads(1)
            .store(&self.dir)
            .sampling(self.simpoint)
            .build();
        let (run, wall_s) = run_timed(&client, &spec);
        let counters = Counters::of(&run.metrics, &cache);
        Rep {
            wall_s,
            cell_wall_s: cell_wall_s(&run),
            cells: run.results.iter().map(|r| self.cell(r.strategy, r.stats.clone())).collect(),
            counters,
            expected_work: expect("cache_builds", counters.cache_builds, 0)
                .and(expect("filter_builds", counters.filter_builds, 0))
                .and(expect("simpoint_builds", counters.simpoint_builds, 0))
                .and(expect("store_misses", counters.store_misses, 0)),
        }
    }

    fn traced_rep(&mut self, tr: &Tracer, rep: u32) -> Rep {
        let key = FilterKey::new(self.params, &self.cfg);
        let mut cells = Vec::new();
        let mut expected_work = Ok(());
        let loaded = tr.rep(rep, || {
            let store = tr
                .span("store.open", || ArtifactStore::open(&self.dir))
                .expect("the benchmark's out/ directory is writable");
            let ms = tr.span("store.load_miss", || store.load_miss(&key));
            let sel = tr.span("store.load_simpoint", || store.load_simpoint(&key, &self.simpoint));
            let (Some(ms), Some(sel)) = (ms, sel) else {
                expected_work = Err("set-up's blobs did not load".to_string());
                return None;
            };
            tr.count("events.loaded", ms.events());
            for s in Strategy::ALL {
                let stats =
                    tr.span("system.sampled_replay", || replay_sampled(&self.cfg, &ms, &sel, s));
                tr.count("system.sampled_replay", sel.replayed_events());
                cells.push(self.cell(s, stats));
            }
            Some((ms, sel))
        });
        drop(loaded);
        Rep::untimed(cells, expected_work)
    }

    fn streams(&self) -> Vec<Stream> {
        vec![self.stream.clone()]
    }

    fn cells(&self) -> u64 {
        Strategy::ALL.len() as u64
    }

    fn store_bytes(&self) -> StoreBytes {
        self.store_bytes
    }

    fn selection(&self) -> Option<Arc<SimPointSelection>> {
        Some(Arc::clone(&self.selection))
    }
}

// ---------------------------------------------------------------------
// paper_sampled
// ---------------------------------------------------------------------

/// Paper-scale FT-CG miss stream held in memory; per rep the phase
/// selection is rebuilt and the six strategies replayed through it. The
/// layer functions are called directly: a warm `TraceCache` memoises the
/// selection, so the client cannot rebuild it per rep.
pub struct PaperSampled {
    cfg: SystemConfig,
    simpoint: SimPointConfig,
    stream: Stream,
    /// Exact replay of the six strategies: the error reference.
    exact: Vec<SimStats>,
    selection: Option<Arc<SimPointSelection>>,
}

impl PaperSampled {
    pub fn new(inputs: &Inputs) -> Result<PaperSampled, String> {
        let cfg = SystemConfig::default();
        layers::selfcheck(&TraceCache::new(), inputs.grid[3], &cfg)?;
        // The cache (and the packed trace in it) goes; the stream stays.
        let ms = TraceCache::new().get_filtered(inputs.paper_cg, &cfg);
        let stream = Stream::of(inputs.paper_cg, ms);
        let exact = Strategy::ALL.iter().map(|&s| replay_exact(&cfg, &stream.ms, s)).collect();
        Ok(PaperSampled {
            cfg,
            simpoint: SimPointConfig::default(),
            stream,
            exact,
            selection: None,
        })
    }

    fn cell(&self, i: usize, stats: SimStats) -> Cell {
        Cell {
            label: label(self.stream.params, Strategy::ALL[i]),
            stats,
            facts: self.stream.facts,
            sampled: true,
            exact: Some(self.exact[i].clone()),
        }
    }

    /// Outside the clock: keep the rep's selection and check it.
    fn keep(&mut self, sel: SimPointSelection) -> Result<(), String> {
        let covered = selection_covers_stream(&sel);
        self.selection = Some(Arc::new(sel));
        covered
    }
}

impl Workload for PaperSampled {
    fn rep(&mut self) -> Rep {
        let ms = Arc::clone(&self.stream.ms);
        let t = Instant::now();
        let sel = black_box(SimPointSelection::build(&ms, self.simpoint));
        let select_s = t.elapsed().as_secs_f64();
        let stats: Vec<SimStats> =
            Strategy::ALL.iter().map(|&s| replay_sampled(&self.cfg, &ms, &sel, s)).collect();
        let wall_s = t.elapsed().as_secs_f64();
        Rep {
            wall_s,
            cell_wall_s: wall_s - select_s,
            cells: stats.into_iter().enumerate().map(|(i, s)| self.cell(i, s)).collect(),
            counters: Counters::default(),
            expected_work: self.keep(sel),
        }
    }

    fn traced_rep(&mut self, tr: &Tracer, rep: u32) -> Rep {
        let ms = Arc::clone(&self.stream.ms);
        let (sel, stats) = tr.rep(rep, || {
            let sel = tr.span("simpoint.select", || {
                black_box(SimPointSelection::build(&ms, self.simpoint))
            });
            tr.count("simpoint.select", ms.events());
            let stats: Vec<SimStats> = Strategy::ALL
                .iter()
                .map(|&s| {
                    tr.count("system.sampled_replay", sel.replayed_events());
                    tr.span("system.sampled_replay", || replay_sampled(&self.cfg, &ms, &sel, s))
                })
                .collect();
            (sel, stats)
        });
        let cells = stats.into_iter().enumerate().map(|(i, s)| self.cell(i, s)).collect();
        Rep::untimed(cells, self.keep(sel))
    }

    fn streams(&self) -> Vec<Stream> {
        vec![self.stream.clone()]
    }

    fn cells(&self) -> u64 {
        Strategy::ALL.len() as u64
    }

    fn selection(&self) -> Option<Arc<SimPointSelection>> {
        self.selection.clone()
    }
}

// ---------------------------------------------------------------------

/// The workload names of BENCHMARK.json.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GridReplay,
    GridCold,
    PaperWarmStore,
    PaperSampled,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::GridReplay, Kind::GridCold, Kind::PaperWarmStore, Kind::PaperSampled];

    pub fn name(self) -> &'static str {
        match self {
            Kind::GridReplay => "grid_replay",
            Kind::GridCold => "grid_cold",
            Kind::PaperWarmStore => "paper_warm_store",
            Kind::PaperSampled => "paper_sampled",
        }
    }

    /// Seconds one rep takes on the 2-vCPU box the benchmark was sized on
    /// (README.md): what turns `--seconds` into a fixed rep count.
    pub fn nominal_rep_s(self) -> f64 {
        match self {
            Kind::GridReplay => 2.65,
            Kind::GridCold => 2.05,
            Kind::PaperWarmStore => 1.26,
            Kind::PaperSampled => 0.83,
        }
    }

    /// Run the set-up.
    pub fn setup(self, inputs: &Inputs, out: &Path) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::GridReplay => Box::new(GridReplay::new(inputs)?),
            Kind::GridCold => Box::new(GridCold::new(inputs, out)?),
            Kind::PaperWarmStore => Box::new(PaperWarmStore::new(inputs, out)?),
            Kind::PaperSampled => Box::new(PaperSampled::new(inputs)?),
        })
    }
}
