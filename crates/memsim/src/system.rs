//! Whole-node trace-driven simulation: in-order core(s) + L1/L2 caches +
//! memory controller + DRAM, with the energy account of Section 5.

use crate::config::CacheConfig;
use crate::config::SystemConfig;
use crate::controller::MemoryController;
use crate::dram::{self, AccessKind, AddressMap, Dram, DramStats};
use crate::miss_stream::{
    self, MissEvent, MissEventKind, MissEvents, MissStream, RegionTally, StreamTotals,
};
use crate::simpoint::{PhaseSample, SimPointPhase, SimPointSelection};
use crate::stream::AccessSource;
use crate::trace::{RegionId, RegionMap};
use abft_ecc::EccScheme;

/// Per-region access statistics (feeds Table 4).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionStats {
    /// Region name.
    pub name: String,
    /// Whether the region is ABFT protected (ECC-relaxation eligible).
    pub abft_protected: bool,
    /// Whether errors in the region are detectable through ABFT invariants
    /// (the Table 4 classification; a superset of `abft_protected`).
    pub abft_detectable: bool,
    /// References issued by the core.
    pub refs: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Last-level-cache (L2) misses — the paper's Table 4 metric.
    pub llc_misses: u64,
}

/// Result of simulating one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Retired instructions.
    pub instructions: u64,
    /// Core cycles to completion.
    pub cycles: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Achieved instructions per cycle (read via [`SimStats::ipc`]).
    pub(crate) ipc: f64,
    /// Dynamic memory energy, J (read via [`SimStats::mem_dynamic_j`]).
    pub(crate) mem_dynamic_j: f64,
    /// Standby memory energy, J (read via [`SimStats::mem_standby_j`]).
    pub(crate) mem_standby_j: f64,
    /// Processor energy, J (read via [`SimStats::proc_j`]).
    pub(crate) proc_j: f64,
    /// L1 hit rate.
    pub l1_hit_rate: f64,
    /// L2 hit rate (of L1 misses).
    pub l2_hit_rate: f64,
    /// DRAM row-buffer hit rate.
    pub row_hit_rate: f64,
    /// DRAM reads serviced.
    pub dram_reads: u64,
    /// DRAM writes serviced.
    pub dram_writes: u64,
    /// Accesses per ECC scheme: [None, Secded, Chipkill].
    pub per_scheme: [u64; 3],
    /// Mean DRAM service latency per access (ns), queueing included.
    pub avg_dram_latency_ns: f64,
    /// Mean DRAM queueing delay per access (ns).
    pub avg_dram_queue_ns: f64,
    /// DRAM data bandwidth achieved (GB/s).
    pub dram_bandwidth_gbps: f64,
    /// Per-region statistics, same order as the trace's region map.
    pub regions: Vec<RegionStats>,
}

impl SimStats {
    /// Achieved instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.ipc
    }

    /// Dynamic memory energy (J).
    pub fn mem_dynamic_j(&self) -> f64 {
        self.mem_dynamic_j
    }

    /// Standby (background) memory energy (J).
    pub fn mem_standby_j(&self) -> f64 {
        self.mem_standby_j
    }

    /// Processor energy (J).
    pub fn proc_j(&self) -> f64 {
        self.proc_j
    }

    /// Total memory energy (J).
    pub fn mem_total_j(&self) -> f64 {
        self.mem_dynamic_j + self.mem_standby_j
    }

    /// System energy: processor + memory (the paper's Figure 6 metric).
    pub fn system_j(&self) -> f64 {
        self.proc_j + self.mem_total_j()
    }

    /// LLC misses to blocks with ABFT protection (Table 4 numerator):
    /// counts every structure whose errors the ABFT scheme can detect.
    pub fn llc_misses_abft(&self) -> u64 {
        self.regions.iter().filter(|r| r.abft_detectable).map(|r| r.llc_misses).sum()
    }

    /// LLC misses to blocks without ABFT protection (Table 4 denominator).
    pub fn llc_misses_other(&self) -> u64 {
        self.regions.iter().filter(|r| !r.abft_detectable).map(|r| r.llc_misses).sum()
    }

    /// The Table 4 ratio.
    pub fn abft_ref_ratio(&self) -> f64 {
        let o = self.llc_misses_other().max(1);
        self.llc_misses_abft() as f64 / o as f64
    }
}

/// ECC assignment for a simulation run: the default scheme plus per-region
/// overrides (programmed into the MC range registers).
#[derive(Debug, Clone)]
pub struct EccAssignment {
    /// Scheme for everything not overridden.
    pub default_scheme: EccScheme,
    /// `(region_id, scheme)` overrides.
    pub overrides: Vec<(RegionId, EccScheme)>,
}

impl EccAssignment {
    /// Uniform protection for all data.
    pub fn uniform(scheme: EccScheme) -> Self {
        EccAssignment { default_scheme: scheme, overrides: Vec::new() }
    }

    /// Strong default with relaxed scheme on the given regions.
    pub fn relaxed(default_scheme: EccScheme, relaxed: EccScheme, regions: &[RegionId]) -> Self {
        EccAssignment { default_scheme, overrides: regions.iter().map(|&r| (r, relaxed)).collect() }
    }

    /// Whether any ECC chips are exercised at all (drives their standby
    /// power state: a whole-node No-ECC configuration parks them).
    pub fn any_ecc(&self) -> bool {
        self.default_scheme != EccScheme::None
            || self.overrides.iter().any(|&(_, s)| s != EccScheme::None)
    }
}

/// A per-request protection policy: chooses the DRAM access kind for
/// every line the memory system services. The default policy (when a
/// [`SimRequest`] carries none) consults the MC's programmed range
/// registers; the DGMS comparator plugs its granularity predictor in
/// here. A policy is hardware: it sees the physical line address and
/// nothing else (the paper's Section 5.3 point about DGMS). Any
/// `FnMut(u64) -> AccessKind` closure is a policy via the blanket impl.
pub trait ProtectionPolicy {
    /// Pick the protection for one DRAM request to the physical line
    /// `paddr` (a demand line or a write-back victim).
    fn choose(&mut self, paddr: u64) -> AccessKind;
}

impl<F> ProtectionPolicy for F
where
    F: FnMut(u64) -> AccessKind,
{
    fn choose(&mut self, paddr: u64) -> AccessKind {
        self(paddr)
    }
}

/// The default policy: protect every request by the scheme the range
/// registers of `mc` give its address. A line sweep stays inside one
/// region for thousands of requests, so the policy keeps the span of
/// addresses its last register scan answered for
/// ([`MemoryController::scheme_span`]) and scans again only on leaving
/// it — valid because the registers cannot be reprogrammed while the
/// policy borrows the controller.
#[derive(Debug, Clone)]
struct RangeRegisterPolicy<'m> {
    mc: &'m MemoryController,
    /// `[lo, hi)` the cached scheme holds on.
    lo: u64,
    hi: u64,
    scheme: EccScheme,
}

impl<'m> RangeRegisterPolicy<'m> {
    /// An empty span: the first request scans the registers.
    fn new(mc: &'m MemoryController) -> Self {
        RangeRegisterPolicy { mc, lo: 0, hi: 0, scheme: EccScheme::None }
    }
}

impl ProtectionPolicy for RangeRegisterPolicy<'_> {
    #[inline]
    fn choose(&mut self, paddr: u64) -> AccessKind {
        if paddr < self.lo || paddr >= self.hi {
            (self.lo, self.hi, self.scheme) = self.mc.scheme_span(paddr);
        }
        AccessKind::Scheme(self.scheme)
    }
}

/// What a [`SimRequest`] replays: the four input forms every simulation
/// funnels through. (A materialized [`crate::trace::Trace`] is a source:
/// `SimInput::Source(&mut trace.replay())`.)
pub enum SimInput<'a> {
    /// A pull-based access stream (full cache hierarchy, bounded memory).
    Source(&'a mut dyn AccessSource),
    /// A cache-filtered miss stream (exact DRAM-tail replay).
    MissStream(&'a MissStream),
    /// A miss stream replayed only at its selected representative
    /// phases, statistics scaled by cluster weights.
    SampledMissStream {
        /// The filtered stream the selection was built from.
        stream: &'a MissStream,
        /// The phase selection ([`SimPointSelection::build`]).
        selection: &'a SimPointSelection,
    },
    /// A phase sample: the same replay as
    /// [`SimInput::SampledMissStream`] over the stream and selection it
    /// was condensed from, bit for bit, reading only what it holds.
    Sample(&'a PhaseSample),
}

impl SimInput<'_> {
    /// The region registry of whatever is replayed.
    pub fn regions(&self) -> &RegionMap {
        match self {
            SimInput::Source(s) => s.regions(),
            SimInput::MissStream(ms) => ms.regions(),
            SimInput::SampledMissStream { stream, .. } => stream.regions(),
            SimInput::Sample(sample) => &sample.totals().regions,
        }
    }
}

/// One simulation request: an input, an ECC assignment, and optionally a
/// custom protection policy — the single argument of
/// [`Machine::simulate`].
///
/// Semantics: with `policy == None` the node's range registers are
/// programmed from `assign` and every request is protected by the
/// programmed scheme (the classic path). With a custom policy nothing is
/// programmed and the policy decides per request. Either way the ECC
/// chips are powered iff [`EccAssignment::any_ecc`] — a whole-node No-ECC
/// assignment parks them — so a policy that hands out ECC of its own
/// comes with an assignment that says so (DGMS: uniform chipkill).
///
/// The policy borrow has a lifetime of its own (`'p`), so a caller can
/// build a policy locally around an input it was handed.
pub struct SimRequest<'i, 'p> {
    /// What to replay.
    pub input: SimInput<'i>,
    /// ECC assignment (programmed when no custom policy is given).
    pub assign: EccAssignment,
    /// Optional custom per-request protection policy.
    pub policy: Option<&'p mut (dyn ProtectionPolicy + 'p)>,
}

impl<'i, 'p> SimRequest<'i, 'p> {
    /// Replay any input form under `assign` (programmed assignment).
    pub fn new(input: SimInput<'i>, assign: EccAssignment) -> Self {
        SimRequest { input, assign, policy: None }
    }

    /// Replay a pull-based access stream under `assign`.
    pub fn source(src: &'i mut dyn AccessSource, assign: EccAssignment) -> Self {
        SimRequest::new(SimInput::Source(src), assign)
    }

    /// Replay a cache-filtered miss stream under `assign`.
    pub fn miss_stream(ms: &'i MissStream, assign: EccAssignment) -> Self {
        SimRequest::new(SimInput::MissStream(ms), assign)
    }

    /// Replay only the selected representative phases of a miss stream,
    /// scaling the accumulated statistics by cluster weights.
    pub fn sampled(
        ms: &'i MissStream,
        selection: &'i SimPointSelection,
        assign: EccAssignment,
    ) -> Self {
        SimRequest::new(SimInput::SampledMissStream { stream: ms, selection }, assign)
    }

    /// Replay a phase sample: [`SimRequest::sampled`] without the stream.
    pub fn sample(sample: &'i PhaseSample, assign: EccAssignment) -> Self {
        SimRequest::new(SimInput::Sample(sample), assign)
    }

    /// Attach a custom protection policy (suppresses range-register
    /// programming; see the type-level semantics).
    pub fn with_policy(mut self, policy: &'p mut (dyn ProtectionPolicy + 'p)) -> Self {
        self.policy = Some(policy);
        self
    }
}

/// The simulated node.
pub struct Machine {
    cfg: SystemConfig,
    /// The enhanced memory controller.
    pub controller: MemoryController,
}

/// Program `assign` into a controller whose range registers are clear.
/// Panics when the registers refuse an override: more relaxed regions
/// than slots, or a region listed twice.
#[expect(clippy::panic, reason = "documented hardware contract: 8 disjoint range registers")]
fn program(mc: &mut MemoryController, regions: &RegionMap, assign: &EccAssignment) {
    mc.set_default_scheme(assign.default_scheme);
    for &(rid, scheme) in &assign.overrides {
        let r = regions.get(rid);
        if let Err(e) = mc.program_range(r.base, r.end(), scheme) {
            panic!("cannot relax region {rid} ({:?}) to {scheme:?}: {e}", r.name);
        }
    }
}

impl Machine {
    /// Build a node from configuration with a strong default ECC.
    /// Panics on impossible geometry; call [`SystemConfig::validate`]
    /// first to reject a bad configuration as a value instead.
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.assert_valid();
        let controller = MemoryController::new(AddressMap::new(&cfg), EccScheme::Chipkill);
        Machine { controller, cfg }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Program the MC's range registers from a region registry and an
    /// assignment. Regions sharing a relaxed scheme and adjacency could be
    /// merged; we program one range per override (<= 8 as in hardware).
    /// [`Machine::simulate`] neither needs nor sees this: every simulation
    /// programs a fresh controller of its own.
    pub fn program_ecc(&mut self, regions: &RegionMap, assign: &EccAssignment) {
        // Clear old ranges.
        let bases: Vec<u64> = self.controller.ranges().iter().map(|r| r.base).collect();
        for b in bases {
            self.controller.clear_range(b);
        }
        program(&mut self.controller, regions, assign);
    }

    /// Run one simulation request — the single entry point every input
    /// form (stream, miss stream, sampled miss stream, phase sample) and
    /// every protection mode (programmed assignment or custom
    /// [`ProtectionPolicy`]) funnels through.
    ///
    /// Sources are consumed in bounded-memory chunks ([`crate::stream::DEFAULT_CHUNK`]
    /// accesses at a time), so the peak footprint is independent of the
    /// stream length. Virtual addresses are mapped to physical
    /// identically (the runtime crate keeps a real page table —
    /// for timing/energy the identity map is exact because regions are
    /// page aligned and disjoint).
    ///
    /// Without a policy this *is* the one-lane row
    /// ([`Machine::simulate_lanes`] over `[assign]`). The
    /// `dyn ProtectionPolicy` boundary stops here: the drive loops below
    /// are generic over the policy, so the default (range-register
    /// lookup) policy monomorphizes straight into the per-event replay
    /// loop instead of paying an indirect call per DRAM request. A custom
    /// policy keeps exactly one `dyn` layer — the one the caller handed
    /// in — around the same fresh node, and is always a one-lane replay.
    /// Every call starts from a quiet device and leaves `self` as it was.
    pub fn simulate(&self, req: SimRequest<'_, '_>) -> SimStats {
        let SimRequest { input, assign, policy } = req;
        let mut stats = match policy {
            Some(policy) => {
                let lane = Lane::new(Dram::new(self.cfg.clone()), policy, assign.any_ecc());
                replay(&self.cfg, input, &mut [lane])
            }
            None => Machine::simulate_lanes(&self.cfg, input, std::slice::from_ref(&assign)),
        };
        stats.pop().unwrap_or_else(|| unreachable!("one lane in, one SimStats out"))
    }

    /// Replay `input` once under every assignment of `assigns` — a row of
    /// the evaluation grid: one pass over the events (one decode of each
    /// record and of each line's DRAM coordinates, or one cache walk for
    /// a source) services every event on one *lane* per assignment, each
    /// a whole private simulation on a fresh node.
    ///
    /// Result `i` is what a row of `assigns[i]` alone gives, bit for bit,
    /// whatever the other lanes are, in any order, with duplicates; no
    /// assignment, no result. Panics as [`Machine::new`] does, and when an
    /// assignment does not fit the range registers.
    pub fn simulate_lanes(
        cfg: &SystemConfig,
        input: SimInput<'_>,
        assigns: &[EccAssignment],
    ) -> Vec<SimStats> {
        cfg.assert_valid();
        // Every lane starts from the same pristine node: built once, copied.
        let mut controllers =
            vec![MemoryController::new(AddressMap::new(cfg), EccScheme::Chipkill); assigns.len()];
        for (mc, assign) in controllers.iter_mut().zip(assigns) {
            program(mc, input.regions(), assign);
        }
        let mut policies: Vec<_> = controllers.iter().map(RangeRegisterPolicy::new).collect();
        let drams = vec![Dram::new(cfg.clone()); assigns.len()];
        let mut lanes: Vec<_> = drams
            .into_iter()
            .zip(&mut policies)
            .zip(assigns)
            .map(|((dram, policy), assign)| Lane::new(dram, policy, assign.any_ecc()))
            .collect();
        replay(cfg, input, &mut lanes)
    }
}

/// One assignment's private simulation inside a replay: its device
/// array, its policy (with whatever the policy holds and caches — the
/// default one, its programmed controller) and its own DRAM stall track.
/// Lanes share nothing but the read-only event stream, so each is exactly
/// the simulation it would be alone.
struct Lane<'a, P: ?Sized> {
    dram: Dram,
    policy: &'a mut P,
    ecc_chips_powered: bool,
    /// Accumulated DRAM stalls: the policy-dependent half of the cycle
    /// decomposition. At each event the lane's timeline reads `pure core
    /// cycles + stalls so far`, exactly as the full path's `cycles` does
    /// (stalls are added outside the thread-compression carry there, so
    /// the pure track is policy-independent).
    stall_acc: u64,
}

impl<'a, P: ProtectionPolicy + ?Sized> Lane<'a, P> {
    /// A lane at time zero over a quiet device: no stalls yet.
    fn new(dram: Dram, policy: &'a mut P, ecc_chips_powered: bool) -> Self {
        Lane { dram, policy, ecc_chips_powered, stall_acc: 0 }
    }
}

/// Route one input form to its drive loop, monomorphized per policy type
/// (see [`Machine::simulate`] on why this is generic), and fold every
/// lane's outcome into its [`SimStats`].
fn replay<P: ProtectionPolicy + ?Sized>(
    cfg: &SystemConfig,
    input: SimInput<'_>,
    lanes: &mut [Lane<'_, P>],
) -> Vec<SimStats> {
    match input {
        SimInput::Source(s) => drive_source(cfg, s, lanes),
        SimInput::MissStream(ms) => drive_miss(cfg, ms, lanes),
        SimInput::SampledMissStream { stream, selection } => {
            let fit = selection.fit(stream);
            // Documented replay contract: the selection is keyed on the stream.
            assert!(fit.is_ok(), "phase selection does not fit this stream: {fit:?}");
            let phases = selection.phases();
            let open = |k: usize| stream.events_from(phases[k].cursor());
            drive_sampled(cfg, stream.totals(), phases, open, lanes)
        }
        SimInput::Sample(sample) => {
            let phases = sample.selection().phases();
            drive_sampled(cfg, sample.totals(), phases, |k| sample.open(k), lanes)
        }
    }
}

/// The full-hierarchy engine: streams `src` through L1/L2
/// ([`miss_stream::walk`]) once and services each DRAM-visible event as
/// it falls out, through the same [`replay_event`] the filtered replay
/// uses — a lane's timeline at an event is the walk's pure core cycles
/// plus the lane's DRAM stalls so far, on either path.
fn drive_source<S: AccessSource + ?Sized, P: ProtectionPolicy + ?Sized>(
    cfg: &SystemConfig,
    src: &mut S,
    lanes: &mut [Lane<'_, P>],
) -> Vec<SimStats> {
    let map = AddressMap::new(cfg);
    let walked = miss_stream::walk(src, cfg.l1, cfg.l2, cfg.threads, |ev, _| {
        replay_event(&map, cfg.stall_factor, ev, lanes)
    });
    let accounts: Vec<_> = lanes.iter().map(DramAccount::exact).collect();
    assemble_lanes(cfg, &walked, lanes, &accounts)
}

/// Panic unless a stream filtered under `(l1, l2, threads)` may replay
/// on a `cfg` node (the replay contract: the stream is keyed on cache
/// geometry and thread count).
fn assert_geometry(cfg: &SystemConfig, (l1, l2, threads): (CacheConfig, CacheConfig, usize)) {
    assert!(
        (l1, l2, threads) == (cfg.l1, cfg.l2, cfg.threads.max(1)),
        // Documented replay contract: the stream is keyed on geometry.
        "miss stream was filtered under {l1:?}/{l2:?}/{threads} threads, \
         but this machine runs {:?}/{:?}/{} threads",
        cfg.l1,
        cfg.l2,
        cfg.threads
    );
}

/// The exact filtered-replay engine: drives every event of the miss
/// stream through MC + DRAM. Bit-identical to [`Machine::simulate`]
/// over the stream the [`MissStream`] was built from, at
/// O(LLC misses) instead of O(accesses) — the cache hierarchy was
/// already simulated by [`MissStream::build`] and its outcomes are
/// ECC-independent. The policy observes the same physical line
/// addresses in the same DRAM-access order as the full path, so stateful
/// policies (e.g. the DGMS granularity predictor) behave identically.
///
/// A lane's cycle counter is reconstructed as the stream's recorded pure
/// core cycles plus the DRAM stalls the lane accumulated during replay —
/// the exact decomposition the full path computes, so the returned
/// [`SimStats`] are bit-identical.
fn drive_miss<P: ProtectionPolicy + ?Sized>(
    cfg: &SystemConfig,
    ms: &MissStream,
    lanes: &mut [Lane<'_, P>],
) -> Vec<SimStats> {
    assert_geometry(cfg, ms.filter_config());
    let map = AddressMap::new(cfg);
    for ev in ms.iter() {
        replay_event(&map, cfg.stall_factor, &ev, lanes);
    }
    let accounts: Vec<_> = lanes.iter().map(DramAccount::exact).collect();
    assemble_lanes(cfg, ms.totals(), lanes, &accounts)
}

/// A lane's counters as they stood at some event: its [`DramStats`], its
/// stall cycles and its ranks' busy cycles.
#[derive(Clone)]
struct Mark {
    stats: DramStats,
    stalls: u64,
    rank_busy: Vec<u64>,
}

impl Mark {
    /// A quiet device of `ranks` ranks: nothing done yet.
    fn zero(ranks: usize) -> Mark {
        Mark { stats: DramStats::default(), stalls: 0, rank_busy: vec![0; ranks] }
    }

    /// Move the mark to where `lane` stands now, into the buffers it has.
    fn set<P: ?Sized>(&mut self, lane: &Lane<'_, P>) {
        self.stats = lane.dram.stats;
        self.stalls = lane.stall_acc;
        self.rank_busy.copy_from_slice(lane.dram.rank_busy());
    }
}

/// What [`assemble_stats`] reads of one lane: its DRAM counters, dynamic
/// energy, queueing, latency and per-rank busy totals and its stall
/// cycles, times in core cycles. Each is a sum of deltas since a [`Mark`],
/// scaled: an exact replay's one delta since time zero at scale 1, or the
/// sampled replay's per-phase deltas at each phase's cluster weight. The
/// sums are f64; a count is rounded where [`SimStats`] holds an integer.
#[derive(Clone, Default)]
struct DramAccount {
    reads: f64,
    writes: f64,
    row_hits: f64,
    activations: f64,
    dynamic_nj: f64,
    per_scheme: [f64; 3],
    queue_cycles: f64,
    latency_cycles: f64,
    stalls: f64,
    rank_busy: Vec<f64>,
}

impl DramAccount {
    /// Nothing yet, on a device of `ranks` ranks.
    fn new(ranks: usize) -> DramAccount {
        DramAccount { rank_busy: vec![0.0; ranks], ..DramAccount::default() }
    }

    /// What an exact replay left on `lane`: its whole run, at scale 1.
    fn exact<P: ?Sized>(lane: &Lane<'_, P>) -> DramAccount {
        let ranks = lane.dram.rank_busy().len();
        let mut account = DramAccount::new(ranks);
        account.add_since(&Mark::zero(ranks), lane, 1.0);
        account
    }

    /// Add `scale` times what `lane` did since `mark`.
    fn add_since<P: ?Sized>(&mut self, mark: &Mark, lane: &Lane<'_, P>, scale: f64) {
        let (before, after) = (&mark.stats, &lane.dram.stats);
        self.reads += (after.reads - before.reads) as f64 * scale;
        self.writes += (after.writes - before.writes) as f64 * scale;
        self.row_hits += (after.row_hits - before.row_hits) as f64 * scale;
        self.activations += (after.activations - before.activations) as f64 * scale;
        self.dynamic_nj += (after.dynamic_nj - before.dynamic_nj) * scale;
        for (acc, (a, b)) in
            self.per_scheme.iter_mut().zip(after.per_scheme.iter().zip(&before.per_scheme))
        {
            *acc += (a - b) as f64 * scale;
        }
        self.queue_cycles += (after.queue_cycles - before.queue_cycles) as f64 * scale;
        self.latency_cycles += (after.latency_cycles - before.latency_cycles) as f64 * scale;
        self.stalls += (lane.stall_acc - mark.stalls) as f64 * scale;
        // Rank busy time feeds the standby-energy activity fraction
        // against the *scaled* wall time, so it is scaled like every other
        // delta.
        for (acc, (a, b)) in
            self.rank_busy.iter_mut().zip(lane.dram.rank_busy().iter().zip(&mark.rank_busy))
        {
            *acc += (a - b) as f64 * scale;
        }
    }
}

/// The sampled-replay engine: drives only the representative slice of
/// each selected phase through MC + DRAM, scales every phase's DRAM
/// statistic deltas and stall cycles by its cluster weight into a
/// [`DramAccount`], and folds the account through the same
/// [`assemble_stats`] the exact paths use. Reference counters
/// (instructions, cache tallies, region stats, pure core cycles) stay
/// exact — they were recorded at filter time; only the DRAM-derived
/// quantities are estimates. With `max_phases >= slices` every slice is
/// its own phase at scale 1 and the estimate coincides with exact replay
/// (modulo the f64 delta-summation of the energy account).
///
/// It reads the stream through `totals` and `open(k)` — the decoder at
/// phase `k`'s first event — alone, so the full stream with its selection
/// and a [`PhaseSample`] are replayed by the same loop. Each phase is
/// opened once, whatever the lane count; the marks and the accounts around
/// it are per lane.
fn drive_sampled<'a, P: ProtectionPolicy + ?Sized>(
    cfg: &SystemConfig,
    totals: &StreamTotals,
    phases: &[SimPointPhase],
    open: impl Fn(usize) -> MissEvents<'a>,
    lanes: &mut [Lane<'_, P>],
) -> Vec<SimStats> {
    assert_geometry(cfg, (totals.l1_cfg, totals.l2_cfg, totals.threads));
    let map = AddressMap::new(cfg);
    // Per-lane marks and accounts, made before the phase loop, which must
    // not allocate (`tests/alloc_budget.rs` holds it to the same count at
    // 4 and 8 phases) — only copy into these.
    let ranks = lanes.first().map_or(0, |lane| lane.dram.rank_busy().len());
    let mut marks = vec![Mark::zero(ranks); lanes.len()];
    let mut accounts = vec![DramAccount::new(ranks); lanes.len()];
    for (k, ph) in phases.iter().enumerate() {
        for (lane, mark) in lanes.iter().zip(&mut marks) {
            mark.set(lane);
        }
        for ev in open(k).take(ph.events() as usize) {
            replay_event(&map, cfg.stall_factor, &ev, lanes);
        }
        for ((lane, mark), account) in lanes.iter().zip(&marks).zip(&mut accounts) {
            account.add_since(mark, lane, ph.scale());
        }
    }
    assemble_lanes(cfg, totals, lanes, &accounts)
}

/// Every lane's [`SimStats`] from its account, in lane order. The
/// per-region rows are policy-independent: tallied once, one copy per
/// lane.
fn assemble_lanes<P: ?Sized>(
    cfg: &SystemConfig,
    totals: &StreamTotals,
    lanes: &[Lane<'_, P>],
    accounts: &[DramAccount],
) -> Vec<SimStats> {
    let regions = tally_regions(&totals.regions, &totals.tallies);
    lanes
        .iter()
        .zip(accounts)
        .zip(std::iter::repeat_n(regions, lanes.len()))
        .map(|((lane, account), regions)| {
            lane.dram.audit_state();
            assemble_stats(cfg, totals, account, lane.ecc_chips_powered, regions)
        })
        .collect()
}

/// Fold the run counters and one lane's DRAM account into a
/// [`SimStats`] — the single implementation the full path, the filtered
/// replay and the sampled replay use, so their derived metrics share every
/// formula bit for bit. Core cycles become nanoseconds here and nowhere
/// else in a replay.
fn assemble_stats(
    cfg: &SystemConfig,
    totals: &StreamTotals,
    account: &DramAccount,
    ecc_chips_powered: bool,
    regions: Vec<RegionStats>,
) -> SimStats {
    let &StreamTotals { instructions, l1_hits, l1_misses, l2_hits, l2_misses, .. } = totals;
    // The lane's cycle counter: the walk's pure core cycles plus the
    // DRAM stalls the replay accumulated.
    let cycles = totals.core_cycles + account.stalls.round() as u64;
    let cycle_ns = cfg.cycle_ns();
    let elapsed_ns = cycles as f64 * cycle_ns;
    let seconds = elapsed_ns * 1e-9;
    let ipc = if cycles == 0 { 0.0 } else { instructions as f64 / cycles as f64 };
    let mem_dynamic_j = account.dynamic_nj * 1e-9;
    let busy = account.rank_busy.iter().copied();
    let mem_standby_j = dram::standby_nj(cfg, busy, elapsed_ns, ecc_chips_powered) * 1e-9;
    let proc_j = cfg.proc_power.watts_at(ipc) * seconds;
    let count = |v: f64| v.round() as u64;
    let (dram_reads, dram_writes) = (count(account.reads), count(account.writes));
    let accesses = dram_reads + dram_writes;
    let per_access = |total: f64| if accesses == 0 { 0.0 } else { total / accesses as f64 };

    SimStats {
        instructions,
        cycles,
        seconds,
        ipc,
        mem_dynamic_j,
        mem_standby_j,
        proc_j,
        l1_hit_rate: if l1_hits + l1_misses == 0 {
            0.0
        } else {
            l1_hits as f64 / (l1_hits + l1_misses) as f64
        },
        l2_hit_rate: if l2_hits + l2_misses == 0 {
            0.0
        } else {
            l2_hits as f64 / (l2_hits + l2_misses) as f64
        },
        row_hit_rate: per_access(count(account.row_hits) as f64),
        dram_reads,
        dram_writes,
        per_scheme: account.per_scheme.map(count),
        avg_dram_latency_ns: per_access(account.latency_cycles * cycle_ns),
        avg_dram_queue_ns: per_access(account.queue_cycles * cycle_ns),
        dram_bandwidth_gbps: if elapsed_ns > 0.0 {
            (accesses * 64) as f64 / elapsed_ns
        } else {
            0.0
        },
        regions,
    }
}

/// Replay one miss-stream event through every lane's MC + DRAM — the
/// shared inner loop of the full, the exact filtered and the sampled
/// engines, so the three cannot drift. What the event is and where its
/// one or two lines live is the same for every lane and is worked out
/// once, outside the lane loop; inside it, each lane does what a replay
/// of its own would: its timeline from its own stalls, then demand,
/// stall, coupled write-back, in that order. Time is whole core cycles
/// throughout; a demand serviced in `lat` cycles stalls the core
/// `lat · stall_factor` of them, truncated.
#[inline(always)]
fn replay_event<P: ProtectionPolicy + ?Sized>(
    map: &AddressMap,
    stall_factor: f64,
    ev: &MissEvent,
    lanes: &mut [Lane<'_, P>],
) {
    match ev.kind {
        MissEventKind::Writeback(wb) => {
            let loc = map.decode(wb);
            for lane in lanes {
                let now = ev.core_cycles + lane.stall_acc;
                let kind = lane.policy.choose(wb);
                lane.dram.service(now, loc, true, kind);
            }
        }
        MissEventKind::Demand { writeback } => {
            let loc = map.decode(ev.trigger.addr);
            let writeback = writeback.map(|wb| (wb, map.decode(wb)));
            for lane in lanes {
                let now = ev.core_cycles + lane.stall_acc;
                let kind = lane.policy.choose(ev.trigger.addr);
                let res = lane.dram.service(now, loc, false, kind);
                // Through `i64`, the crossing to f64 and back is 2 and 7
                // instructions on x86-64 where `u64` takes 6 and 14: the
                // same values, for a latency and a stall below 2^63 cycles.
                let lat = (res.completion - now) as i64 as f64;
                lane.stall_acc += (lat * stall_factor) as i64 as u64;
                if let Some((wb, wb_loc)) = writeback {
                    let kind = lane.policy.choose(wb);
                    lane.dram.service(now, wb_loc, true, kind);
                }
            }
        }
    }
}

/// Per-region stats from the tallies the filter recorded — exact and
/// policy-independent, shared by the exact and sampled replay paths.
fn tally_regions(regions: &RegionMap, tallies: &[RegionTally]) -> Vec<RegionStats> {
    regions
        .regions()
        .iter()
        .zip(tallies)
        .map(|(r, t)| RegionStats {
            name: r.name.clone(),
            abft_protected: r.abft_protected,
            abft_detectable: r.abft_detectable,
            refs: t.refs,
            l1_misses: t.l1_misses,
            llc_misses: t.llc_misses,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ECC_RANGE_SLOTS;
    use crate::trace::{RegionMap, Trace};

    #[test]
    fn a_phase_cursor_that_does_not_decode_to_its_first_event_is_refused() {
        use crate::miss_stream::{few_line_trace, SliceCursor};
        use crate::simpoint::SimPointConfig;
        let (trace, l1, l2) = few_line_trace(7, 3, 600);
        let m = Machine::new(SystemConfig { l1, l2, threads: 1, ..SystemConfig::default() });
        let ms = MissStream::build(&mut trace.replay(), l1, l2, 1);
        let sp = SimPointConfig { interval: 32, max_phases: 4, ..SimPointConfig::default() };
        let sel = SimPointSelection::build(&ms, sp);
        let chipkill = EccAssignment::uniform(EccScheme::Chipkill);
        m.simulate(SimRequest::sampled(&ms, &sel, chipkill.clone()));
        let mut heads: Vec<usize> = ms.records().map(|step| step.unwrap().at).collect();
        heads.push(ms.raw_bytes().len());
        // Every cursor one byte on, or on the record head after its own.
        type Plant = fn(&mut SliceCursor, &[usize]);
        let plants: [(&str, Plant); 2] = [
            ("shifted a byte", |c, _| c.idx += 1),
            ("moved a record on", |c, heads| c.idx = heads[heads.partition_point(|&h| h <= c.idx)]),
        ];
        for (what, plant) in plants {
            let mut phases = sel.phases().to_vec();
            phases.iter_mut().for_each(|ph| plant(&mut ph.cursor, &heads));
            let bad = sel.with_phases(phases);
            let replay = || m.simulate(SimRequest::sampled(&ms, &bad, chipkill.clone()));
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(replay));
            let why = *refused.expect_err(what).downcast::<String>().unwrap();
            assert!(why.contains("phase 0: "), "{what}: {why}");
        }
    }

    /// `trace` through the full hierarchy of `m` under `assign`.
    fn run(m: &Machine, trace: &Trace, assign: EccAssignment) -> SimStats {
        m.simulate(SimRequest::source(&mut trace.replay(), assign))
    }

    fn linear_trace(region_bytes: u64, passes: usize, work: u32, abft: bool) -> Trace {
        let mut rm = RegionMap::new();
        let r = rm.alloc("data", region_bytes, abft);
        let base = rm.get(r).base;
        let mut t = Trace::new(rm);
        for _ in 0..passes {
            let mut a = base;
            while a < base + region_bytes {
                t.push(a, r, false, work);
                a += 64;
            }
        }
        t
    }

    #[test]
    fn small_working_set_stays_in_cache() {
        let m = Machine::new(SystemConfig::default());
        // 8 KB fits in the 16 KB L1 after the first pass; with compute
        // work between accesses the in-order core stays near IPC 1.
        let t = linear_trace(8 * 1024, 50, 10, true);
        let s = run(&m, &t, EccAssignment::uniform(EccScheme::None));
        assert!(s.l1_hit_rate > 0.85, "l1 hit rate {}", s.l1_hit_rate);
        assert!(s.ipc > 0.85, "ipc {}", s.ipc);
    }

    #[test]
    fn streaming_set_misses_llc_and_stalls() {
        let m = Machine::new(SystemConfig::default());
        // 32 MB streamed twice: far beyond the 8MB L2.
        let t = linear_trace(32 * 1024 * 1024, 2, 2, true);
        let s = run(&m, &t, EccAssignment::uniform(EccScheme::None));
        assert!(s.l2_hit_rate < 0.1, "l2 hit rate {}", s.l2_hit_rate);
        assert!(s.ipc < 1.0);
        assert!(s.dram_reads > 900_000);
    }

    #[test]
    fn custom_policy_reproduces_uniform_assignment() {
        // A policy that always answers chipkill is the default path with
        // the uniform chipkill assignment: same timing, energy, traffic.
        let t = linear_trace(4 * 1024 * 1024, 2, 4, true);
        let m1 = Machine::new(SystemConfig::default());
        let uniform = run(&m1, &t, EccAssignment::uniform(EccScheme::Chipkill));
        let m2 = Machine::new(SystemConfig::default());
        let mut policy = |_: u64| AccessKind::Scheme(EccScheme::Chipkill);
        let custom = m2.simulate(
            SimRequest::source(&mut t.replay(), EccAssignment::uniform(EccScheme::Chipkill))
                .with_policy(&mut policy),
        );
        assert_eq!(uniform.cycles, custom.cycles);
        assert_eq!(uniform.dram_reads, custom.dram_reads);
        assert_eq!(uniform.per_scheme, custom.per_scheme);
        assert_eq!(uniform.mem_dynamic_j.to_bits(), custom.mem_dynamic_j.to_bits());
    }

    #[test]
    fn chipkill_costs_more_energy_than_no_ecc() {
        let t = linear_trace(16 * 1024 * 1024, 2, 4, true);
        let m = Machine::new(SystemConfig::default());
        let none = run(&m, &t, EccAssignment::uniform(EccScheme::None));
        let ck = run(&m, &t, EccAssignment::uniform(EccScheme::Chipkill));
        assert!(ck.mem_dynamic_j > 2.0 * none.mem_dynamic_j);
        assert!(ck.mem_dynamic_j < 2.5 * none.mem_dynamic_j);
        assert!(ck.ipc <= none.ipc, "lock-step cannot be faster");
        assert!(ck.mem_standby_j >= none.mem_standby_j, "ECC chips powered + longer run");
    }

    #[test]
    fn partial_relaxation_sits_between_whole_and_none() {
        // Two regions: a big ABFT-protected one and a small other one.
        let mut rm = RegionMap::new();
        let big = rm.alloc("abft", 8 * 1024 * 1024, true);
        let small = rm.alloc("other", 512 * 1024, false);
        let (bb, sb) = (rm.get(big).base, rm.get(small).base);
        let mut t = Trace::new(rm);
        for _ in 0..2 {
            let mut a = bb;
            while a < bb + 8 * 1024 * 1024 {
                t.push(a, big, false, 2);
                a += 64;
            }
            let mut a = sb;
            while a < sb + 512 * 1024 {
                t.push(a, small, false, 2);
                a += 64;
            }
        }
        let m = Machine::new(SystemConfig::default());
        let whole_ck = run(&m, &t, EccAssignment::uniform(EccScheme::Chipkill));
        let part =
            run(&m, &t, EccAssignment::relaxed(EccScheme::Chipkill, EccScheme::None, &[big]));
        let none = run(&m, &t, EccAssignment::uniform(EccScheme::None));
        assert!(part.mem_dynamic_j < whole_ck.mem_dynamic_j);
        assert!(part.mem_dynamic_j > none.mem_dynamic_j);
        // Most accesses hit the relaxed region.
        assert!(part.per_scheme[0] > part.per_scheme[2]);
        assert!(part.per_scheme[2] > 0);
    }

    #[test]
    fn region_stats_classify_llc_misses() {
        let mut rm = RegionMap::new();
        let a = rm.alloc("abft", 16 * 1024 * 1024, true);
        let b = rm.alloc("other", 1024 * 1024, false);
        let (ab, bb) = (rm.get(a).base, rm.get(b).base);
        let mut t = Trace::new(rm);
        let mut addr = ab;
        while addr < ab + 16 * 1024 * 1024 {
            t.push(addr, a, false, 1);
            addr += 64;
        }
        let mut addr = bb;
        while addr < bb + 1024 * 1024 {
            t.push(addr, b, false, 1);
            addr += 64;
        }
        let m = Machine::new(SystemConfig::default());
        let s = run(&m, &t, EccAssignment::uniform(EccScheme::Secded));
        assert!(s.llc_misses_abft() > 0);
        assert!(s.llc_misses_other() > 0);
        let ratio = s.abft_ref_ratio();
        assert!(ratio > 10.0 && ratio < 20.0, "ratio {ratio}");
    }

    proptest::proptest! {
        #[test]
        fn span_cached_policy_answers_like_a_register_scan(
            seed: u64,
            ranges in 0usize..=crate::controller::ECC_RANGE_SLOTS,
        ) {
            use proptest::prelude::*;
            use rand::{Rng, SeedableRng};
            let rng = &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            // Disjoint ranges between sorted cut points (some adjacent,
            // some apart), programmed in no particular order.
            let mut cuts: Vec<u64> = (0..2 * ranges).map(|_| rng.random_range(0..1u64 << 20) * 64).collect();
            cuts.sort_unstable();
            let mut spans: Vec<(u64, u64)> =
                cuts.chunks_exact(2).map(|c| (c[0], c[1])).filter(|(b, e)| b < e).collect();
            for i in (1..spans.len()).rev() {
                spans.swap(i, rng.random_range(0..=i));
            }
            let schemes = [EccScheme::None, EccScheme::Secded, EccScheme::Chipkill];
            let mut mc =
                MemoryController::new(AddressMap::new(&SystemConfig::default()), schemes[rng.random_range(0..3)]);
            for &(base, end) in &spans {
                mc.program_range(base, end, schemes[rng.random_range(0..3)]).unwrap();
            }

            let mut policy = RangeRegisterPolicy::new(&mc);
            let mut edges: Vec<u64> = vec![0, u64::MAX - 1, u64::MAX];
            for &(base, end) in &spans {
                edges.extend([base.saturating_sub(1), base, base + 64, end - 1, end]);
            }
            let mut paddr = 0u64;
            for _ in 0..2000 {
                // Line sweeps that cross range edges, the edges themselves,
                // and jumps anywhere.
                paddr = match rng.random_range(0..10) {
                    0 => edges[rng.random_range(0..edges.len())],
                    1 => rng.random_range(0..(1u64 << 26) + 4096),
                    _ => paddr.saturating_add(64),
                };
                let got = policy.choose(paddr);
                prop_assert!(
                    got == AccessKind::Scheme(mc.scheme_for(paddr)),
                    "paddr {paddr:#x} under {:?}: {got:?}", mc.ranges()
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn every_lane_is_the_simulation_it_would_be_alone(
            seed: u64,
            geometry in 0usize..3,
            x8: bool,
            closed_page: bool,
        ) {
            use crate::config::{DeviceWidth, RowPolicy};
            use crate::miss_stream::few_line_trace;
            use proptest::prelude::*;
            use rand::{Rng, SeedableRng};
            use std::sync::Arc;
            let rng = &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed);

            // Table 3, a small power-of-two node, and the 6-channel x
            // 3-DIMM node only the division decode can address.
            let (trace, l1, l2) = few_line_trace(seed, ECC_RANGE_SLOTS, 600);
            let node = SystemConfig {
                l1,
                l2,
                threads: 1,
                row_policy: if closed_page { RowPolicy::Closed } else { RowPolicy::Open },
                ..SystemConfig::default()
            }
            .with_device_width(if x8 { DeviceWidth::X8 } else { DeviceWidth::X4 });
            let cfg = match geometry {
                0 => node,
                1 => SystemConfig { channels: 2, dimms_per_channel: 1, ranks_per_dimm: 1, ..node },
                _ => SystemConfig { channels: 6, dimms_per_channel: 3, ..node },
            };
            cfg.validate().unwrap();
            let ms = MissStream::build(&mut trace.replay(), l1, l2, 1);
            let interval = rng.random_range(5..48);
            let max_phases = rng.random_range(1..=ms.events().div_ceil(interval)) as usize;
            let sp = crate::simpoint::SimPointConfig { interval, max_phases, ..Default::default() };
            let selection = Arc::new(SimPointSelection::build(&ms, sp));
            let sample = PhaseSample::condense(&ms, Arc::clone(&selection));

            // 0-6 lanes in no order, drawn with repetition from the six
            // strategies' shapes: one scheme everywhere, or a strong
            // default relaxed on 0-8 regions.
            use EccScheme::{Chipkill, None as NoEcc, Secded};
            let mut assigns: Vec<EccAssignment> = Vec::new();
            for _ in 0..rng.random_range(0..=6) {
                let mut regions: Vec<RegionId> = (0..ECC_RANGE_SLOTS as RegionId).collect();
                regions.retain(|_| rng.random_bool(0.5));
                let assign = match rng.random_range(0..8) {
                    0 => EccAssignment::uniform(NoEcc),
                    1 => EccAssignment::uniform(Secded),
                    2 => EccAssignment::uniform(Chipkill),
                    3 => EccAssignment::relaxed(Chipkill, NoEcc, &regions),
                    4 => EccAssignment::relaxed(Secded, NoEcc, &regions),
                    5 => EccAssignment::relaxed(Chipkill, Secded, &regions),
                    _ if assigns.is_empty() => EccAssignment::uniform(Chipkill),
                    _ => assigns[rng.random_range(0..assigns.len())].clone(),
                };
                assigns.push(assign);
            }

            fn input<'a>(
                form: &str,
                ms: &'a MissStream,
                selection: &'a SimPointSelection,
                sample: &'a PhaseSample,
                src: &'a mut dyn AccessSource,
            ) -> SimInput<'a> {
                match form {
                    "miss stream" => SimInput::MissStream(ms),
                    "sampled miss stream" => SimInput::SampledMissStream { stream: ms, selection },
                    "sample" => SimInput::Sample(sample),
                    _ => SimInput::Source(src),
                }
            }
            for form in ["miss stream", "sampled miss stream", "sample", "source"] {
                let src = &mut trace.replay();
                let row = Machine::simulate_lanes(
                    &cfg,
                    input(form, &ms, &selection, &sample, src),
                    &assigns,
                );
                prop_assert_eq!(row.len(), assigns.len());
                for (i, (lane, assign)) in row.iter().zip(&assigns).enumerate() {
                    let alone = Machine::new(cfg.clone()).simulate(SimRequest::new(
                        input(form, &ms, &selection, &sample, src),
                        assign.clone(),
                    ));
                    prop_assert!(
                        *lane == alone,
                        "{form}: lane {i} of {assigns:?}\n in the row: {lane:?}\n alone: {alone:?}"
                    );
                }
            }
        }
    }

    /// The referee for the replay step: a one-lane replay of `input` (a
    /// miss stream, or a phase sample) under `assign` whose per-event body
    /// is the one that stood before the core-cycle time base — f64
    /// nanoseconds on a `RefDram`, `u64 as f64` arrivals,
    /// `reference_access_kind`'s `f64::max`, and `(lat * stall_factor /
    /// cycle_ns) as u64`, operand for operand; the sample's phase fold is
    /// the one `drive_sampled` kept, in nanoseconds. Its totals go to
    /// `assemble_stats` as core cycles.
    fn reference_replay(
        cfg: &SystemConfig,
        input: SimInput<'_>,
        assign: &EccAssignment,
    ) -> SimStats {
        use crate::dram::tests::{reference_access_kind, RefDram};
        let mut mc = MemoryController::new(AddressMap::new(cfg), EccScheme::Chipkill);
        program(&mut mc, input.regions(), assign);
        let mut policy = RangeRegisterPolicy::new(&mc);
        let mut dram = RefDram::new(cfg.clone());
        let mut stall_acc = 0u64;
        let (cycle_ns, stall_factor) = (cfg.cycle_ns(), cfg.stall_factor);
        let mut step = |dram: &mut RefDram, stall_acc: &mut u64, ev: &MissEvent| {
            let now = (ev.core_cycles + *stall_acc) as f64 * cycle_ns;
            match ev.kind {
                MissEventKind::Writeback(wb) => {
                    let kind = policy.choose(wb);
                    reference_access_kind(dram, now, wb, true, kind);
                }
                MissEventKind::Demand { writeback } => {
                    let kind = policy.choose(ev.trigger.addr);
                    let res = reference_access_kind(dram, now, ev.trigger.addr, false, kind);
                    let lat_ns = res.completion_ns - now;
                    *stall_acc += (lat_ns * stall_factor / cycle_ns) as u64;
                    if let Some(wb) = writeback {
                        let kind = policy.choose(wb);
                        reference_access_kind(dram, now, wb, true, kind);
                    }
                }
            }
        };
        // What one phase (scale 1 for an exact replay) adds, in ns: the
        // counts, energy, queueing and latency, stall cycles, rank busy.
        let ranks = dram.rank_busy_ns.len();
        let (mut est, mut busy) = ([0.0f64; 11], vec![0.0f64; ranks]);
        let mut fold =
            |before: &RefDram, stalls_before: u64, after: &RefDram, stalls: u64, scale: f64| {
                let (b, a) = (&before.stats, &after.stats);
                let deltas = [
                    (a.reads - b.reads) as f64,
                    (a.writes - b.writes) as f64,
                    (a.row_hits - b.row_hits) as f64,
                    (a.activations - b.activations) as f64,
                    a.dynamic_nj - b.dynamic_nj,
                    (a.per_scheme[0] - b.per_scheme[0]) as f64,
                    (a.per_scheme[1] - b.per_scheme[1]) as f64,
                    (a.per_scheme[2] - b.per_scheme[2]) as f64,
                    after.queue_ns_total - before.queue_ns_total,
                    after.latency_ns_total - before.latency_ns_total,
                    (stalls - stalls_before) as f64,
                ];
                for (acc, delta) in est.iter_mut().zip(deltas) {
                    *acc += delta * scale;
                }
                for (acc, (a, b)) in
                    busy.iter_mut().zip(after.rank_busy_ns.iter().zip(&before.rank_busy_ns))
                {
                    *acc += (a - b) * scale;
                }
            };
        let totals = match input {
            SimInput::MissStream(ms) => {
                let quiet = dram.clone();
                ms.iter().for_each(|ev| step(&mut dram, &mut stall_acc, &ev));
                fold(&quiet, 0, &dram, stall_acc, 1.0);
                ms.totals()
            }
            SimInput::Sample(sample) => {
                for (k, ph) in sample.selection().phases().iter().enumerate() {
                    let (before, stalls_before) = (dram.clone(), stall_acc);
                    sample
                        .open(k)
                        .take(ph.events() as usize)
                        .for_each(|ev| step(&mut dram, &mut stall_acc, &ev));
                    fold(&before, stalls_before, &dram, stall_acc, ph.scale());
                }
                sample.totals()
            }
            _ => unreachable!("the referee replays a miss stream or a sample"),
        };
        let cycles = |ns: f64| ns * cfg.clock_ghz;
        let account = DramAccount {
            reads: est[0],
            writes: est[1],
            row_hits: est[2],
            activations: est[3],
            dynamic_nj: est[4],
            per_scheme: [est[5], est[6], est[7]],
            queue_cycles: cycles(est[8]),
            latency_cycles: cycles(est[9]),
            stalls: est[10],
            rank_busy: busy.into_iter().map(cycles).collect(),
        };
        let regions = tally_regions(&totals.regions, &totals.tallies);
        assemble_stats(cfg, totals, &account, assign.any_ecc(), regions)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn every_lane_is_reference_replay_bit_for_bit(seed: u64) {
            use crate::config::RowPolicy;
            use crate::miss_stream::few_line_trace;
            use proptest::prelude::*;
            use rand::{Rng, SeedableRng};
            let rng = &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let (trace, l1, l2) = few_line_trace(seed, ECC_RANGE_SLOTS, 600);
            let ms = MissStream::build(&mut trace.replay(), l1, l2, 1);
            let every_slice = crate::simpoint::SimPointConfig {
                interval: rng.random_range(5..48),
                max_phases: usize::MAX,
                ..Default::default()
            };
            let selection = std::sync::Arc::new(SimPointSelection::build(&ms, every_slice));
            let sample = PhaseSample::condense(&ms, selection);
            let input = |sampled: bool| {
                if sampled { SimInput::Sample(&sample) } else { SimInput::MissStream(&ms) }
            };
            use EccScheme::{Chipkill, None as NoEcc, Secded};
            let mut regions: Vec<RegionId> = (0..ECC_RANGE_SLOTS as RegionId).collect();
            regions.retain(|_| rng.random_bool(0.5));
            let assigns = [
                EccAssignment::uniform(NoEcc),
                EccAssignment::uniform(Chipkill),
                EccAssignment::relaxed(Chipkill, NoEcc, &regions),
                EccAssignment::relaxed(Secded, NoEcc, &regions),
            ];

            // Power-of-two clocks, where a core cycle is an exact f64 of
            // nanoseconds, and a tREFI of whole cycles at each.
            for (clock_ghz, t_refi_ns) in
                [(1.0, 7800.0), (2.0, 7800.0), (2.0, 7812.5), (4.0, 7800.0), (4.0, 7812.5)]
            {
                for stall_factor in [0.0, 0.35, 1.0, rng.random_range(0.0..1.0)] {
                    for row_policy in [RowPolicy::Open, RowPolicy::Closed] {
                        let timing = crate::config::DramTiming { t_refi_ns, ..Default::default() };
                        let cfg = SystemConfig { l1, l2, threads: 1, clock_ghz, stall_factor, row_policy, timing, ..SystemConfig::default() };
                        cfg.validate().unwrap();
                        // By bit pattern: `{:?}` prints the shortest string
                        // that reads back as the same f64.
                        for sampled in [false, true] {
                            let want: Vec<String> = assigns
                                .iter()
                                .map(|assign| format!("{:?}", reference_replay(&cfg, input(sampled), assign)))
                                .collect();
                            let row = Machine::simulate_lanes(&cfg, input(sampled), &assigns);
                            let got: Vec<String> = row.iter().map(|s| format!("{s:?}")).collect();
                            prop_assert!(
                                got == want,
                                "sampled {sampled} at {clock_ghz} GHz, tREFI {t_refi_ns} ns, \
                                 stall factor {stall_factor}, {row_policy:?}:\n{got:#?}\n{want:#?}"
                            );
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn a_policy_sees_the_same_lines_from_a_source_and_from_its_miss_stream(seed: u64) {
            use crate::miss_stream::few_line_trace;
            use proptest::prelude::*;
            let (trace, l1, l2) = few_line_trace(seed, 3, 600);
            let m = Machine::new(SystemConfig { l1, l2, threads: 1, ..SystemConfig::default() });
            let ms = MissStream::build(&mut trace.replay(), l1, l2, 1);
            // What the seam carries, read off the records: an event's demand
            // line, then its coupled write-back; a stand-alone write-back.
            let (mut lines, mut kinds) = (Vec::new(), [false; 3]);
            for ev in ms.iter() {
                match ev.kind {
                    MissEventKind::Writeback(wb) => {
                        kinds[0] = true;
                        lines.push(wb);
                    }
                    MissEventKind::Demand { writeback } => {
                        kinds[1 + writeback.is_some() as usize] = true;
                        lines.push(ev.trigger.addr);
                        lines.extend(writeback);
                    }
                }
            }
            prop_assume!(kinds == [true; 3]);

            let seen_through = |input: SimInput<'_>| {
                let mut seen = Vec::new();
                let mut policy = |paddr: u64| {
                    seen.push(paddr);
                    AccessKind::Scheme(EccScheme::Secded)
                };
                let assign = EccAssignment::uniform(EccScheme::Secded);
                m.simulate(SimRequest::new(input, assign).with_policy(&mut policy));
                seen
            };
            prop_assert!(seen_through(SimInput::Source(&mut trace.replay())) == lines);
            prop_assert!(seen_through(SimInput::MissStream(&ms)) == lines);
        }
    }

    /// Set a node up with each of `regions` regions relaxed to No-ECC, then
    /// the `extra` overrides.
    fn relax(regions: usize, extra: &[(RegionId, EccScheme)]) {
        let mut rm = RegionMap::new();
        let ids: Vec<RegionId> =
            (0..regions).map(|i| rm.alloc(&format!("r{i}"), 4096, true)).collect();
        let mut assign = EccAssignment::relaxed(EccScheme::Chipkill, EccScheme::None, &ids);
        assign.overrides.extend_from_slice(extra);
        run(&Machine::new(SystemConfig::default()), &Trace::new(rm), assign);
    }

    #[test]
    fn as_many_relaxed_regions_as_range_registers_fit() {
        relax(ECC_RANGE_SLOTS, &[]);
    }

    #[test]
    #[should_panic(expected = "range register slots are in use")]
    fn a_ninth_relaxed_region_is_refused_for_want_of_a_slot() {
        relax(ECC_RANGE_SLOTS + 1, &[]);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn a_region_relaxed_twice_is_refused_as_an_overlap() {
        relax(2, &[(1, EccScheme::Secded)]);
    }

    #[test]
    fn ecc_assignment_any_ecc() {
        assert!(!EccAssignment::uniform(EccScheme::None).any_ecc());
        assert!(EccAssignment::uniform(EccScheme::Secded).any_ecc());
        assert!(EccAssignment::relaxed(EccScheme::None, EccScheme::Secded, &[0]).any_ecc());
    }
}
