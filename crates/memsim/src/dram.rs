//! DDR3 main-memory model: channels, ranks, banks, open-page row buffers,
//! and a Micron-style energy account.
//!
//! The model is event-ordered rather than cycle-stepped: every access is
//! serviced against per-bank row-buffer state and per-channel bus
//! occupancy, which is what determines the row-hit rates, queueing delays
//! and activate counts that drive the paper's energy and IPC differences
//! between ECC schemes. Chipkill accesses lock-step a channel pair
//! (Section 3.1): both channels are occupied and both banks activated,
//! halving effective channel-level parallelism — the paper's stated
//! performance mechanism.

use crate::config::{whole_cycles, SystemConfig};
use abft_ecc::EccScheme;

/// How one memory request is serviced.
///
/// Beyond the three per-page schemes of the paper's proposal, the DGMS
/// comparator (Section 5.3) issues *fine-grained* 16-byte accesses on
/// sub-ranked DRAM: only a quarter of a rank's chips (4 data + 1 ECC for
/// 16-byte SECDED granularity) are activated and the channel is occupied
/// for a quarter of the width-time product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessKind {
    /// A whole-line access under one of the page-granular schemes.
    Scheme(EccScheme),
    /// DGMS fine-grained access: 16 bytes, sub-ranked, SECDED-protected.
    FineSecded,
}

impl AccessKind {
    /// Every kind, in [`AccessKind::index`] order.
    pub(crate) const ALL: [AccessKind; 4] = [
        AccessKind::Scheme(EccScheme::None),
        AccessKind::Scheme(EccScheme::Secded),
        AccessKind::Scheme(EccScheme::Chipkill),
        AccessKind::FineSecded,
    ];

    /// Slot of this kind in the [`Dram`] cost table.
    fn index(self) -> usize {
        match self {
            AccessKind::Scheme(s) => scheme_index(s),
            AccessKind::FineSecded => 3,
        }
    }

    fn chips(self, cfg: &SystemConfig) -> f64 {
        match self {
            AccessKind::Scheme(s) => cfg.chips_per_access(s) as f64,
            AccessKind::FineSecded => match cfg.device_width {
                crate::config::DeviceWidth::X4 => 5.0,
                crate::config::DeviceWidth::X8 => 3.0,
            },
        }
    }
}

/// Decoded DRAM coordinates of a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramLocation {
    /// Physical channel.
    pub channel: u32,
    /// Rank within the channel (across DIMMs).
    pub rank: u32,
    /// Bank within the rank.
    pub bank: u32,
    /// Row within the bank.
    pub row: u64,
    /// Column (line slot) within the row.
    pub col: u32,
}

/// Physical address <-> DRAM coordinate mapping.
///
/// Bit order (LSB to MSB): line offset | channel | column | bank | rank |
/// row — line-interleaved across channels, with consecutive same-channel
/// lines filling a row (open-page friendly for streaming kernels).
#[derive(Debug, Clone, Copy)]
pub struct AddressMap {
    channels: u32,
    ranks_per_channel: u32,
    banks_per_rank: u32,
    cols_per_row: u32,
    line_bytes: u64,
    /// Field widths when every field count is a power of two (Table 3
    /// is): [`AddressMap::decode`] then shifts and masks. `None` keeps
    /// the division chain, the only decode for any other geometry.
    widths: Option<FieldWidths>,
}

/// log2 of each field count, LSB field first.
#[derive(Debug, Clone, Copy)]
struct FieldWidths {
    line: u32,
    channel: u32,
    col: u32,
    bank: u32,
    rank: u32,
}

impl AddressMap {
    /// Build from the system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        let channels = cfg.channels as u32;
        let ranks_per_channel = (cfg.dimms_per_channel * cfg.ranks_per_dimm) as u32;
        let banks_per_rank = cfg.banks_per_rank as u32;
        let cols_per_row = (cfg.row_bytes / cfg.l2.line_bytes) as u32;
        let line_bytes = cfg.l2.line_bytes as u64;
        let pow2 = line_bytes.is_power_of_two()
            && [channels, cols_per_row, banks_per_rank, ranks_per_channel]
                .iter()
                .all(|n| n.is_power_of_two());
        let widths = pow2.then(|| FieldWidths {
            line: line_bytes.trailing_zeros(),
            channel: channels.trailing_zeros(),
            col: cols_per_row.trailing_zeros(),
            bank: banks_per_rank.trailing_zeros(),
            rank: ranks_per_channel.trailing_zeros(),
        });
        AddressMap { channels, ranks_per_channel, banks_per_rank, cols_per_row, line_bytes, widths }
    }

    /// Decode a physical address.
    #[inline]
    pub fn decode(&self, paddr: u64) -> DramLocation {
        let Some(w) = self.widths else {
            return self.decode_by_division(paddr);
        };
        let mut a = paddr >> w.line;
        let channel = a as u32 & (self.channels - 1);
        a >>= w.channel;
        let col = a as u32 & (self.cols_per_row - 1);
        a >>= w.col;
        let bank = a as u32 & (self.banks_per_rank - 1);
        a >>= w.bank;
        let rank = a as u32 & (self.ranks_per_channel - 1);
        a >>= w.rank;
        DramLocation { channel, rank, bank, row: a, col }
    }

    /// The decode for any geometry: peel each field off by division.
    fn decode_by_division(&self, paddr: u64) -> DramLocation {
        let mut a = paddr / self.line_bytes;
        let channel = (a % self.channels as u64) as u32;
        a /= self.channels as u64;
        let col = (a % self.cols_per_row as u64) as u32;
        a /= self.cols_per_row as u64;
        let bank = (a % self.banks_per_rank as u64) as u32;
        a /= self.banks_per_rank as u64;
        let rank = (a % self.ranks_per_channel as u64) as u32;
        a /= self.ranks_per_channel as u64;
        DramLocation { channel, rank, bank, row: a, col }
    }

    /// Re-encode DRAM coordinates into the (line-aligned) physical address —
    /// the OS-side "address mapping scheme" of Section 3.2.1 used to turn a
    /// fault site back into an address.
    pub fn encode(&self, loc: &DramLocation) -> u64 {
        let mut a = loc.row;
        a = a * self.ranks_per_channel as u64 + loc.rank as u64;
        a = a * self.banks_per_rank as u64 + loc.bank as u64;
        a = a * self.cols_per_row as u64 + loc.col as u64;
        a = a * self.channels as u64 + loc.channel as u64;
        a * self.line_bytes
    }
}

/// Row-buffer outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// Open row matched.
    Hit,
    /// Bank idle; row opened fresh.
    Closed,
    /// Different row open; precharge + activate.
    Conflict,
}

/// Result of servicing one access, in nanoseconds: what the public
/// [`Dram::access`] / [`Dram::access_kind`] adapter hands back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceResult {
    /// Absolute completion time (ns).
    pub completion_ns: f64,
    /// Queueing delay before the command could start (ns).
    pub queue_ns: f64,
    /// Row-buffer outcome.
    pub row: RowOutcome,
}

/// Result of [`Dram::service`], in core cycles.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Serviced {
    /// Absolute completion time.
    pub(crate) completion: u64,
    /// Queueing delay before the command could start.
    pub(crate) queue: u64,
    /// Row-buffer outcome.
    pub(crate) row: RowOutcome,
}

/// Aggregated DRAM statistics and energy. Plain numbers throughout, and
/// `Copy` on purpose: the sampled replay snapshots it once per phase,
/// which must not cost an allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramStats {
    /// Read accesses serviced.
    pub reads: u64,
    /// Write accesses serviced (incl. write-backs).
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row activations (closed + conflict).
    pub activations: u64,
    /// Dynamic energy consumed (nJ).
    pub dynamic_nj: f64,
    /// Accesses per scheme: [None, Secded, Chipkill].
    pub per_scheme: [u64; 3],
    /// Accesses delayed by a refresh blackout.
    pub refresh_stalls: u64,
    /// Total queueing delay across accesses (core cycles).
    pub queue_cycles: u64,
    /// Total service latency across accesses, queueing included (core
    /// cycles).
    pub latency_cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    /// The core cycle the bank is free from.
    free: u64,
}

/// What one request of a given [`AccessKind`] costs — everything about
/// it that is fixed once the configuration is, worked out in
/// [`Dram::new`].
#[derive(Debug, Clone, Copy)]
struct KindCosts {
    /// Service latency (core cycles) by [`RowOutcome`] (`Hit`, `Closed`,
    /// `Conflict`).
    latency: [u64; 3],
    /// Dynamic energy (nJ), `[write][row miss]`.
    nj: [[f64; 2]; 2],
    /// Slot in [`DramStats::per_scheme`].
    scheme_slot: usize,
    /// Whether the request lock-steps a channel pair (Chipkill).
    lockstep: bool,
}

/// Service latency (ns) of one `kind` request by [`RowOutcome`]. Lock-stepped
/// 144-bit transfers move 64 B in half the beats; fine-grained sub-ranked
/// transfers occupy a quarter of the channel's width-time; the ECC
/// pipeline adds its decode latency.
pub(crate) fn latency_ns(kind: AccessKind, cfg: &SystemConfig) -> [f64; 3] {
    let t = cfg.timing;
    let (burst_ns, scheme) = match kind {
        AccessKind::Scheme(EccScheme::Chipkill) => (t.burst_ns() / 2.0, EccScheme::Chipkill),
        AccessKind::Scheme(s) => (t.burst_ns(), s),
        AccessKind::FineSecded => (t.burst_ns() / 4.0, EccScheme::Secded),
    };
    let decode_cycles = scheme.decode_latency_cycles();
    [t.hit_ns(), t.closed_ns(), t.conflict_ns()]
        .map(|array_ns| array_ns - t.burst_ns() + burst_ns + decode_cycles as f64 * t.tck_ns)
}

impl KindCosts {
    fn new(kind: AccessKind, cfg: &SystemConfig) -> KindCosts {
        let latency = latency_ns(kind, cfg).map(|ns| whole_cycles_of(ns, cfg));
        let scheme = match kind {
            AccessKind::Scheme(s) => s,
            AccessKind::FineSecded => EccScheme::Secded,
        };
        // Energy: per-chip coefficients x chips the request makes busy,
        // summed in the per-request model's order.
        let e = cfg.energy;
        let chips = kind.chips(cfg);
        let nj = [e.read_nj_per_chip, e.write_nj_per_chip].map(|burst_nj_per_chip| {
            [false, true].map(|row_miss| {
                let mut nj = burst_nj_per_chip * chips;
                if row_miss {
                    nj += e.act_nj_per_chip * chips;
                }
                nj += scheme.correction_energy_pj() / 1000.0;
                nj
            })
        });
        KindCosts {
            latency,
            nj,
            scheme_slot: scheme_index(scheme),
            lockstep: kind == AccessKind::Scheme(EccScheme::Chipkill),
        }
    }
}

/// `ns` in core cycles of a config [`SystemConfig::validate`] accepted,
/// which makes every DRAM timing a whole number of them.
fn whole_cycles_of(ns: f64, cfg: &SystemConfig) -> u64 {
    whole_cycles(ns, cfg.clock_ghz).unwrap_or_else(|| unreachable!("validate() refuses {ns} ns"))
}

/// The memory device array. It keeps time in whole core cycles: every
/// instant, busy time and queueing total below is a count of them.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: SystemConfig,
    map: AddressMap,
    /// Per-kind request costs, by [`AccessKind::index`].
    costs: [KindCosts; 4],
    /// Open-page policy: a serviced row stays open.
    keep_open: bool,
    ranks_per_chan: usize,
    banks_per_rank: usize,
    /// `[channel][rank][bank]`, flattened.
    banks: Vec<BankState>,
    /// The core cycle each channel is free from.
    channel_free: Vec<u64>,
    /// tREFI and tRFC.
    refresh_interval: u64,
    refresh_blackout: u64,
    /// `[lo, hi)`: start times the last refresh check that found no
    /// stall proved refresh-free (see [`Dram::past_refresh`]). Empty until
    /// the first such check.
    refresh_free: (u64, u64),
    /// Accumulated busy time per rank (`[channel][rank]`, flattened):
    /// while a rank is idle its CKE is dropped and it sits in precharge
    /// power-down, the DRAMSim2 behaviour the standby model follows.
    rank_busy: Vec<u64>,
    /// Statistics.
    pub stats: DramStats,
}

fn scheme_index(s: EccScheme) -> usize {
    match s {
        EccScheme::None => 0,
        EccScheme::Secded => 1,
        EccScheme::Chipkill => 2,
    }
}

impl Dram {
    /// Build the device array. Panics on a configuration
    /// [`SystemConfig::validate`] refuses — among them one whose DRAM
    /// timings are not whole core cycles.
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.assert_valid();
        let map = AddressMap::new(&cfg);
        let ranks_per_chan = cfg.dimms_per_channel * cfg.ranks_per_dimm;
        let nranks = cfg.channels * ranks_per_chan;
        Dram {
            map,
            costs: AccessKind::ALL.map(|kind| KindCosts::new(kind, &cfg)),
            keep_open: cfg.row_policy == crate::config::RowPolicy::Open,
            ranks_per_chan,
            banks_per_rank: cfg.banks_per_rank,
            banks: vec![BankState { open_row: None, free: 0 }; nranks * cfg.banks_per_rank],
            channel_free: vec![0; cfg.channels],
            refresh_interval: whole_cycles_of(cfg.timing.t_refi_ns, &cfg),
            refresh_blackout: whole_cycles_of(cfg.timing.t_rfc_ns, &cfg),
            refresh_free: (0, 0),
            rank_busy: vec![0; nranks],
            stats: DramStats::default(),
            cfg,
        }
    }

    /// Service one 64-byte access under `scheme`, arriving at `start_ns`
    /// (see [`Dram::access_kind`]).
    pub fn access(
        &mut self,
        start_ns: f64,
        paddr: u64,
        write: bool,
        scheme: EccScheme,
    ) -> ServiceResult {
        self.access_kind(start_ns, paddr, write, AccessKind::Scheme(scheme))
    }

    /// Service one request of the given kind, arriving at `start_ns`. The
    /// device keeps time in core cycles, and this is its nanosecond face:
    /// an arrival between two edges of the core clock is taken at the next
    /// edge, and the queueing delay is counted from there. Panics on an
    /// arrival that is NaN, negative, infinite or 2^53 cycles away.
    pub fn access_kind(
        &mut self,
        start_ns: f64,
        paddr: u64,
        write: bool,
        kind: AccessKind,
    ) -> ServiceResult {
        let start = (start_ns * self.cfg.clock_ghz).ceil();
        assert!(
            start_ns >= 0.0 && start <= (1u64 << 53) as f64,
            "arrival at {start_ns} ns is not an instant of the next 2^53 core cycles"
        );
        let start = start as u64;
        let s = self.service(start, self.map.decode(paddr), write, kind);
        let ns = |cycles: u64| cycles as f64 * self.cfg.cycle_ns();
        ServiceResult { completion_ns: ns(s.completion), queue_ns: ns(s.queue), row: s.row }
    }

    /// Service a request arriving at core cycle `start` to a line whose
    /// coordinates are already decoded. Where the line lives depends on
    /// the geometry alone, how it is serviced on this device's state: a
    /// row replay ([`crate::system::Machine::simulate_lanes`]) decodes each
    /// line once and services it on every lane's `Dram`.
    ///
    /// `#[inline(always)]` is measured, not habit (DESIGN.md §3.13): as an
    /// outlined call, or left to the compiler's own choice, a one-lane
    /// replay merely matched the per-cell loop it replaced and six lanes
    /// ran 0.80x; inlined into the lane loop, one lane ran 0.91x and six
    /// lanes 0.62x.
    #[inline(always)]
    pub(crate) fn service(
        &mut self,
        start: u64,
        loc: DramLocation,
        write: bool,
        kind: AccessKind,
    ) -> Serviced {
        let costs = self.costs[kind.index()];
        // Chipkill locks a channel pair; the partner channel services the
        // same bank coordinates.
        let lockstep = costs.lockstep;
        let c0 = if lockstep { loc.channel & !1 } else { loc.channel } as usize;
        let c1 = c0 + 1;

        // Earliest start: all involved channels and banks free, and not
        // inside the rank's periodic refresh window (tREFI cadence, tRFC
        // blackout — the rank is unavailable while refreshing).
        let mut avail = start.max(self.channel_free[c0]);
        if lockstep {
            avail = avail.max(self.channel_free[c1]);
        }
        avail = self.past_refresh(avail);
        let rank0 = c0 * self.ranks_per_chan + loc.rank as usize;
        let rank1 = rank0 + self.ranks_per_chan;
        let bi0 = rank0 * self.banks_per_rank + loc.bank as usize;
        let bi1 = rank1 * self.banks_per_rank + loc.bank as usize;
        avail = avail.max(self.banks[bi0].free);
        if lockstep {
            avail = avail.max(self.banks[bi1].free);
        }
        let queue = avail - start;

        // Row-buffer outcome (the lock-stepped banks track identical state).
        let row = match self.banks[bi0].open_row {
            Some(r) if r == loc.row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Closed,
        };
        let busy = costs.latency[row as usize];
        let completion = avail + busy;

        // Occupancy: the channel(s) carry the burst; the bank is busy until
        // the access completes (open-page: row stays open); the rank is
        // busy for the service, not the wait (the standby model).
        let bank = BankState {
            open_row: if self.keep_open { Some(loc.row) } else { None },
            free: completion,
        };
        self.channel_free[c0] = completion;
        self.banks[bi0] = bank;
        self.rank_busy[rank0] += busy;
        if lockstep {
            self.channel_free[c1] = completion;
            self.banks[bi1] = bank;
            self.rank_busy[rank1] += busy;
        }

        let row_miss = row != RowOutcome::Hit;
        self.stats.activations += row_miss as u64;
        self.stats.row_hits += !row_miss as u64;
        self.stats.per_scheme[costs.scheme_slot] += 1;
        self.stats.dynamic_nj += costs.nj[write as usize][row_miss as usize];
        self.stats.writes += write as u64;
        self.stats.reads += !write as u64;
        self.stats.queue_cycles += queue;
        self.stats.latency_cycles += completion - start;

        self.audit_counts();
        Serviced { completion, queue, row }
    }

    /// Push a start time out of the refresh blackout it falls in, if any.
    ///
    /// `avail % tREFI` decides, and is the only thing that does. A check
    /// that finds phase `p >= tRFC` also proves every start in `[avail,
    /// avail + (tREFI - p))` refresh-free, since those starts have phases
    /// in `[p, tREFI)`; the interval is remembered and the `%` skipped
    /// while starts stay inside it. In whole cycles that is exact, with
    /// nothing to round.
    #[inline]
    fn past_refresh(&mut self, avail: u64) -> u64 {
        let (lo, hi) = self.refresh_free;
        if lo <= avail && avail < hi {
            return avail;
        }
        let phase = avail % self.refresh_interval;
        if phase < self.refresh_blackout {
            self.stats.refresh_stalls += 1;
            return avail + (self.refresh_blackout - phase);
        }
        self.refresh_free = (avail, avail + (self.refresh_interval - phase));
        avail
    }

    /// Debug builds: the counters' identities after an access — each is
    /// exactly one of a row hit or an activation, of one scheme, and the
    /// energy stays finite and non-negative (DESIGN.md §3.12). O(1), so
    /// it runs on every [`Dram::service`].
    fn audit_counts(&self) {
        let accesses = self.stats.reads + self.stats.writes;
        debug_assert!(
            self.stats.row_hits + self.stats.activations == accesses,
            "every access is exactly one of row-hit or activation: {} + {} != {}",
            self.stats.row_hits,
            self.stats.activations,
            accesses
        );
        debug_assert!(
            self.stats.per_scheme.iter().sum::<u64>() == accesses,
            "per-scheme access counts must sum to reads + writes"
        );
        debug_assert!(
            self.stats.dynamic_nj.is_finite() && self.stats.dynamic_nj >= 0.0,
            "dynamic energy must be finite and non-negative"
        );
    }

    /// Debug builds: the device state a replay leaves — no row open under
    /// the closed-page policy (DESIGN.md §3.12). A scan of every bank, so
    /// it runs once per lane, when the lane's stats are assembled, not per
    /// access: per access it made the debug suites four times slower.
    pub(crate) fn audit_state(&self) {
        if self.cfg.row_policy == crate::config::RowPolicy::Closed {
            debug_assert!(
                self.banks.iter().all(|b| b.open_row.is_none()),
                "closed-page policy left a row open"
            );
        }
    }

    /// Standby (background) energy (nJ) for a wall-clock interval, from
    /// this device's own rank busy times.
    ///
    /// Idle ranks drop CKE and sit in precharge power-down (as DRAMSim2
    /// models); each rank draws full standby power only for the fraction of
    /// time it was actually busy. ECC chips follow their rank when any ECC
    /// is configured; under whole-node No-ECC they are parked in power-down
    /// for the entire run (the "8 bits disabled" of Section 3.1).
    pub fn standby_nj(&self, elapsed_ns: f64, ecc_chips_powered: bool) -> f64 {
        let busy = self.rank_busy.iter().map(|&cycles| cycles as f64);
        standby_nj(&self.cfg, busy, elapsed_ns, ecc_chips_powered)
    }

    /// Crate-internal: the per-rank busy-time track (core cycles),
    /// borrowed. The sampled replay
    /// ([`crate::system::Machine::simulate`]) snapshots it around each
    /// phase so busy time can be weight-scaled exactly like the
    /// [`DramStats`] deltas — [`standby_nj`] divides it by the *scaled*
    /// wall time, so leaving it unscaled would park mostly-idle ranks in
    /// power-down and bias the standby account low. Callers that need a
    /// copy take one into a reused buffer; the accessor itself must not
    /// allocate.
    pub(crate) fn rank_busy(&self) -> &[u64] {
        &self.rank_busy
    }
}

/// Standby (background) energy (nJ) of a node of `cfg` over `elapsed_ns`,
/// its ranks busy for `rank_busy` core cycles each (the model of
/// [`Dram::standby_nj`]).
pub(crate) fn standby_nj(
    cfg: &SystemConfig,
    rank_busy: impl IntoIterator<Item = f64>,
    elapsed_ns: f64,
    ecc_chips_powered: bool,
) -> f64 {
    if elapsed_ns <= 0.0 {
        return 0.0;
    }
    let e = cfg.energy;
    let data_chips = cfg.device_width.data_chips_per_rank() as f64;
    let ecc_chips = cfg.device_width.ecc_chips_per_rank() as f64;
    let mut mw = 0.0;
    for busy in rank_busy {
        let frac = (busy * cfg.cycle_ns() / elapsed_ns).clamp(0.0, 1.0);
        let per_chip =
            e.powerdown_mw_per_chip + (e.standby_mw_per_chip - e.powerdown_mw_per_chip) * frac;
        mw += data_chips * per_chip;
        mw += ecc_chips * if ecc_chips_powered { per_chip } else { e.powerdown_mw_per_chip };
    }
    // mW * ns = pJ; convert to nJ.
    mw * elapsed_ns / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceWidth, DramTiming};
    use proptest::prelude::*;

    fn cfg() -> SystemConfig {
        SystemConfig::default()
    }

    /// Table 3, a small power-of-two node, and two nodes whose channel or
    /// rank counts are not powers of two (the division decode's cases).
    fn geometry(which: usize) -> SystemConfig {
        let node = cfg();
        match which {
            0 => node,
            1 => SystemConfig { channels: 2, dimms_per_channel: 1, ranks_per_dimm: 1, ..node },
            2 => SystemConfig { channels: 6, dimms_per_channel: 3, ..node },
            _ => SystemConfig { dimms_per_channel: 3, banks_per_rank: 6, ..node },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn shift_decode_matches_division_and_round_trips(which in 0usize..4, line: u64) {
            let cfg = geometry(which);
            cfg.validate().unwrap();
            let map = AddressMap::new(&cfg);
            prop_assert_eq!(map.widths.is_some(), which < 2);
            // Any address decodes alike; line-aligned ones below the
            // encoder's 64-bit reach also come back.
            prop_assert_eq!(map.decode(line), map.decode_by_division(line));
            let paddr = (line >> 8) * cfg.l2.line_bytes as u64;
            let loc = map.decode(paddr);
            prop_assert_eq!(loc, map.decode_by_division(paddr));
            prop_assert_eq!(map.encode(&loc), paddr);
        }
    }

    #[test]
    fn refresh_free_window_never_hides_a_stall() {
        // Every start cycle across four refresh periods of 15,625 cycles
        // (7812.5 ns at 2 GHz): the window must give way to `%` at each
        // blackout, and answer as `%` does everywhere else.
        let timing = DramTiming { t_refi_ns: 7812.5, ..DramTiming::default() };
        let mut d = Dram::new(SystemConfig { timing, ..cfg() });
        let (t_refi, t_rfc) = (15_625, 220);
        assert_eq!((d.refresh_interval, d.refresh_blackout), (t_refi, t_rfc));
        let mut stalls = 0u64;
        for avail in 0..4 * t_refi + 1000 {
            let stalled = avail % t_refi < t_rfc;
            stalls += stalled as u64;
            assert_eq!(d.past_refresh(avail) != avail, stalled, "start {avail}");
        }
        assert_eq!((stalls, d.stats.refresh_stalls), (5 * t_rfc, 5 * t_rfc));
    }

    #[test]
    fn the_ns_adapter_refuses_an_arrival_that_is_not_an_instant() {
        for bad in [f64::NAN, -0.1, -1.0, f64::NEG_INFINITY, f64::INFINITY, 1e300] {
            let refused = std::panic::catch_unwind(|| {
                Dram::new(cfg()).access(bad, 0, false, EccScheme::None);
            });
            let why =
                *refused.expect_err("a bad arrival was serviced").downcast::<String>().unwrap();
            assert!(why.contains(&format!("arrival at {bad} ns")), "{bad}: {why}");
        }
    }

    #[test]
    fn an_arrival_between_clock_edges_is_taken_at_the_next_edge() {
        // 2 GHz: edges every 0.5 ns. 1000.1 and 1000.5 ns are one arrival,
        // serviced and queued alike, and 1000.0 ns one edge earlier.
        let serve = |start_ns| Dram::new(cfg()).access(start_ns, 0, false, EccScheme::None);
        let (between, edge, earlier) = (serve(1000.1), serve(1000.5), serve(1000.0));
        assert_eq!(between, edge);
        assert_eq!(edge.completion_ns - earlier.completion_ns, 0.5);
        // Queued behind a busy bank, the wait counts from the edge.
        let mut d = Dram::new(cfg());
        let first = d.access(1000.0, 0, false, EccScheme::None);
        let queued = d.access(1000.1, 256, false, EccScheme::None);
        assert_eq!(queued.queue_ns, first.completion_ns - 1000.5);
    }

    #[test]
    fn consecutive_lines_rotate_channels() {
        let m = AddressMap::new(&cfg());
        let c: Vec<u32> = (0..8).map(|i| m.decode(i * 64).channel).collect();
        assert_eq!(c, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Lines 0 and 4 share channel 0 and are adjacent columns of one row.
        let a = m.decode(0);
        let b = m.decode(256);
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.row, b.row);
        assert_eq!(b.col, a.col + 1);
    }

    #[test]
    fn x8_devices_scale_chipkill_energy() {
        let x8 = SystemConfig { device_width: DeviceWidth::X8, ..cfg() };
        let mut d = Dram::new(x8.clone());
        for i in 0..64u64 {
            d.access(i as f64 * 1000.0, i * 64, false, EccScheme::None);
        }
        let none_nj = d.stats.dynamic_nj;
        let mut d = Dram::new(x8);
        for i in 0..64u64 {
            d.access(i as f64 * 1000.0, i * 64, false, EccScheme::Chipkill);
        }
        let ratio = d.stats.dynamic_nj / none_nj;
        assert!((ratio - 19.0 / 8.0).abs() < 0.05, "x8 chipkill ratio {ratio}");
    }
}
