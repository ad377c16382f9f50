//! The reference machine: the node modelled once more, naively, from the
//! public API alone.
//!
//! It shares no line with the model it judges. Its caches are stamp-LRU
//! arrays behind a thread clock that divides and carries on every bump; its
//! controller scans the ranges an `EccAssignment` programs; its device
//! serves one request at a time, maps addresses by a division chain, keeps
//! per-bank open rows and per-channel bus time, pauses for refresh, and
//! prices a request from its own Section 2.2 chip table. It reads
//! `SystemConfig`'s fields, the `abft_ecc` scheme constants and the trace
//! types, nothing of the model: a mutant of the cache, the miss-record
//! codec, the replay step or the DRAM model has to fool code written apart
//! from it.
//!
//! Two builds compile this file. `tests/reference_machine.rs` holds the
//! whole `Machine` and the DRAM device to it; there only the public API is
//! in reach, so the file cannot lean on a private helper. The crate's own
//! unit tests include it too (`src/lib.rs`, under `cfg(test)`), where the
//! walker, `Cache::access`, the miss-record decoder and the lanes of a row
//! are each held to the part of it that judges them.

use abft_ecc::EccScheme;
use abft_memsim::config::{CacheConfig, DeviceWidth, DramTiming, RowPolicy};
use abft_memsim::dram::{AccessKind, RowOutcome};
use abft_memsim::stream::RunChunk;
use abft_memsim::{
    Access, AccessSource, EccAssignment, MissEvent, MissEventKind, MissStream, PhaseSample,
    RegionId, RegionMap, SimInput, SimPointSelection, SystemConfig, Trace,
};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A write-back cache: a way is found by scanning the set's tags, and the
/// victim is its first empty way, else its oldest stamp.
pub(crate) struct StampCache {
    cfg: CacheConfig,
    tags: Vec<Option<u64>>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    clock: u64,
}

impl StampCache {
    pub(crate) fn new(cfg: CacheConfig) -> StampCache {
        let n = cfg.capacity / cfg.line_bytes;
        StampCache { cfg, tags: vec![None; n], stamps: vec![0; n], dirty: vec![false; n], clock: 0 }
    }

    /// `None` on a hit; on a miss, the dirty line it evicted, if any.
    pub(crate) fn access(&mut self, addr: u64, write: bool) -> Option<Option<u64>> {
        self.clock += 1;
        let (line, ways) = (addr / self.cfg.line_bytes as u64, self.cfg.ways);
        let first = (line % (self.tags.len() / ways) as u64) as usize * ways;
        let set = first..first + ways;
        if let Some(w) = set.clone().find(|&w| self.tags[w] == Some(line)) {
            (self.stamps[w], self.dirty[w]) = (self.clock, self.dirty[w] || write);
            return None;
        }
        let w = set.min_by_key(|&w| (self.tags[w].is_some(), self.stamps[w])).unwrap_or(first);
        let victim = self.tags[w].filter(|_| self.dirty[w]).map(|l| l * self.cfg.line_bytes as u64);
        (self.tags[w], self.stamps[w], self.dirty[w]) = (Some(line), self.clock, write);
        Some(victim)
    }
}

/// What a trace does to the caches, whatever the memory does.
pub(crate) struct Walk {
    pub(crate) events: Vec<MissEvent>,
    pub(crate) instructions: u64,
    pub(crate) core_cycles: u64,
    /// Hits and misses.
    pub(crate) l1: [u64; 2],
    pub(crate) l2: [u64; 2],
    /// Per region: references, L1 misses, L2 misses.
    pub(crate) tallies: Vec<[u64; 3]>,
}

/// The trace through L1 and L2 access by access. `threads` in-order
/// threads share the core: a thread cycle is `1 / threads` core cycles,
/// the remainder carried to the next bump.
pub(crate) fn walk(t: &Trace, l1c: CacheConfig, l2c: CacheConfig, threads: u64) -> Walk {
    let (mut l1, mut l2) = (StampCache::new(l1c), StampCache::new(l2c));
    let tallies = vec![[0; 3]; t.regions.regions().len()];
    let mut w =
        Walk { events: vec![], instructions: 0, core_cycles: 0, l1: [0; 2], l2: [0; 2], tallies };
    let mut carry = 0;
    let mut bump = |cycles: &mut u64, by: u64| {
        *cycles += (by + carry) / threads;
        carry = (by + carry) % threads;
    };
    for &a in &t.accesses {
        w.instructions += a.work as u64 + 1;
        bump(&mut w.core_cycles, a.work as u64);
        let tally = &mut w.tallies[a.region as usize];
        tally[0] += 1;
        let Some(l1_victim) = l1.access(a.addr, a.write) else {
            w.l1[0] += 1;
            bump(&mut w.core_cycles, l1c.latency_cycles);
            continue;
        };
        (w.l1[1], tally[1]) = (w.l1[1] + 1, tally[1] + 1);
        let at = w.core_cycles;
        let event = |kind| MissEvent { trigger: a, core_cycles: at, kind };
        if let Some(Some(wb)) = l1_victim.and_then(|line| l2.access(line, true)) {
            w.events.push(event(MissEventKind::Writeback(wb)));
        }
        match l2.access(a.addr, a.write) {
            None => w.l2[0] += 1,
            Some(writeback) => {
                (w.l2[1], tally[2]) = (w.l2[1] + 1, tally[2] + 1);
                w.events.push(event(MissEventKind::Demand { writeback }));
            }
        }
        bump(&mut w.core_cycles, l2c.latency_cycles);
    }
    w
}

/// The scheme the range registers `assign` programs give `paddr`.
pub(crate) fn scheme_of(regions: &RegionMap, assign: &EccAssignment, paddr: u64) -> EccScheme {
    let hit = assign.overrides.iter().find(|&&(id, _)| {
        let r = regions.get(id);
        r.base <= paddr && paddr < r.base + r.bytes
    });
    hit.map_or(assign.default_scheme, |&(_, scheme)| scheme)
}

/// Section 2.2, for x4 and x8 devices: the chips a No-ECC, SECDED,
/// chipkill and fine-grained SECDED request makes busy, then a rank's data
/// and ECC chips.
const CHIPS: [[f64; 6]; 2] = [[16.0, 18.0, 36.0, 5.0, 16.0, 2.0], [8.0, 9.0, 19.0, 3.0, 8.0, 1.0]];

fn chips(cfg: &SystemConfig, i: usize) -> f64 {
    CHIPS[(cfg.device_width == DeviceWidth::X8) as usize][i]
}

/// `ns` in core cycles, which must be whole.
pub(crate) fn whole(ns: f64, clock_ghz: f64) -> u64 {
    let cycles = ns * clock_ghz;
    assert_eq!(cycles.fract(), 0.0, "{ns} ns is not whole cycles at {clock_ghz} GHz");
    cycles as u64
}

/// What the proptests require the draws to have met.
#[derive(Debug, Default)]
pub(crate) struct Seen {
    pub(crate) kinds: [bool; 4],
    pub(crate) lockstep: bool,
    pub(crate) refresh_stall: bool,
    pub(crate) conflict: bool,
    pub(crate) closed_page: bool,
    pub(crate) queued_writeback: bool,
}

/// The device's counters: reads, writes, row hits, activations, No-ECC,
/// SECDED and chipkill requests, refresh stalls, queueing and latency
/// cycles; dynamic energy (nJ); each rank's busy cycles.
#[derive(Clone)]
pub(crate) struct Counts(pub(crate) [u64; 10], pub(crate) f64, pub(crate) Vec<u64>);

/// The DDR3 device, one request at a time, in core cycles.
pub(crate) struct Device {
    cfg: SystemConfig,
    ranks: u64,
    open: Vec<Option<u64>>,
    bank_free: Vec<u64>,
    channel_free: Vec<u64>,
    pub(crate) c: Counts,
}

impl Device {
    pub(crate) fn new(cfg: &SystemConfig) -> Device {
        let ranks = (cfg.dimms_per_channel * cfg.ranks_per_dimm) as u64;
        let banks = cfg.channels * ranks as usize * cfg.banks_per_rank;
        Device {
            cfg: cfg.clone(),
            ranks,
            open: vec![None; banks],
            bank_free: vec![0; banks],
            channel_free: vec![0; cfg.channels],
            c: Counts([0; 10], 0.0, vec![0; cfg.channels * ranks as usize]),
        }
    }

    /// Serve a request arriving at core cycle `start`: its completion,
    /// queueing and row outcome.
    pub(crate) fn serve(
        &mut self,
        start: u64,
        paddr: u64,
        write: bool,
        kind: AccessKind,
        seen: &mut Seen,
    ) -> (u64, u64, RowOutcome) {
        let (cfg, c) = (&self.cfg, &mut self.c);
        let t = cfg.timing;
        let mut a = paddr / cfg.l2.line_bytes as u64;
        let mut field = |n: usize| {
            let f = a % n as u64;
            a /= n as u64;
            f
        };
        let channel = field(cfg.channels);
        field(cfg.row_bytes / cfg.l2.line_bytes);
        let (bank, rank) = (field(cfg.banks_per_rank), field(self.ranks as usize));
        let row = a;
        let (slot, k, share) = match kind {
            AccessKind::Scheme(EccScheme::None) => (0, 0, 1),
            AccessKind::Scheme(EccScheme::Secded) => (1, 1, 1),
            AccessKind::Scheme(EccScheme::Chipkill) => (2, 2, 2),
            AccessKind::FineSecded => (1, 3, 4),
        };
        let scheme = [EccScheme::None, EccScheme::Secded, EccScheme::Chipkill][slot];
        // A chipkill request holds its channel's pair, the same bank of each.
        let (first, pair) = if slot == 2 { (channel / 2 * 2, 2) } else { (channel, 1) };
        let (ranks, banks_per_rank) = (self.ranks, cfg.banks_per_rank as u64);
        let rank_of = |ch: u64| (ch * ranks + rank) as usize;
        let bank_of = |ch: u64| (rank_of(ch) as u64 * banks_per_rank + bank) as usize;
        let channels = first..first + pair;

        let mut at = channels.clone().fold(start, |at, ch| at.max(self.channel_free[ch as usize]));
        let (refi, rfc) = (whole(t.t_refi_ns, cfg.clock_ghz), whole(t.t_rfc_ns, cfg.clock_ghz));
        if at % refi < rfc {
            (at, c.0[7]) = (at + rfc - at % refi, c.0[7] + 1);
        }
        at = channels.clone().fold(at, |at, ch| at.max(self.bank_free[bank_of(ch)]));
        let (outcome, array) = match self.open[bank_of(first)] {
            Some(r) if r == row => (RowOutcome::Hit, t.t_cl),
            Some(_) => (RowOutcome::Conflict, t.t_rp + t.t_rcd + t.t_cl),
            None => (RowOutcome::Closed, t.t_rcd + t.t_cl),
        };
        let tck = whole(t.tck_ns, cfg.clock_ghz);
        let burst = t.burst_beats * tck;
        assert_eq!(burst % (2 * share), 0, "a share of a burst off the core clock");
        let busy = (array + scheme.decode_latency_cycles()) * tck + burst / (2 * share);
        let done = at + busy;
        let keep = (cfg.row_policy == RowPolicy::Open).then_some(row);
        for ch in channels {
            self.channel_free[ch as usize] = done;
            (self.open[bank_of(ch)], self.bank_free[bank_of(ch)]) = (keep, done);
            c.2[rank_of(ch)] += busy;
        }

        let (e, n, hit) = (cfg.energy, chips(cfg, k), outcome == RowOutcome::Hit);
        let mut nj = if write { e.write_nj_per_chip } else { e.read_nj_per_chip } * n;
        if !hit {
            nj += e.act_nj_per_chip * n;
        }
        c.1 += nj + scheme.correction_energy_pj() / 1000.0;
        for i in [write as usize, 2 + !hit as usize, 4 + slot] {
            c.0[i] += 1;
        }
        (c.0[8], c.0[9]) = (c.0[8] + at - start, c.0[9] + done - start);

        seen.kinds[k] = true;
        seen.lockstep |= slot == 2;
        seen.refresh_stall |= c.0[7] > 0;
        seen.conflict |= outcome == RowOutcome::Conflict;
        seen.closed_page |= keep.is_none();
        (done, at - start, outcome)
    }
}

/// Background energy (nJ) over `elapsed_ns` of ranks busy `busy` cycles
/// each: standby power for the busy share, power-down for the rest, and
/// the ECC chips parked in power-down unless powered.
pub(crate) fn standby_nj(
    cfg: &SystemConfig,
    busy: &[f64],
    elapsed_ns: f64,
    ecc_powered: bool,
) -> f64 {
    if elapsed_ns <= 0.0 {
        return 0.0;
    }
    let (e, mut mw) = (cfg.energy, 0.0);
    for &b in busy {
        let share = (b * (1.0 / cfg.clock_ghz) / elapsed_ns).clamp(0.0, 1.0);
        let chip =
            e.powerdown_mw_per_chip + (e.standby_mw_per_chip - e.powerdown_mw_per_chip) * share;
        mw += chips(cfg, 4) * chip;
        mw += chips(cfg, 5) * if ecc_powered { chip } else { e.powerdown_mw_per_chip };
    }
    mw * elapsed_ns / 1000.0
}

// Field for field the printed form of `abft_memsim::SimStats`.
#[derive(Debug)]
#[expect(dead_code, reason = "read through `Debug` alone, against the machine's `SimStats`")]
struct SimStats {
    instructions: u64,
    cycles: u64,
    seconds: f64,
    ipc: f64,
    mem_dynamic_j: f64,
    mem_standby_j: f64,
    proc_j: f64,
    l1_hit_rate: f64,
    l2_hit_rate: f64,
    row_hit_rate: f64,
    dram_reads: u64,
    dram_writes: u64,
    per_scheme: [u64; 3],
    avg_dram_latency_ns: f64,
    avg_dram_queue_ns: f64,
    dram_bandwidth_gbps: f64,
    regions: Vec<RegionStats>,
}

#[derive(Debug)]
#[expect(dead_code, reason = "read through `Debug` alone, against the machine's `RegionStats`")]
struct RegionStats {
    name: String,
    abft_protected: bool,
    abft_detectable: bool,
    refs: u64,
    l1_misses: u64,
    llc_misses: u64,
}

/// The node replaying a walk's events under one policy: `phases` are
/// `[start, end)` event ranges, each scaled by its factor (one phase of
/// every event at 1 for an exact replay). Its `SimStats`, printed.
pub(crate) fn simulate(
    cfg: &SystemConfig,
    regions: &RegionMap,
    w: &Walk,
    phases: &[(u64, u64, f64)],
    policy: &mut dyn FnMut(u64) -> AccessKind,
    ecc_powered: bool,
    seen: &mut Seen,
) -> String {
    let mut dev = Device::new(cfg);
    let mut stalls = 0u64;
    // The counters, the stall cycles and the energy, each phase scaled.
    let (mut sums, mut busy) = ([0.0f64; 12], vec![0.0f64; dev.c.2.len()]);
    for &(start, end, scale) in phases {
        let (before, stalls_before) = (dev.c.clone(), stalls);
        for ev in &w.events[start as usize..end as usize] {
            let now = ev.core_cycles + stalls;
            let writeback = match ev.kind {
                MissEventKind::Writeback(wb) => Some(wb),
                MissEventKind::Demand { writeback } => {
                    let kind = policy(ev.trigger.addr);
                    let (done, _, _) = dev.serve(now, ev.trigger.addr, false, kind, seen);
                    stalls += ((done - now) as f64 * cfg.stall_factor) as u64;
                    seen.queued_writeback |= writeback.is_some_and(|wb| {
                        let kind = policy(wb);
                        dev.serve(now, wb, true, kind, seen).1 > 0
                    });
                    None
                }
            };
            if let Some(wb) = writeback {
                let kind = policy(wb);
                dev.serve(now, wb, true, kind, seen);
            }
        }
        let (b, a) = (&before, &dev.c);
        for (i, sum) in sums.iter_mut().take(10).enumerate() {
            *sum += (a.0[i] - b.0[i]) as f64 * scale;
        }
        sums[10] += (stalls - stalls_before) as f64 * scale;
        sums[11] += (a.1 - b.1) * scale;
        for (sum, (x, y)) in busy.iter_mut().zip(a.2.iter().zip(&b.2)) {
            *sum += (x - y) as f64 * scale;
        }
    }

    let count = |v: f64| v.round() as u64;
    let cycles = w.core_cycles + count(sums[10]);
    let cycle_ns = 1.0 / cfg.clock_ghz;
    let elapsed_ns = cycles as f64 * cycle_ns;
    let seconds = elapsed_ns * 1e-9;
    let ipc = if cycles == 0 { 0.0 } else { w.instructions as f64 / cycles as f64 };
    let p = cfg.proc_power;
    let busy_share = (ipc / p.peak_ipc).clamp(0.0, 1.0);
    let watts = p.max_watts * (p.idle_fraction + (1.0 - p.idle_fraction) * busy_share);
    let (reads, writes) = (count(sums[0]), count(sums[1]));
    let requests = reads + writes;
    let per_request = |v: f64| if requests == 0 { 0.0 } else { v / requests as f64 };
    let rate = |[hits, misses]: [u64; 2]| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let tallies = regions.regions().iter().zip(&w.tallies);
    let stats = SimStats {
        instructions: w.instructions,
        cycles,
        seconds,
        ipc,
        mem_dynamic_j: sums[11] * 1e-9,
        mem_standby_j: standby_nj(cfg, &busy, elapsed_ns, ecc_powered) * 1e-9,
        proc_j: watts * seconds,
        l1_hit_rate: rate(w.l1),
        l2_hit_rate: rate(w.l2),
        row_hit_rate: per_request(count(sums[2]) as f64),
        dram_reads: reads,
        dram_writes: writes,
        per_scheme: [count(sums[4]), count(sums[5]), count(sums[6])],
        avg_dram_latency_ns: per_request(sums[9] * cycle_ns),
        avg_dram_queue_ns: per_request(sums[8] * cycle_ns),
        dram_bandwidth_gbps: if elapsed_ns > 0.0 {
            (requests * 64) as f64 / elapsed_ns
        } else {
            0.0
        },
        regions: tallies
            .map(|(r, &[refs, l1_misses, llc_misses])| RegionStats {
                name: r.name.clone(),
                abft_protected: r.abft_protected,
                abft_detectable: r.abft_detectable,
                refs,
                l1_misses,
                llc_misses,
            })
            .collect(),
    };
    format!("{stats:?}")
}

/// A source that knows no totals: over a trace it pulls one access at a
/// time, over a packed replay it hands out the replay's whole runs.
pub(crate) struct Unhinted<S>(pub(crate) S);

impl<S: AccessSource> AccessSource for Unhinted<S> {
    fn regions(&self) -> &RegionMap {
        self.0.regions()
    }
    fn fill(&mut self, buf: &mut Vec<Access>, max: usize) -> usize {
        self.0.fill(buf, max)
    }
    fn fill_runs(&mut self, chunk: &mut RunChunk, max: usize) -> usize {
        self.0.fill_runs(chunk, max)
    }
    fn reset(&mut self) {
        self.0.reset()
    }
}

/// Four regions (the first two ABFT-protected), 2,500 accesses or more: hot
/// lines rewritten between scattered accesses (they stay in L1 while L2
/// ages them out, so an L1 victim later pushes a dirty line out of L2 on
/// its own), line-aligned sweeps (runs for the packed form), sub-line
/// offsets, and touches of a region's last line and of the byte past it.
pub(crate) fn hostile_trace(rng: &mut ChaCha8Rng) -> Trace {
    let mut rm = RegionMap::new();
    let ids: Vec<RegionId> = (0..4).map(|i| rm.alloc(&format!("r{i}"), 64 * 512, i < 2)).collect();
    let mut t = Trace::new(rm);
    while t.len() < 2500 {
        let r = ids[rng.random_range(0..4)];
        let (base, end) = (t.regions.get(r).base, t.regions.get(r).end());
        let (write, work, line) =
            (rng.random_bool(0.4), rng.random_range(0..6), rng.random_range(0..480));
        match rng.random_range(0..7) {
            0 | 1 => {
                for _ in 0..rng.random_range(20..60) {
                    t.push(base + line * 64, r, true, work);
                    for _ in 0..2 {
                        let r2 = ids[rng.random_range(0..4)];
                        let at = t.regions.get(r2).base + rng.random_range(0..480 * 64);
                        t.push(at, r2, rng.random_bool(0.7), 1);
                    }
                }
            }
            2 | 3 => (line..line + rng.random_range(2..40))
                .for_each(|l| t.push(base + l * 64, r, write, work)),
            4 => {
                t.push(end - 64 + rng.random_range(0..64), r, write, work);
                t.push(end, r, write, work);
            }
            _ => t.push(base + line * 64 + rng.random_range(0..64), r, write, work),
        }
    }
    t
}

/// (L1, L2) pairs: direct-mapped, 2-way, 4-way, 16-way and one fully
/// associative set, each small enough that the trace thrashes it. Below a
/// direct-mapped L1 no dirty line leaves L2 while L1 holds it.
pub(crate) fn caches(which: usize) -> (CacheConfig, CacheConfig) {
    let c = |sets: usize, ways, latency_cycles| CacheConfig {
        capacity: sets * ways * 64,
        ways,
        line_bytes: 64,
        latency_cycles,
    };
    [
        (c(8, 1, 1), c(32, 1, 9)),
        (c(4, 2, 1), c(16, 2, 7)),
        (c(4, 4, 2), c(16, 4, 20)),
        (c(2, 4, 1), c(4, 16, 13)),
        (c(1, 6, 3), c(1, 24, 11)),
    ][which]
}

/// A drawn node of shape 0 (Table 3's organization), 1 (a small one
/// whose banks see many rows) or 2 (channel, rank, bank and column counts
/// that are not powers of two), at a drawn clock, refresh interval, stall
/// factor and device width.
pub(crate) fn node(
    rng: &mut ChaCha8Rng,
    shape: usize,
    (l1, l2): (CacheConfig, CacheConfig),
    threads: usize,
) -> SystemConfig {
    let (clock_ghz, t_refi_ns) =
        [(2.0, 7800.0), (1.0, 7800.0), (4.0, 7812.5), (2.0, 1950.0)][rng.random_range(0..4)];
    let node = SystemConfig {
        l1,
        l2,
        threads,
        clock_ghz,
        timing: DramTiming { t_refi_ns, ..DramTiming::default() },
        stall_factor: [0.0, 0.35, 1.0][rng.random_range(0..3)],
        device_width: if rng.random_bool(0.5) { DeviceWidth::X8 } else { DeviceWidth::X4 },
        ..SystemConfig::default()
    };
    let (channels, dimms_per_channel, banks_per_rank, row_bytes) =
        [(4, 2, 8, 8192), (2, 1, 2, 1024), (6, 3, 3, 512)][shape];
    let ranks_per_dimm = if shape == 0 { 4 } else { 1 };
    SystemConfig { channels, dimms_per_channel, ranks_per_dimm, banks_per_rank, row_bytes, ..node }
}

/// `form` of what a replay can be handed.
pub(crate) fn input<'a>(
    form: &str,
    src: &'a mut dyn AccessSource,
    ms: &'a MissStream,
    selection: &'a SimPointSelection,
    sample: &'a PhaseSample,
) -> SimInput<'a> {
    match form {
        "miss stream" => SimInput::MissStream(ms),
        "sampled miss stream" => SimInput::SampledMissStream { stream: ms, selection },
        "sample" => SimInput::Sample(sample),
        _ => SimInput::Source(src),
    }
}
