//! Closed-form DRAM micro-traces: request streams whose row outcomes,
//! latencies and joules can be written down by hand from `DramTiming`,
//! `DramEnergy` and the chips each scheme makes busy — 16 x4 chips under
//! No-ECC, 18 under SECDED, 36 under chipkill (a lock-stepped channel
//! pair), 5 x4 or 3 x8 chips for a fine-grained SECDED access,
//! hard-coded here rather than read from the model's own table.
//! Every equivalence suite compares one path through `dram.rs` with
//! another; these compare it with arithmetic.

use abft_coop::abft_ecc::EccScheme;
use abft_coop::abft_memsim::config::{DeviceWidth, RowPolicy};
use abft_coop::abft_memsim::dram::{AccessKind, DramLocation, RowOutcome, ServiceResult};
use abft_coop::abft_memsim::{
    AddressMap, Dram, EccAssignment, Machine, RegionMap, SimRequest, SystemConfig, Trace,
};

/// Each scheme with the x4 chips one of its accesses busies.
const CHIPS: [(EccScheme, f64); 3] =
    [(EccScheme::None, 16.0), (EccScheme::Secded, 18.0), (EccScheme::Chipkill, 36.0)];

/// The x4 chips of a rank that hold data, and the ones that hold ECC.
const DATA_CHIPS: f64 = 16.0;
const ECC_CHIPS: f64 = 2.0;

/// Requests this far apart never queue behind each other, and starting
/// at `FIRST_NS` the first eight stay clear of the first refresh
/// blackout after time 0 (`t_rfc_ns` = 110 ns of every 7.8 us).
const FIRST_NS: f64 = 200.0;
const APART_NS: f64 = 100.0;

/// The address of `col` in `row` of bank 0, rank 0, channel `channel`.
fn addr(cfg: &SystemConfig, channel: u32, row: u64, col: u32) -> u64 {
    AddressMap::new(cfg).encode(&DramLocation { channel, rank: 0, bank: 0, row, col })
}

/// What a `scheme` access costs beyond its row outcome: the burst, halved
/// when a channel pair moves the line, and the ECC decode pipeline.
fn tail_ns(cfg: &SystemConfig, scheme: EccScheme) -> f64 {
    let t = cfg.timing;
    let burst = if scheme == EccScheme::Chipkill { t.burst_ns() / 2.0 } else { t.burst_ns() };
    burst + scheme.decode_latency_cycles() as f64 * t.tck_ns
}

/// `got` equals `want` up to the rounding of a sum taken in another order.
fn close(got: f64, want: f64, what: &str) {
    assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0), "{what}: {got} vs {want}");
}

/// Reads of `rows[k % rows.len()]` (column `k`) on channel 0, one every
/// `APART_NS`, and what each came back with.
fn reads(
    dram: &mut Dram,
    cfg: &SystemConfig,
    scheme: EccScheme,
    rows: &[u64],
    n: u32,
) -> Vec<ServiceResult> {
    (0..n)
        .map(|k| {
            let start = FIRST_NS + APART_NS * k as f64;
            let row = rows[k as usize % rows.len()];
            dram.access(start, addr(cfg, 0, row, k), false, scheme)
        })
        .collect()
}

#[test]
fn reads_of_one_open_row_activate_once_and_hit_after() {
    let cfg = SystemConfig::default();
    let (t, e) = (cfg.timing, cfg.energy);
    let n = 8;
    for (scheme, chips) in CHIPS {
        let mut dram = Dram::new(cfg.clone());
        let got = reads(&mut dram, &cfg, scheme, &[5], n);
        let s = dram.stats;
        assert_eq!((s.reads, s.activations, s.row_hits), (n as u64, 1, n as u64 - 1), "{scheme:?}");
        let outcomes: Vec<RowOutcome> = got.iter().map(|r| r.row).collect();
        assert_eq!(outcomes[0], RowOutcome::Closed, "{scheme:?}");
        assert!(outcomes[1..].iter().all(|&r| r == RowOutcome::Hit), "{scheme:?}: {outcomes:?}");
        let closed = (t.t_rcd + t.t_cl) as f64 * t.tck_ns + tail_ns(&cfg, scheme);
        let hit = t.t_cl as f64 * t.tck_ns + tail_ns(&cfg, scheme);
        for (k, r) in got.iter().enumerate() {
            let want = if k == 0 { closed } else { hit };
            close(r.completion_ns - (FIRST_NS + APART_NS * k as f64), want, "latency");
            assert_eq!(r.queue_ns, 0.0, "{scheme:?}: request {k} queued");
        }
        let correction_nj = scheme.correction_energy_pj() / 1000.0;
        let want =
            chips * (e.act_nj_per_chip + n as f64 * e.read_nj_per_chip) + n as f64 * correction_nj;
        close(s.dynamic_nj, want, &format!("{scheme:?} dynamic energy"));
    }
}

#[test]
fn a_chipkill_read_holds_its_partner_channel() {
    let cfg = SystemConfig::default();
    let t = cfg.timing;
    let closed = |scheme| (t.t_rcd + t.t_cl) as f64 * t.tck_ns + tail_ns(&cfg, scheme);
    // Bank 1 on channel 1, so that only the channel, not the bank, is shared.
    let other = AddressMap::new(&cfg).encode(&DramLocation {
        channel: 1,
        rank: 0,
        bank: 1,
        row: 9,
        col: 0,
    });
    for first in CHIPS.map(|(scheme, _)| scheme) {
        // The first request at FIRST_NS on channel 0, a No-ECC read of
        // channel 1 at the same instant: it waits for the channel pair only
        // when the first is a chipkill access. A read of channel 2 at that
        // instant, outside the pair, never waits.
        let mut dram = Dram::new(cfg.clone());
        let a = dram.access(FIRST_NS, addr(&cfg, 0, 5, 0), false, first);
        let b = dram.access(FIRST_NS, other, false, EccScheme::None);
        close(a.completion_ns - FIRST_NS, closed(first), "first latency");
        let wait = if first == EccScheme::Chipkill { closed(first) } else { 0.0 };
        close(b.queue_ns, wait, &format!("after a {first:?} read on channel 0"));
        close(b.completion_ns - FIRST_NS, wait + closed(EccScheme::None), "second latency");
        let c = dram.access(FIRST_NS, addr(&cfg, 2, 5, 0), false, EccScheme::None);
        close(c.queue_ns, 0.0, &format!("channel 2 after a {first:?} read on channel 0"));
    }
    // And the other way round: a chipkill read waits for a busy partner.
    let mut dram = Dram::new(cfg.clone());
    let a = dram.access(FIRST_NS, other, false, EccScheme::None);
    let b = dram.access(FIRST_NS, addr(&cfg, 0, 5, 0), false, EccScheme::Chipkill);
    close(b.queue_ns, a.completion_ns - FIRST_NS, "chipkill behind its busy partner channel");
}

#[test]
fn two_rows_ping_ponging_in_one_bank_pay_a_conflict_every_access() {
    let cfg = SystemConfig::default();
    let t = cfg.timing;
    let n = 8;
    for (scheme, _) in CHIPS {
        let mut dram = Dram::new(cfg.clone());
        let got = reads(&mut dram, &cfg, scheme, &[5, 6], n);
        let s = dram.stats;
        assert_eq!((s.activations, s.row_hits), (n as u64, 0), "{scheme:?}");
        let conflict = (t.t_rp + t.t_rcd + t.t_cl) as f64 * t.tck_ns + tail_ns(&cfg, scheme);
        for (k, r) in got.iter().enumerate().skip(1) {
            assert_eq!(r.row, RowOutcome::Conflict, "{scheme:?}: request {k}");
            close(r.completion_ns - (FIRST_NS + APART_NS * k as f64), conflict, "conflict latency");
        }
    }
}

#[test]
fn the_closed_page_policy_never_hits() {
    let cfg = SystemConfig { row_policy: RowPolicy::Closed, ..SystemConfig::default() };
    let (t, e) = (cfg.timing, cfg.energy);
    let n = 8;
    for (scheme, chips) in CHIPS {
        let mut dram = Dram::new(cfg.clone());
        let got = reads(&mut dram, &cfg, scheme, &[5], n);
        let s = dram.stats;
        assert_eq!((s.activations, s.row_hits), (n as u64, 0), "{scheme:?}");
        let closed = (t.t_rcd + t.t_cl) as f64 * t.tck_ns + tail_ns(&cfg, scheme);
        for (k, r) in got.iter().enumerate() {
            assert_eq!(r.row, RowOutcome::Closed, "{scheme:?}: request {k}");
            close(r.completion_ns - (FIRST_NS + APART_NS * k as f64), closed, "closed latency");
        }
        let correction_nj = scheme.correction_energy_pj() / 1000.0;
        let want = n as f64 * (chips * (e.act_nj_per_chip + e.read_nj_per_chip) + correction_nj);
        close(s.dynamic_nj, want, &format!("{scheme:?} dynamic energy"));
    }
}

#[test]
fn a_stream_over_four_refresh_intervals_meets_exactly_their_blackouts() {
    let cfg = SystemConfig::default();
    let (refi, rfc) = (cfg.timing.t_refi_ns, cfg.timing.t_rfc_ns);
    let mut dram = Dram::new(cfg.clone());
    let (mut stalls, mut col) = (0, 0);
    for k in 0..4u32 {
        let at = k as f64 * refi;
        // In interval k: a read `k / 4` of the way into the blackout, which
        // waits for its end; one as it ends, on another channel so that it
        // does not queue behind the first; and one mid-interval.
        let phase = rfc * k as f64 / 4.0;
        let reads = [(0, at + phase, rfc - phase), (1, at + rfc, 0.0), (0, at + refi / 2.0, 0.0)];
        for (channel, start, delay) in reads {
            let r = dram.access(start, addr(&cfg, channel, 5, col), false, EccScheme::None);
            close(r.queue_ns, delay, &format!("interval {k}: the read at {start} ns"));
            stalls += (delay > 0.0) as u64;
            col += 1;
        }
    }
    assert_eq!((stalls, dram.stats.refresh_stalls), (4, 4));
}

#[test]
fn idle_ranks_draw_power_down_and_ecc_chips_stay_down_without_ecc() {
    let cfg = SystemConfig::default();
    let e = cfg.energy;
    let ranks = (cfg.channels * cfg.dimms_per_channel * cfg.ranks_per_dimm) as f64;
    // Idle for a millisecond and for two seconds; mW x ns is pJ.
    let dram = Dram::new(cfg.clone());
    for t in [1e6, 2e9] {
        let idle = ranks * (DATA_CHIPS + ECC_CHIPS) * e.powerdown_mw_per_chip * t / 1000.0;
        for powered in [false, true] {
            let what = format!("idle for {t} ns, ECC chips powered {powered}");
            close(dram.standby_nj(t, powered), idle, &what);
        }
    }
    let t = 1e6;
    let idle = ranks * (DATA_CHIPS + ECC_CHIPS) * e.powerdown_mw_per_chip * t / 1000.0;
    // One read keeps its rank busy for its latency: for that long the
    // rank's data chips draw standby power, and its ECC chips only when
    // ECC is on.
    let mut dram = Dram::new(cfg.clone());
    let r = dram.access(FIRST_NS, addr(&cfg, 0, 5, 0), false, EccScheme::None);
    let busy = r.completion_ns - FIRST_NS;
    let up = (e.standby_mw_per_chip - e.powerdown_mw_per_chip) * busy / 1000.0;
    for (powered, chips) in [(false, DATA_CHIPS), (true, DATA_CHIPS + ECC_CHIPS)] {
        let what = format!("one read, ECC chips powered {powered}");
        close(dram.standby_nj(t, powered), idle + chips * up, &what);
    }
}

#[test]
fn a_fine_grained_secded_read_busies_a_quarter_rank_for_a_quarter_burst() {
    // DGMS's sub-ranked 16-byte access: 4 data + 1 ECC x4 chips, or 2 + 1
    // x8 chips, and a quarter of the channel's burst, behind SECDED's
    // decode.
    for (width, chips) in [(DeviceWidth::X4, 5.0), (DeviceWidth::X8, 3.0)] {
        let cfg = SystemConfig::default().with_device_width(width);
        let (t, e) = (cfg.timing, cfg.energy);
        let mut dram = Dram::new(cfg.clone());
        let r = dram.access_kind(FIRST_NS, addr(&cfg, 0, 5, 0), false, AccessKind::FineSecded);
        let secded = EccScheme::Secded;
        let closed = (t.t_rcd + t.t_cl) as f64 * t.tck_ns
            + t.burst_ns() / 4.0
            + secded.decode_latency_cycles() as f64 * t.tck_ns;
        close(r.completion_ns - FIRST_NS, closed, &format!("{width:?} latency"));
        let want = chips * (e.act_nj_per_chip + e.read_nj_per_chip)
            + secded.correction_energy_pj() / 1000.0;
        close(dram.stats.dynamic_nj, want, &format!("{width:?} dynamic energy"));
    }
}

#[test]
fn a_queued_read_keeps_its_rank_busy_for_its_service_not_its_wait() {
    // Three reads of one row of one bank at the same instant: each waits
    // for the ones before it, then hits. The rank is busy for the three
    // service latencies; the waits are the earlier reads', not more.
    let cfg = SystemConfig::default();
    let (t, e) = (cfg.timing, cfg.energy);
    let mut dram = Dram::new(cfg.clone());
    let got: Vec<ServiceResult> = (0..3)
        .map(|col| dram.access(FIRST_NS, addr(&cfg, 0, 5, col), false, EccScheme::None))
        .collect();
    let closed = (t.t_rcd + t.t_cl) as f64 * t.tck_ns + tail_ns(&cfg, EccScheme::None);
    let hit = t.t_cl as f64 * t.tck_ns + tail_ns(&cfg, EccScheme::None);
    for (k, r) in got.iter().enumerate() {
        let wait = if k == 0 { 0.0 } else { closed + (k - 1) as f64 * hit };
        let service = if k == 0 { closed } else { hit };
        close(r.queue_ns, wait, &format!("read {k}'s wait"));
        close(r.completion_ns - FIRST_NS, wait + service, &format!("read {k}'s completion"));
    }
    let ranks = (cfg.channels * cfg.dimms_per_channel * cfg.ranks_per_dimm) as f64;
    let elapsed = 1e6;
    let idle = ranks * (DATA_CHIPS + ECC_CHIPS) * e.powerdown_mw_per_chip * elapsed / 1000.0;
    let up = (e.standby_mw_per_chip - e.powerdown_mw_per_chip) * (closed + 2.0 * hit) / 1000.0;
    close(dram.standby_nj(elapsed, false), idle + DATA_CHIPS * up, "standby after three reads");
}

#[test]
fn one_demand_miss_stalls_the_core_for_its_latency_times_the_stall_factor() {
    let t = SystemConfig::default().timing;
    for stall_factor in [0.0, 1.0] {
        let cfg = SystemConfig { threads: 1, stall_factor, ..SystemConfig::default() };
        // One read after 400 cycles of work: it misses both caches and
        // reaches DRAM at FIRST_NS (2 GHz), into a closed row.
        let mut regions = RegionMap::new();
        let r = regions.alloc("x", 4096, false);
        let base = regions.get(r).base;
        let mut trace = Trace::new(regions);
        trace.push(base, r, false, 400);
        let assign = EccAssignment::uniform(EccScheme::None);
        let stats =
            Machine::new(cfg.clone()).simulate(SimRequest::source(&mut trace.replay(), assign));
        assert_eq!(stats.dram_reads, 1);
        close(400.0 * cfg.cycle_ns(), FIRST_NS, "arrival");
        // The core's own cycles: the work, then the L2's latency.
        let core = 400 + cfg.l2.latency_cycles;
        let latency = (t.t_rcd + t.t_cl) as f64 * t.tck_ns + tail_ns(&cfg, EccScheme::None);
        let stall = (latency * stall_factor / cfg.cycle_ns()) as u64;
        assert_eq!(stats.cycles, core + stall, "stall factor {stall_factor}");
    }
}
