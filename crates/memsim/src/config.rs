//! Simulation parameters (the paper's Table 3).

use crate::dram::{latency_ns, AccessKind};

/// DRAM device data width — the paper's design "easily generalizes to
/// other DRAM chips (e.g., x8 chips)" (Section 3.1); the x8 chipkill uses
/// the 3-check-symbol code of Section 2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceWidth {
    /// x4 devices: 16 data chips per 64-bit channel.
    X4,
    /// x8 devices: 8 data chips per 64-bit channel.
    X8,
}

impl DeviceWidth {
    /// Data chips per rank (per 64-bit channel).
    pub fn data_chips_per_rank(self) -> usize {
        match self {
            DeviceWidth::X4 => 16,
            DeviceWidth::X8 => 8,
        }
    }

    /// ECC chips per rank (for the 72-bit channel).
    pub fn ecc_chips_per_rank(self) -> usize {
        match self {
            DeviceWidth::X4 => 2,
            DeviceWidth::X8 => 1,
        }
    }
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowPolicy {
    /// Keep rows open after access (Table 3's policy).
    Open,
    /// Auto-precharge after every access.
    Closed,
}

/// Cache geometry. Totally ordered and hashable so it can key the
/// [`crate::trace_cache::TraceCache`]'s miss-stream memo level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Load-to-use latency in core cycles.
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity / (self.ways * self.line_bytes)
    }
}

/// DDR3 device timing, in DRAM clock cycles (tCK).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// DRAM clock period in nanoseconds (DDR3-667: 3.0 ns).
    pub tck_ns: f64,
    /// RAS-to-CAS delay.
    pub t_rcd: u64,
    /// CAS latency.
    pub t_cl: u64,
    /// Row precharge.
    pub t_rp: u64,
    /// Data burst length in beats (BL8).
    pub burst_beats: u64,
    /// Average refresh interval per rank (ns; DDR3 tREFI = 7.8 us).
    pub t_refi_ns: f64,
    /// Refresh cycle time (ns; tRFC for 1 Gb devices).
    pub t_rfc_ns: f64,
}

impl DramTiming {
    /// Burst duration on one channel in ns (DDR: two beats per clock).
    pub fn burst_ns(&self) -> f64 {
        (self.burst_beats as f64 / 2.0) * self.tck_ns
    }

    /// Row-hit access latency (CAS + burst) in ns.
    pub fn hit_ns(&self) -> f64 {
        self.t_cl as f64 * self.tck_ns + self.burst_ns()
    }

    /// Closed-bank access latency in ns.
    pub fn closed_ns(&self) -> f64 {
        (self.t_rcd + self.t_cl) as f64 * self.tck_ns + self.burst_ns()
    }

    /// Row-conflict access latency in ns.
    pub fn conflict_ns(&self) -> f64 {
        (self.t_rp + self.t_rcd + self.t_cl) as f64 * self.tck_ns + self.burst_ns()
    }
}

impl Default for DramTiming {
    /// DDR3-667 (667 MT/s, 333 MHz clock — the paper's Table 3 device),
    /// CL5-5-5-15.
    fn default() -> Self {
        DramTiming {
            tck_ns: 3.0,
            t_rcd: 5,
            t_cl: 5,
            t_rp: 5,
            burst_beats: 8,
            t_refi_ns: 7800.0,
            t_rfc_ns: 110.0,
        }
    }
}

/// DRAM energy coefficients, per x4 chip, Micron TN-41-01 methodology.
///
/// The ECC energy mechanism is entirely structural: an access charges these
/// per-chip numbers times the chips the scheme makes busy (16 / 18 / 36),
/// so chipkill's overfetch costs ~2.25x no-ECC dynamic energy and SECDED
/// ~1.125x, as in Section 2.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramEnergy {
    /// Activate+precharge energy per chip per row activation (nJ).
    pub act_nj_per_chip: f64,
    /// Read burst energy per chip per access (nJ), incl. I/O.
    pub read_nj_per_chip: f64,
    /// Write burst energy per chip per access (nJ), incl. termination.
    pub write_nj_per_chip: f64,
    /// Background (standby) power per powered chip (mW).
    pub standby_mw_per_chip: f64,
    /// Background power for a disabled/ignored ECC chip under No-ECC (mW):
    /// the devices sit in power-down, not unpowered.
    pub powerdown_mw_per_chip: f64,
}

impl Default for DramEnergy {
    fn default() -> Self {
        // Derived from Micron 1Gb x4 DDR3-667 data (IDD0/IDD4/IDD2N class
        // figures at 1.5 V), rounded; absolute joules are not the target,
        // ratios across schemes are.
        DramEnergy {
            act_nj_per_chip: 4.2,
            read_nj_per_chip: 6.2,
            write_nj_per_chip: 6.6,
            standby_mw_per_chip: 18.0,
            powerdown_mw_per_chip: 1.0,
        }
    }
}

/// Processor power model: IPC-based linear scaling of a 45 nm Xeon's
/// maximum power (the paper's Section 5 method, after \[3, 40\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorPower {
    /// Package power at peak IPC (W).
    pub max_watts: f64,
    /// Fraction of max power drawn at zero IPC (uncore + leakage).
    pub idle_fraction: f64,
    /// IPC at which `max_watts` is reached (4 in-order cores x 1.0).
    pub peak_ipc: f64,
}

impl ProcessorPower {
    /// Power at a given achieved IPC.
    pub fn watts_at(&self, ipc: f64) -> f64 {
        let u = (ipc / self.peak_ipc).clamp(0.0, 1.0);
        self.max_watts * (self.idle_fraction + (1.0 - self.idle_fraction) * u)
    }
}

impl Default for ProcessorPower {
    fn default() -> Self {
        ProcessorPower { max_watts: 70.0, idle_fraction: 0.25, peak_ipc: 4.0 }
    }
}

/// Whole-node configuration (Table 3 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Number of in-order cores.
    pub cores: usize,
    /// Concurrent worker threads driving the memory system (the Table 3
    /// machine runs the kernels across its 4 cores; their instruction
    /// streams interleave, compressing wall-clock time and multiplying
    /// memory pressure).
    pub threads: usize,
    /// L1 data cache (private per core).
    pub l1: CacheConfig,
    /// L2 unified cache (shared).
    pub l2: CacheConfig,
    /// Memory channels.
    pub channels: usize,
    /// DIMMs per channel.
    pub dimms_per_channel: usize,
    /// Ranks per DIMM.
    pub ranks_per_dimm: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Row-buffer size per bank in bytes.
    pub row_bytes: usize,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// DRAM timing.
    pub timing: DramTiming,
    /// DRAM energy coefficients.
    pub energy: DramEnergy,
    /// Processor power model.
    pub proc_power: ProcessorPower,
    /// Fraction of a DRAM miss's latency the in-order pipeline cannot hide
    /// ("memory parallelism can partially hide memory access latency",
    /// Section 5.1).
    pub stall_factor: f64,
    /// DRAM device width (its chips per rank: [`DeviceWidth`]'s methods).
    pub device_width: DeviceWidth,
    /// Row-buffer policy (Table 3: open).
    pub row_policy: RowPolicy,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            clock_ghz: 2.0,
            cores: 4,
            threads: 4,
            l1: CacheConfig { capacity: 16 * 1024, ways: 4, line_bytes: 64, latency_cycles: 1 },
            l2: CacheConfig {
                capacity: 8 * 1024 * 1024,
                ways: 16,
                line_bytes: 64,
                latency_cycles: 20,
            },
            channels: 4,
            dimms_per_channel: 2,
            ranks_per_dimm: 4,
            banks_per_rank: 8,
            row_bytes: 8 * 1024,
            capacity_bytes: 8 * 1024 * 1024 * 1024,
            timing: DramTiming::default(),
            energy: DramEnergy::default(),
            proc_power: ProcessorPower::default(),
            stall_factor: 0.35,
            device_width: DeviceWidth::X4,
            row_policy: RowPolicy::Open,
        }
    }
}

/// A rejected [`SystemConfig`]: which parameter is impossible, the value
/// it held, and why it was rejected.
///
/// Produced by [`SystemConfig::validate`] so that impossible cache or DRAM
/// geometry is reported at construction instead of panicking deep inside
/// [`crate::cache::Cache::new`] or the address decoder mid-simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending parameter ("l2", "row_bytes", ...).
    pub field: &'static str,
    /// The rejected value, rendered (so error reports never lose which
    /// input triggered the failure).
    pub value: String,
    /// Human-readable explanation of the constraint that failed.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid SystemConfig: {} = {}: {}", self.field, self.value, self.reason)
    }
}

impl std::error::Error for ConfigError {}

fn err(
    field: &'static str,
    value: impl std::fmt::Display,
    reason: impl Into<String>,
) -> ConfigError {
    ConfigError { field, value: value.to_string(), reason: reason.into() }
}

fn validate_cache(prefix: &'static str, c: &CacheConfig) -> Result<(), ConfigError> {
    let field = match prefix {
        "l1" => "l1",
        _ => "l2",
    };
    if c.line_bytes == 0 || !c.line_bytes.is_power_of_two() {
        return Err(err(field, c.line_bytes, "line size is not a power of two"));
    }
    if c.line_bytes < 64 {
        return Err(err(
            field,
            c.line_bytes,
            "line is smaller than the 64-byte DRAM burst, the granularity at which \
             miss-stream records hold write-back addresses",
        ));
    }
    if c.ways == 0 {
        return Err(err(field, c.ways, "associativity must be at least 1"));
    }
    if c.capacity == 0 || !c.capacity.is_multiple_of(c.ways * c.line_bytes) {
        return Err(err(
            field,
            c.capacity,
            format!("capacity is not a multiple of ways x line ({} x {})", c.ways, c.line_bytes),
        ));
    }
    let sets = c.sets();
    if !sets.is_power_of_two() {
        return Err(err(field, sets, "set count is not a power of two"));
    }
    Ok(())
}

/// `ns` as a count of `clock_ghz` core cycles, if it is a whole one below
/// 2^53 (where every count is an exact f64): the one conversion
/// [`SystemConfig::validate`] checks and [`crate::dram::Dram::new`] makes.
pub(crate) fn whole_cycles(ns: f64, clock_ghz: f64) -> Option<u64> {
    let cycles = ns * clock_ghz;
    let whole = (0.0..=(1u64 << 53) as f64).contains(&cycles) && cycles.fract() == 0.0;
    whole.then_some(cycles as u64)
}

impl SystemConfig {
    /// Panic on a configuration [`SystemConfig::validate`] refuses: the
    /// contract of [`crate::system::Machine::new`] and
    /// [`crate::dram::Dram::new`].
    #[expect(
        clippy::panic,
        reason = "documented constructor contract; validate() is the fallible path"
    )]
    pub(crate) fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    /// Check every geometric and physical constraint the simulator relies
    /// on. [`crate::system::Machine::new`] calls this, so an impossible
    /// configuration fails fast with a named parameter instead of an
    /// assert deep in the cache or DRAM model. A configuration is a plain
    /// struct (`SystemConfig { threads: 1, ..Default::default() }`); this
    /// is the fallible way to accept one.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.clock_ghz.is_finite() && self.clock_ghz > 0.0) {
            return Err(err("clock_ghz", self.clock_ghz, "not a positive clock"));
        }
        // Every replayed instant is `cycles · cycle_ns`: an infinite cycle
        // makes the first one NaN (0 · ∞), a subnormal one loses digits.
        if !self.cycle_ns().is_normal() {
            return Err(err(
                "clock_ghz",
                self.clock_ghz,
                format!("cycle time {} ns is not a finite normal number", self.cycle_ns()),
            ));
        }
        if self.cores == 0 {
            return Err(err("cores", self.cores, "at least one core is required"));
        }
        if self.threads == 0 {
            return Err(err("threads", self.threads, "at least one worker thread is required"));
        }
        validate_cache("l1", &self.l1)?;
        validate_cache("l2", &self.l2)?;
        if self.l1.line_bytes != self.l2.line_bytes {
            return Err(err(
                "l2",
                self.l2.line_bytes,
                format!(
                    "L1/L2 line sizes differ ({} vs {}); the write-back path assumes one line size",
                    self.l1.line_bytes, self.l2.line_bytes
                ),
            ));
        }
        for (field, v) in [
            ("channels", self.channels),
            ("dimms_per_channel", self.dimms_per_channel),
            ("ranks_per_dimm", self.ranks_per_dimm),
            ("banks_per_rank", self.banks_per_rank),
        ] {
            if v == 0 {
                return Err(err(field, v, "must be at least 1"));
            }
        }
        if !self.channels.is_multiple_of(2) {
            return Err(err(
                "channels",
                self.channels,
                "Chipkill lock-steps channel pairs; the channel count must be even",
            ));
        }
        if self.row_bytes == 0 || !self.row_bytes.is_power_of_two() {
            return Err(err("row_bytes", self.row_bytes, "row buffer size is not a power of two"));
        }
        if self.row_bytes < self.l2.line_bytes {
            return Err(err(
                "row_bytes",
                self.row_bytes,
                format!("row buffer is smaller than a cache line ({} B)", self.l2.line_bytes),
            ));
        }
        if self.capacity_bytes == 0 {
            return Err(err("capacity_bytes", self.capacity_bytes, "capacity must be nonzero"));
        }
        if !(0.0..=1.0).contains(&self.stall_factor) || !self.stall_factor.is_finite() {
            return Err(err("stall_factor", self.stall_factor, "not a fraction in [0, 1]"));
        }
        if !(self.timing.tck_ns.is_normal() && self.timing.tck_ns > 0.0) {
            return Err(err(
                "timing.tck_ns",
                self.timing.tck_ns,
                "tCK (ns) is not a positive finite normal number",
            ));
        }
        // The refresh check is `start % tREFI < tRFC`: a zero interval is a
        // remainder by zero, and a blackout as long as the interval stalls
        // every request.
        let (t_refi, t_rfc) = (self.timing.t_refi_ns, self.timing.t_rfc_ns);
        if !(t_refi.is_finite() && t_refi > 0.0) {
            return Err(err("timing.t_refi_ns", t_refi, "refresh interval (ns) is not positive"));
        }
        if !(t_rfc.is_finite() && t_rfc >= 0.0) {
            return Err(err("timing.t_rfc_ns", t_rfc, "refresh cycle time (ns) is negative"));
        }
        if t_rfc >= t_refi {
            return Err(err(
                "timing.t_rfc_ns",
                t_rfc,
                format!("refresh blackout is not shorter than the refresh interval ({t_refi} ns)"),
            ));
        }
        // The DRAM model keeps time in whole core cycles (DESIGN.md §3.13),
        // so every timing it converts must be one.
        let off_the_clock = |ns: f64| whole_cycles(ns, self.clock_ghz).is_none();
        let timings = [
            ("timing.tck_ns", self.timing.tck_ns),
            ("timing.t_refi_ns", t_refi),
            ("timing.t_rfc_ns", t_rfc),
        ];
        for (field, ns) in timings {
            if off_the_clock(ns) {
                let cycles = ns * self.clock_ghz;
                let why = format!("{ns} ns is {cycles} cycles of the core clock, not a whole one");
                return Err(err(field, ns, why));
            }
        }
        // With tCK whole, a service latency falls between edges only by
        // its burst's half (chipkill) or quarter (fine-grained).
        if AccessKind::ALL.into_iter().flat_map(|kind| latency_ns(kind, self)).any(off_the_clock) {
            let why = "a burst of these beats, halved or quartered, is not whole core cycles";
            return Err(err("timing.burst_beats", self.timing.burst_beats, why));
        }
        // Joules are sums and products of these: one NaN poisons a cell,
        // one negative coefficient quietly subtracts energy.
        let e = &self.energy;
        for (field, v) in [
            ("energy.act_nj_per_chip", e.act_nj_per_chip),
            ("energy.read_nj_per_chip", e.read_nj_per_chip),
            ("energy.write_nj_per_chip", e.write_nj_per_chip),
            ("energy.standby_mw_per_chip", e.standby_mw_per_chip),
            ("energy.powerdown_mw_per_chip", e.powerdown_mw_per_chip),
            ("proc_power.max_watts", self.proc_power.max_watts),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(err(field, v, "not a finite non-negative energy or power"));
            }
        }
        let p = &self.proc_power;
        if !(0.0..=1.0).contains(&p.idle_fraction) {
            return Err(err(
                "proc_power.idle_fraction",
                p.idle_fraction,
                "not a fraction in [0, 1]",
            ));
        }
        if !(p.peak_ipc.is_finite() && p.peak_ipc > 0.0) {
            return Err(err("proc_power.peak_ipc", p.peak_ipc, "not a positive finite IPC"));
        }
        Ok(())
    }

    /// Chips one 64-byte access makes busy under `scheme` on this node's
    /// devices. For x4 this matches Section 2.2's 16/18/36; for x8 the
    /// chipkill group is 16 data + 3 check chips (the 3-check-symbol
    /// code, 18.75% overhead).
    pub fn chips_per_access(&self, scheme: abft_ecc::EccScheme) -> u32 {
        use abft_ecc::EccScheme::*;
        match (self.device_width, scheme) {
            (DeviceWidth::X4, None) => 16,
            (DeviceWidth::X4, Secded) => 18,
            (DeviceWidth::X4, Chipkill) => 36,
            (DeviceWidth::X8, None) => 8,
            (DeviceWidth::X8, Secded) => 9,
            (DeviceWidth::X8, Chipkill) => 19,
        }
    }

    /// Core cycle time in ns.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }

    /// Render the Table 3 parameter block as the harness prints it.
    pub fn table3(&self) -> String {
        format!(
            "Processor          : {} in-order cores, {} GHz\n\
             L1 cache           : {} KB, {}-way, {} B lines (split I/D, private)\n\
             L2 cache           : {} MB, {}-way, {} B lines (unified, shared)\n\
             DRAM device        : DDR3-667, {}, 1.5 V\n\
             Memory organization: {} channels, {} DIMMs/channel, {} ranks/DIMM, {} banks/rank\n\
             Capacity           : {} GB\n\
             Row buffer policy  : {}\n\
             Chipkill           : 128b data + 16b ECC, 2 channels\n\
             SECDED             : 64b data + 8b ECC, 1 channel",
            self.cores,
            self.clock_ghz,
            self.l1.capacity / 1024,
            self.l1.ways,
            self.l1.line_bytes,
            self.l2.capacity / (1024 * 1024),
            self.l2.ways,
            self.l2.line_bytes,
            match self.device_width {
                DeviceWidth::X4 => "x4",
                DeviceWidth::X8 => "x8",
            },
            self.channels,
            self.dimms_per_channel,
            self.ranks_per_dimm,
            self.banks_per_rank,
            self.capacity_bytes / (1024 * 1024 * 1024),
            match self.row_policy {
                RowPolicy::Open => "open",
                RowPolicy::Closed => "closed",
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_defaults() {
        let c = SystemConfig::default();
        assert_eq!(c.cores, 4);
        assert_eq!(c.l1.sets(), 64);
        assert_eq!(c.l2.sets(), 8192);
        assert!(c.table3().contains("4 channels"));
    }

    #[test]
    fn table3_prints_the_device_width_and_row_policy_it_is_given() {
        let node = SystemConfig {
            device_width: DeviceWidth::X8,
            row_policy: RowPolicy::Closed,
            ..SystemConfig::default()
        };
        let table = node.table3();
        assert!(table.contains("DRAM device        : DDR3-667, x8, 1.5 V\n"), "{table}");
        assert!(table.contains("Row buffer policy  : closed\n"), "{table}");
        let default = SystemConfig::default().table3();
        assert!(default.contains(", x4, ") && default.contains("policy  : open\n"), "{default}");
    }

    #[test]
    fn device_width_generalization() {
        use abft_ecc::EccScheme;
        let x4 = SystemConfig::default();
        assert_eq!(x4.chips_per_access(EccScheme::Chipkill), 36);
        let x8 = SystemConfig { device_width: DeviceWidth::X8, ..SystemConfig::default() };
        assert_eq!(x8.chips_per_access(EccScheme::None), 8);
        assert_eq!(x8.chips_per_access(EccScheme::Secded), 9);
        assert_eq!(x8.chips_per_access(EccScheme::Chipkill), 19);
        assert_eq!(x8.device_width.data_chips_per_rank(), 8);
        assert_eq!(x8.device_width.ecc_chips_per_rank(), 1);
        // x8 chipkill's relative overfetch (19/8) is *worse* than x4's
        // (36/16) per Section 2.2's storage-overhead discussion.
        let x4_ratio = 36.0 / 16.0;
        let x8_ratio = 19.0 / 8.0;
        assert!(x8_ratio > x4_ratio);
    }

    #[test]
    fn timing_latencies_ordered() {
        let t = DramTiming::default();
        assert!(t.hit_ns() < t.closed_ns());
        assert!(t.closed_ns() < t.conflict_ns());
        assert_eq!(t.burst_ns(), 12.0);
    }

    #[test]
    fn default_and_ablation_configs_validate() {
        SystemConfig::default().validate().unwrap();
        SystemConfig { device_width: DeviceWidth::X8, ..SystemConfig::default() }
            .validate()
            .unwrap();
        SystemConfig { stall_factor: 0.5, ..SystemConfig::default() }.validate().unwrap();
        SystemConfig { row_policy: RowPolicy::Closed, ..SystemConfig::default() }
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_accepts_possible_geometry() {
        let cfg = SystemConfig {
            threads: 2,
            channels: 2,
            l1: CacheConfig { capacity: 32 * 1024, ways: 8, line_bytes: 64, latency_cycles: 2 },
            stall_factor: 0.2,
            device_width: DeviceWidth::X8,
            ..SystemConfig::default()
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.l1.sets(), 64);
        assert_eq!(cfg.device_width.data_chips_per_rank(), 8);
    }

    /// The error `validate` rejects `cfg` with.
    fn rejected(cfg: SystemConfig) -> ConfigError {
        cfg.validate().unwrap_err()
    }

    #[test]
    fn validate_rejects_impossible_geometry() {
        let node = SystemConfig::default;
        // Non-power-of-two set count.
        let e = rejected(SystemConfig {
            l2: CacheConfig {
                capacity: 3 * 1024 * 1024,
                ways: 16,
                line_bytes: 64,
                latency_cycles: 20,
            },
            ..node()
        });
        assert_eq!(e.field, "l2");

        // Capacity not a multiple of ways x line.
        let e = rejected(SystemConfig {
            l1: CacheConfig { capacity: 1000, ways: 4, line_bytes: 64, latency_cycles: 1 },
            ..node()
        });
        assert_eq!(e.field, "l1");

        // Mismatched line sizes.
        let e = rejected(SystemConfig {
            l1: CacheConfig { capacity: 16 * 1024, ways: 4, line_bytes: 128, latency_cycles: 1 },
            ..node()
        });
        assert_eq!(e.field, "l2");
        assert!(e.reason.contains("line sizes differ"), "{e}");

        // A line below the 64-byte burst: a miss-stream record would drop
        // the low bits of its write-back address. 128-byte lines are legal.
        let lines = |line_bytes| SystemConfig {
            l1: CacheConfig { line_bytes, ..node().l1 },
            l2: CacheConfig { line_bytes, ..node().l2 },
            ..node()
        };
        let e = rejected(lines(32));
        assert_eq!((e.field, e.value.as_str()), ("l1", "32"));
        assert!(e.reason.contains("64-byte DRAM burst"), "{e}");
        lines(128).validate().unwrap();

        // Row buffer must be a power of two and hold a line.
        let e = rejected(SystemConfig { row_bytes: 100, ..node() });
        assert_eq!((e.field, e.value.as_str()), ("row_bytes", "100"));
        assert_eq!(rejected(SystemConfig { row_bytes: 32, ..node() }).field, "row_bytes");

        // Degenerate organization and physics.
        assert_eq!(rejected(SystemConfig { channels: 0, ..node() }).field, "channels");
        assert_eq!(rejected(SystemConfig { threads: 0, ..node() }).field, "threads");
        assert_eq!(rejected(SystemConfig { stall_factor: 1.5, ..node() }).field, "stall_factor");
        assert_eq!(rejected(SystemConfig { clock_ghz: 0.0, ..node() }).field, "clock_ghz");

        // Chipkill pairs channel 2k with 2k+1.
        for odd in [1, 3] {
            let e = rejected(SystemConfig { channels: odd, ..node() });
            assert_eq!((e.field, e.value.as_str()), ("channels", odd.to_string().as_str()));
            assert!(e.reason.contains("Chipkill lock-steps channel pairs"), "{e}");
        }
        SystemConfig { channels: 6, ..node() }.validate().unwrap();

        // The rendered error names the field AND the rejected value.
        let err = rejected(SystemConfig { row_bytes: 100, ..node() });
        assert!(err.to_string().contains("row_bytes"));
        assert!(err.to_string().contains("100"), "the offending value must not be lost: {err}");

        let err = rejected(SystemConfig { stall_factor: 1.5, ..node() });
        assert_eq!(err.value, "1.5");
    }

    #[test]
    fn validate_rejects_impossible_refresh_timing() {
        let with = |t_refi_ns: f64, t_rfc_ns: f64| {
            SystemConfig {
                timing: DramTiming { t_refi_ns, t_rfc_ns, ..DramTiming::default() },
                ..SystemConfig::default()
            }
            .validate()
        };
        for bad in [0.0, -7800.0, f64::NAN, f64::INFINITY] {
            let e = with(bad, 110.0).unwrap_err();
            assert_eq!(e.field, "timing.t_refi_ns", "t_refi_ns = {bad}");
        }
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let e = with(7800.0, bad).unwrap_err();
            assert_eq!(e.field, "timing.t_rfc_ns", "t_rfc_ns = {bad}");
        }
        // A blackout as long as the interval never lets a request start.
        let e = with(7800.0, 7800.0).unwrap_err();
        assert_eq!((e.field, e.value.as_str()), ("timing.t_rfc_ns", "7800"));
        assert_eq!(with(110.0, 7800.0).unwrap_err().field, "timing.t_rfc_ns");
        // No refresh blackout at all is a legal model.
        with(7800.0, 0.0).unwrap();
        with(7812.5, 110.0).unwrap();
    }

    #[test]
    fn dram_timings_off_the_core_clock_are_refused() {
        let node =
            |clock_ghz, timing| SystemConfig { clock_ghz, timing, ..SystemConfig::default() };
        let ddr3 = DramTiming::default;
        // At 2.5 GHz DDR3-667's 3 ns tCK is 7.5 core cycles.
        let e = rejected(node(2.5, ddr3()));
        assert_eq!((e.field, e.value.as_str()), ("timing.tck_ns", "3"));
        assert!(e.reason.contains("3 ns is 7.5 cycles of the core clock"), "{e}");
        // tREFI = 7812.5 ns is 15,625 cycles at 2 GHz, and half a cycle
        // off at 1 GHz; 7800.1 ns is off at both.
        node(2.0, DramTiming { t_refi_ns: 7812.5, ..ddr3() }).validate().unwrap();
        for (clock_ghz, t_refi_ns) in [(1.0, 7812.5), (2.0, 7800.1)] {
            let e = rejected(node(clock_ghz, DramTiming { t_refi_ns, ..ddr3() }));
            assert_eq!(e.field, "timing.t_refi_ns", "{t_refi_ns} ns at {clock_ghz} GHz");
        }
        let e = rejected(node(2.0, DramTiming { t_rfc_ns: 110.25, ..ddr3() }));
        assert_eq!((e.field, e.value.as_str()), ("timing.t_rfc_ns", "110.25"));
        // Seven beats are 10.5 ns of burst: 21 cycles, but a chipkill
        // half-burst is 10.5.
        let e = rejected(node(2.0, DramTiming { burst_beats: 7, ..ddr3() }));
        assert_eq!((e.field, e.value.as_str()), ("timing.burst_beats", "7"));
        // Every DDR3-667 timing is whole at 1, 2, 3 and 4 GHz (tCK = 3,
        // 6, 9 and 12 cycles).
        for clock_ghz in [1.0, 2.0, 3.0, 4.0] {
            node(clock_ghz, ddr3()).validate().unwrap();
        }
    }

    // The six configs below each used to pass `validate` and then print a
    // NaN, an infinity or quietly wrong joules.

    #[test]
    fn a_clock_whose_cycle_is_not_a_normal_number_is_refused() {
        // 1 / 1e-310 GHz is an infinite cycle: every `now` is 0 · ∞ = NaN.
        let e = rejected(SystemConfig { clock_ghz: 1e-310, ..SystemConfig::default() });
        assert_eq!((e.field, e.value.parse::<f64>()), ("clock_ghz", Ok(1e-310)));
        assert!(e.reason.contains("inf ns"), "{e}");
        // And 1 / 1e308 GHz a subnormal one.
        let e = rejected(SystemConfig { clock_ghz: 1e308, ..SystemConfig::default() });
        assert_eq!(e.field, "clock_ghz");
    }

    #[test]
    fn a_nan_activation_energy_is_refused() {
        let energy = DramEnergy { act_nj_per_chip: f64::NAN, ..DramEnergy::default() };
        let e = rejected(SystemConfig { energy, ..SystemConfig::default() });
        assert_eq!((e.field, e.value.as_str()), ("energy.act_nj_per_chip", "NaN"));
    }

    #[test]
    fn a_negative_read_energy_is_refused() {
        let energy = DramEnergy { read_nj_per_chip: -6.2, ..DramEnergy::default() };
        let e = rejected(SystemConfig { energy, ..SystemConfig::default() });
        assert_eq!((e.field, e.value.as_str()), ("energy.read_nj_per_chip", "-6.2"));
        let energy = DramEnergy { write_nj_per_chip: f64::INFINITY, ..DramEnergy::default() };
        let e = rejected(SystemConfig { energy, ..SystemConfig::default() });
        assert_eq!(e.field, "energy.write_nj_per_chip");
    }

    #[test]
    fn a_negative_standby_power_is_refused() {
        let energy = DramEnergy { standby_mw_per_chip: -18.0, ..DramEnergy::default() };
        let e = rejected(SystemConfig { energy, ..SystemConfig::default() });
        assert_eq!((e.field, e.value.as_str()), ("energy.standby_mw_per_chip", "-18"));
        let energy = DramEnergy { powerdown_mw_per_chip: -1.0, ..DramEnergy::default() };
        let e = rejected(SystemConfig { energy, ..SystemConfig::default() });
        assert_eq!(e.field, "energy.powerdown_mw_per_chip");
    }

    #[test]
    fn a_nan_processor_power_is_refused() {
        let proc = |proc_power| rejected(SystemConfig { proc_power, ..SystemConfig::default() });
        let e = proc(ProcessorPower { max_watts: f64::NAN, ..ProcessorPower::default() });
        assert_eq!((e.field, e.value.as_str()), ("proc_power.max_watts", "NaN"));
        for idle_fraction in [-0.1, 1.5, f64::NAN] {
            let e = proc(ProcessorPower { idle_fraction, ..ProcessorPower::default() });
            assert_eq!(e.field, "proc_power.idle_fraction", "idle_fraction = {idle_fraction}");
        }
        for peak_ipc in [0.0, -4.0, f64::INFINITY, f64::NAN] {
            let e = proc(ProcessorPower { peak_ipc, ..ProcessorPower::default() });
            assert_eq!(e.field, "proc_power.peak_ipc", "peak_ipc = {peak_ipc}");
        }
        // The bounds themselves are legal.
        let edge = ProcessorPower { max_watts: 0.0, idle_fraction: 1.0, peak_ipc: 1e-3 };
        SystemConfig { proc_power: edge, ..SystemConfig::default() }.validate().unwrap();
    }

    #[test]
    fn a_subnormal_dram_clock_is_refused() {
        let timing = DramTiming { tck_ns: 1e-320, ..DramTiming::default() };
        let e = rejected(SystemConfig { timing, ..SystemConfig::default() });
        assert_eq!(e.field, "timing.tck_ns");
        for tck_ns in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let timing = DramTiming { tck_ns, ..DramTiming::default() };
            let e = rejected(SystemConfig { timing, ..SystemConfig::default() });
            assert_eq!(e.field, "timing.tck_ns", "tck_ns = {tck_ns}");
        }
    }

    #[test]
    fn processor_power_scales_linearly() {
        let p = ProcessorPower::default();
        assert_eq!(p.watts_at(0.0), p.max_watts * p.idle_fraction);
        assert_eq!(p.watts_at(4.0), p.max_watts);
        assert_eq!(p.watts_at(8.0), p.max_watts, "clamped at peak");
        let mid = p.watts_at(2.0);
        assert!(mid > p.watts_at(0.0) && mid < p.max_watts);
    }
}
