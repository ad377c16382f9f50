//! The enhanced memory controller of Section 3.1.
//!
//! Additions over a stock MC:
//!
//! * **ECC range registers** — 16 configurable registers describing 8
//!   physical address ranges and the ECC scheme applied to each; everything
//!   else gets the default (strong) scheme. Memory-mapped so the OS/runtime
//!   can program them from `malloc_ecc`/`assign_ecc`.
//! * **Error registers** — `n = 6` registers recording the fault sites
//!   (chip/row/column) of recent uncorrectable errors, plus an interrupt
//!   line to the processor.
//! * **Functional storage** — the controller can hold actual encoded cache
//!   lines ([`abft_ecc::ProtectedLine`]) so fault-injection experiments
//!   exercise the real codes end to end.

use crate::dram::{AddressMap, DramLocation};
use abft_ecc::{EccOutcome, EccScheme, ProtectedLine, LINE_BYTES};
use std::collections::BTreeMap;
use std::fmt;

/// Number of ECC range registers (8 ranges x {base, limit}); Section 3.2.1.
pub const ECC_RANGE_SLOTS: usize = 8;
/// Number of error registers (`n = 6`), recording `n/2` or more events.
pub const ERROR_REGISTERS: usize = 6;

/// One programmed ECC range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccRange {
    /// Inclusive base physical address.
    pub base: u64,
    /// Exclusive end physical address.
    pub end: u64,
    /// Scheme enforced for lines in the range.
    pub scheme: EccScheme,
}

/// A recorded uncorrectable-error event: the fault site (as the MC locates
/// it: chip/row/column) plus the line address for convenience.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRecord {
    /// DRAM coordinates of the fault.
    pub site: DramLocation,
    /// Line-aligned physical address (derivable from `site`; cached).
    pub paddr: u64,
    /// Time of detection (ns since simulation start).
    pub time_ns: f64,
}

/// Errors returned by range programming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeError {
    /// All 8 range slots are in use.
    OutOfSlots,
    /// The new range overlaps an existing one.
    Overlap,
    /// `base >= end`: the range covers no addresses.
    Empty,
}

impl fmt::Display for RangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeError::OutOfSlots => {
                write!(f, "all {ECC_RANGE_SLOTS} ECC range register slots are in use")
            }
            RangeError::Overlap => write!(f, "new ECC range overlaps an existing one"),
            RangeError::Empty => write!(f, "empty ECC range (base >= end)"),
        }
    }
}

impl std::error::Error for RangeError {}

/// The memory controller.
#[derive(Debug, Clone)]
pub struct MemoryController {
    /// Scheme for addresses outside every range (strong by default).
    default_scheme: EccScheme,
    ranges: Vec<EccRange>,
    /// Ring of recent uncorrectable-error records.
    errors: Vec<ErrorRecord>,
    /// Events dropped because the ring was full ("new errors flush away
    /// old ones", Section 3.1).
    pub errors_overwritten: u64,
    /// Interrupt pending flag (cleared by the OS handler).
    interrupt: bool,
    /// Functional backing store: encoded lines by line-aligned address.
    /// Ordered so that whole-store walks (scrubbing) visit lines in
    /// address order — error-register contents must not depend on hash
    /// iteration order.
    store: BTreeMap<u64, ProtectedLine>,
    map: AddressMap,
    /// Corrections performed by ECC logic (per scheme index).
    pub corrections: [u64; 3],
    /// Detected-uncorrectable events.
    pub uncorrectable: u64,
    /// Configured error-register depth (n; default [`ERROR_REGISTERS`]).
    error_depth: usize,
}

impl MemoryController {
    /// New controller with the given default (strong) scheme.
    pub fn new(map: AddressMap, default_scheme: EccScheme) -> Self {
        MemoryController {
            default_scheme,
            ranges: Vec::new(),
            errors: Vec::new(),
            errors_overwritten: 0,
            interrupt: false,
            store: BTreeMap::new(),
            map,
            corrections: [0; 3],
            uncorrectable: 0,
            error_depth: ERROR_REGISTERS,
        }
    }

    /// Reconfigure the error-register depth (the ablation studies sweep
    /// `n`; Section 3.1 sizes it so `n/2` or more events survive one
    /// ABFT examination period).
    pub fn set_error_depth(&mut self, n: usize) {
        assert!(n >= 1, "at least one error register");
        self.error_depth = n;
    }

    /// The configured error-register depth.
    pub fn error_depth(&self) -> usize {
        self.error_depth
    }

    /// The default scheme.
    pub fn default_scheme(&self) -> EccScheme {
        self.default_scheme
    }

    /// Change the default scheme (whole-memory reconfiguration).
    pub fn set_default_scheme(&mut self, scheme: EccScheme) {
        self.default_scheme = scheme;
    }

    /// Program a range register pair. Ranges must not overlap.
    pub fn program_range(
        &mut self,
        base: u64,
        end: u64,
        scheme: EccScheme,
    ) -> Result<(), RangeError> {
        if base >= end {
            return Err(RangeError::Empty);
        }
        if self.ranges.len() >= ECC_RANGE_SLOTS {
            return Err(RangeError::OutOfSlots);
        }
        if self.ranges.iter().any(|r| base < r.end && r.base < end) {
            return Err(RangeError::Overlap);
        }
        self.ranges.push(EccRange { base, end, scheme });
        self.audit();
        Ok(())
    }

    /// Replace the whole register file with `ranges`, under
    /// [`MemoryController::program_range`]'s checks; on the first range
    /// that fails one, the registers keep what they held.
    pub fn set_ranges(&mut self, ranges: &[EccRange]) -> Result<(), RangeError> {
        let held = std::mem::take(&mut self.ranges);
        for r in ranges {
            if let Err(e) = self.program_range(r.base, r.end, r.scheme) {
                self.ranges = held;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Remove the range registers starting at `base`.
    /// Returns true if a range was removed.
    pub fn clear_range(&mut self, base: u64) -> bool {
        let before = self.ranges.len();
        self.ranges.retain(|r| r.base != base);
        before != self.ranges.len()
    }

    /// Currently programmed ranges.
    pub fn ranges(&self) -> &[EccRange] {
        &self.ranges
    }

    /// Scheme applied to a physical address: range lookup, else default.
    /// This is the per-request check the MC performs for every cache-line
    /// read/write issued by the last-level cache.
    pub fn scheme_for(&self, paddr: u64) -> EccScheme {
        for r in &self.ranges {
            if paddr >= r.base && paddr < r.end {
                return r.scheme;
            }
        }
        self.default_scheme
    }

    /// [`MemoryController::scheme_for`] with its reach: `(lo, hi, scheme)`
    /// such that every address in `[lo, hi)` — `paddr` among them, below
    /// `u64::MAX` — gets `scheme`, so a caller sweeping lines can keep
    /// the answer until it leaves the span. Ranges before the matching
    /// one clip the span, which keeps it exact under `scheme_for`'s
    /// first-match order whatever the registers hold.
    pub(crate) fn scheme_span(&self, paddr: u64) -> (u64, u64, EccScheme) {
        let (mut lo, mut hi) = (0, u64::MAX);
        for r in &self.ranges {
            if paddr < r.base {
                hi = hi.min(r.base);
            } else if paddr >= r.end {
                lo = lo.max(r.end);
            } else {
                return (lo.max(r.base), hi.min(r.end), r.scheme);
            }
        }
        (lo, hi, self.default_scheme)
    }

    // ------------------------------------------------------------------
    // Functional (data-carrying) path
    // ------------------------------------------------------------------

    /// Store a 64-byte line, encoding it under the scheme its address
    /// currently maps to.
    pub fn write_line(&mut self, paddr: u64, data: &[u8; LINE_BYTES]) {
        let line = paddr & !(LINE_BYTES as u64 - 1);
        let scheme = self.scheme_for(line);
        self.store.insert(line, ProtectedLine::encode(scheme, data));
    }

    /// Read a line back through the ECC decoder. Uncorrectable errors are
    /// recorded in the error registers and raise the interrupt line.
    ///
    /// Returns the (possibly corrected) data and the outcome; absent lines
    /// read as zero.
    pub fn read_line(&mut self, paddr: u64, now_ns: f64) -> ([u8; LINE_BYTES], EccOutcome) {
        let line = paddr & !(LINE_BYTES as u64 - 1);
        let Some(stored) = self.store.get(&line) else {
            return ([0u8; LINE_BYTES], EccOutcome::Clean);
        };
        let scheme = stored.scheme();
        let (data, outcome) = stored.decode();
        match outcome {
            EccOutcome::Clean => {}
            EccOutcome::Corrected { .. } => {
                let idx = match scheme {
                    EccScheme::None => 0,
                    EccScheme::Secded => 1,
                    EccScheme::Chipkill => 2,
                };
                self.corrections[idx] += 1;
                // Write the corrected data back (scrub on correction).
                self.store.insert(line, ProtectedLine::encode(scheme, &data));
            }
            EccOutcome::DetectedUncorrectable => {
                self.uncorrectable += 1;
                self.record_error(line, now_ns);
            }
        }
        (data, outcome)
    }

    /// Mutate a stored line's raw bits (fault injection): flip `bit` of the
    /// stored data payload without updating redundancy.
    pub fn inject_bit_flip(&mut self, paddr: u64, bit: usize) {
        let line = paddr & !(LINE_BYTES as u64 - 1);
        let scheme = self.scheme_for(line);
        let entry = self
            .store
            .entry(line)
            .or_insert_with(|| ProtectedLine::encode(scheme, &[0u8; LINE_BYTES]));
        entry.flip_data_bit(bit);
    }

    /// Inject a whole-chip error into a stored chipkill line.
    pub fn inject_chip_fault(&mut self, paddr: u64, chip: usize, pattern: u8) {
        let line = paddr & !(LINE_BYTES as u64 - 1);
        if let Some(entry) = self.store.get_mut(&line) {
            entry.fail_chip(chip, pattern);
        }
    }

    /// Whether the address currently has a stored line.
    pub fn has_line(&self, paddr: u64) -> bool {
        self.store.contains_key(&(paddr & !(LINE_BYTES as u64 - 1)))
    }

    /// Background scrub pass over every stored line in `[base, end)`:
    /// each line is read through the decoder; correctable damage is healed
    /// and re-encoded before a second strike can compound it (the classic
    /// defense against SECDED double-bit accumulation). Returns
    /// `(lines_scrubbed, corrected, uncorrectable)`.
    pub fn scrub_range(&mut self, base: u64, end: u64, now_ns: f64) -> (u64, u64, u64) {
        // BTreeMap range: ascending address order, so repeated runs record
        // uncorrectable errors in the same sequence.
        let lines: Vec<u64> = self.store.range(base..end).map(|(a, _)| *a).collect();
        let mut corrected = 0;
        let mut uncorrectable = 0;
        for line in &lines {
            let (_, o) = self.read_line(*line, now_ns);
            match o {
                EccOutcome::Corrected { .. } => corrected += 1,
                EccOutcome::DetectedUncorrectable => uncorrectable += 1,
                EccOutcome::Clean => {}
            }
        }
        (lines.len() as u64, corrected, uncorrectable)
    }

    // ------------------------------------------------------------------
    // Error registers + interrupt
    // ------------------------------------------------------------------

    fn record_error(&mut self, line: u64, now_ns: f64) {
        let site = self.map.decode(line);
        if self.errors.len() == self.error_depth {
            self.errors.remove(0);
            self.errors_overwritten += 1;
        }
        self.errors.push(ErrorRecord { site, paddr: line, time_ns: now_ns });
        self.interrupt = true;
        self.audit();
    }

    /// Interrupt line state.
    pub fn interrupt_pending(&self) -> bool {
        self.interrupt
    }

    /// OS handler: read and drain the error registers, clearing the
    /// interrupt (memory-mapped register read in Section 3.2.1).
    pub fn take_errors(&mut self) -> Vec<ErrorRecord> {
        self.interrupt = false;
        std::mem::take(&mut self.errors)
    }

    /// Peek at the error registers without clearing.
    pub fn errors(&self) -> &[ErrorRecord] {
        &self.errors
    }

    /// Debug builds: the controller's architectural invariants after a
    /// register write or an error record (DESIGN.md §3.12). Backed by
    /// `debug_assert!`, so the checks vanish in release builds.
    fn audit(&self) {
        debug_assert!(
            self.errors.len() <= self.error_depth,
            "error ring holds {} records but depth is {}",
            self.errors.len(),
            self.error_depth
        );
        debug_assert!(
            self.ranges.len() <= ECC_RANGE_SLOTS,
            "{} programmed ranges exceed the {} register slots",
            self.ranges.len(),
            ECC_RANGE_SLOTS
        );
        for (i, r) in self.ranges.iter().enumerate() {
            debug_assert!(r.base < r.end, "range {i} is empty: {:#x}..{:#x}", r.base, r.end);
            for o in &self.ranges[i + 1..] {
                debug_assert!(
                    r.end <= o.base || o.end <= r.base,
                    "ranges overlap: {:#x}..{:#x} vs {:#x}..{:#x}",
                    r.base,
                    r.end,
                    o.base,
                    o.end
                );
            }
        }
        debug_assert!(
            self.store.keys().all(|a| a % LINE_BYTES as u64 == 0),
            "stored line address is not line-aligned"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn mc() -> MemoryController {
        MemoryController::new(AddressMap::new(&SystemConfig::default()), EccScheme::Chipkill)
    }

    #[test]
    fn default_scheme_applies_outside_ranges() {
        let mut m = mc();
        m.program_range(0x1000, 0x2000, EccScheme::None).unwrap();
        assert_eq!(m.scheme_for(0x0), EccScheme::Chipkill);
        assert_eq!(m.scheme_for(0x1000), EccScheme::None);
        assert_eq!(m.scheme_for(0x1FFF), EccScheme::None);
        assert_eq!(m.scheme_for(0x2000), EccScheme::Chipkill);
    }

    #[test]
    fn range_slots_are_limited_to_eight() {
        let mut m = mc();
        for i in 0..8u64 {
            m.program_range(i * 0x1000, i * 0x1000 + 0x1000, EccScheme::Secded).unwrap();
        }
        assert_eq!(
            m.program_range(0x100000, 0x101000, EccScheme::Secded),
            Err(RangeError::OutOfSlots)
        );
    }

    #[test]
    fn empty_ranges_rejected_as_typed_errors() {
        let mut m = mc();
        assert_eq!(m.program_range(0x2000, 0x2000, EccScheme::None), Err(RangeError::Empty));
        assert_eq!(m.program_range(0x3000, 0x2000, EccScheme::None), Err(RangeError::Empty));
        assert_eq!(RangeError::Empty.to_string(), "empty ECC range (base >= end)");
        assert!(m.ranges().is_empty());
    }

    #[test]
    fn overlapping_ranges_rejected() {
        let mut m = mc();
        m.program_range(0x1000, 0x3000, EccScheme::None).unwrap();
        assert_eq!(m.program_range(0x2000, 0x4000, EccScheme::Secded), Err(RangeError::Overlap));
        // Adjacent is fine.
        m.program_range(0x3000, 0x4000, EccScheme::Secded).unwrap();
    }

    #[test]
    fn clear_range_restores_the_default() {
        let mut m = mc();
        m.program_range(0x1000, 0x2000, EccScheme::None).unwrap();
        assert!(m.clear_range(0x1000));
        assert_eq!(m.scheme_for(0x1800), EccScheme::Chipkill);
        assert!(!m.clear_range(0x1000));
    }

    #[test]
    fn set_ranges_is_all_or_nothing() {
        let mut m = mc();
        let r = |base, end, scheme| EccRange { base, end, scheme };
        m.set_ranges(&[r(0x1000, 0x2000, EccScheme::None)]).unwrap();
        let held = m.ranges().to_vec();
        let nine: Vec<EccRange> =
            (0..9u64).map(|i| r(i << 16, (i << 16) + 0x1000, EccScheme::Secded)).collect();
        assert_eq!(m.set_ranges(&nine), Err(RangeError::OutOfSlots));
        let overlap = [r(0x0, 0x3000, EccScheme::None), r(0x2000, 0x4000, EccScheme::Secded)];
        assert_eq!(m.set_ranges(&overlap), Err(RangeError::Overlap));
        assert_eq!(m.set_ranges(&[r(0x5000, 0x5000, EccScheme::None)]), Err(RangeError::Empty));
        assert_eq!(m.ranges(), held);
        m.set_ranges(&nine[..8]).unwrap();
        assert_eq!(m.ranges().len(), 8);
        m.set_ranges(&[]).unwrap();
        assert!(m.ranges().is_empty());
    }

    #[test]
    fn functional_write_read_round_trip() {
        let mut m = mc();
        let data = [0xABu8; 64];
        m.write_line(0x4000, &data);
        let (out, o) = m.read_line(0x4000, 0.0);
        assert_eq!(out, data);
        assert_eq!(o, EccOutcome::Clean);
    }

    #[test]
    fn chipkill_corrects_injected_bit_and_scrubs() {
        let mut m = mc();
        let data = [0x5Au8; 64];
        m.write_line(0x4000, &data);
        m.inject_bit_flip(0x4000, 17);
        let (out, o) = m.read_line(0x4000, 1.0);
        assert_eq!(out, data);
        assert!(matches!(o, EccOutcome::Corrected { .. }));
        assert_eq!(m.corrections[2], 1);
        // Scrubbed: second read is clean.
        let (_, o2) = m.read_line(0x4000, 2.0);
        assert_eq!(o2, EccOutcome::Clean);
    }

    #[test]
    fn uncorrectable_error_records_site_and_interrupts() {
        let mut m = mc();
        m.program_range(0x0, 0x100000, EccScheme::Secded).unwrap();
        let data = [7u8; 64];
        m.write_line(0x8000, &data);
        // Two bits in the same 64-bit word defeat SECDED.
        m.inject_bit_flip(0x8000, 1);
        m.inject_bit_flip(0x8000, 2);
        let (_, o) = m.read_line(0x8000, 5.0);
        assert_eq!(o, EccOutcome::DetectedUncorrectable);
        assert!(m.interrupt_pending());
        let errs = m.take_errors();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].paddr, 0x8000);
        assert!((errs[0].time_ns - 5.0).abs() < 1e-9);
        assert!(!m.interrupt_pending());
        // Site round-trips through the address map.
        let map = AddressMap::new(&SystemConfig::default());
        assert_eq!(map.encode(&errs[0].site), 0x8000);
    }

    #[test]
    fn error_ring_overwrites_beyond_capacity() {
        let mut m = mc();
        m.set_default_scheme(EccScheme::Secded);
        for i in 0..8u64 {
            let addr = 0x10000 + i * 64;
            m.write_line(addr, &[1u8; 64]);
            m.inject_bit_flip(addr, 1);
            m.inject_bit_flip(addr, 2);
            let _ = m.read_line(addr, i as f64);
        }
        assert_eq!(m.errors().len(), ERROR_REGISTERS);
        assert_eq!(m.errors_overwritten, 2);
        // Oldest two were flushed away.
        assert!((m.errors()[0].time_ns - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scrubbing_prevents_double_bit_accumulation() {
        let mut m = mc();
        m.set_default_scheme(EccScheme::Secded);
        let data = [0x42u8; 64];
        m.write_line(0x9000, &data);
        // First strike.
        m.inject_bit_flip(0x9000, 10);
        // Scrub heals it before the second strike lands.
        let (n, corrected, bad) = m.scrub_range(0x0, u64::MAX, 1.0);
        assert_eq!((n, corrected, bad), (1, 1, 0));
        m.inject_bit_flip(0x9000, 50);
        let (out, o) = m.read_line(0x9000, 2.0);
        assert_eq!(out, data, "second strike alone is correctable");
        assert!(matches!(o, EccOutcome::Corrected { .. }));

        // Counterfactual: without the scrub the two strikes accumulate
        // into an uncorrectable double-bit error.
        let mut m2 = mc();
        m2.set_default_scheme(EccScheme::Secded);
        m2.write_line(0x9000, &data);
        m2.inject_bit_flip(0x9000, 10);
        m2.inject_bit_flip(0x9000, 50);
        let (_, o) = m2.read_line(0x9000, 2.0);
        assert_eq!(o, EccOutcome::DetectedUncorrectable);
    }

    #[test]
    fn error_depth_is_configurable() {
        let mut m = mc();
        m.set_default_scheme(EccScheme::Secded);
        m.set_error_depth(2);
        for i in 0..5u64 {
            let addr = 0x20000 + i * 64;
            m.write_line(addr, &[1u8; 64]);
            m.inject_bit_flip(addr, 1);
            m.inject_bit_flip(addr, 2);
            let _ = m.read_line(addr, i as f64);
        }
        assert_eq!(m.errors().len(), 2);
        assert_eq!(m.errors_overwritten, 3);
    }

    #[test]
    fn no_ecc_lines_corrupt_silently() {
        let mut m = mc();
        m.program_range(0x0, 0x100000, EccScheme::None).unwrap();
        let data = [9u8; 64];
        m.write_line(0x2000, &data);
        m.inject_bit_flip(0x2000, 100);
        let (out, o) = m.read_line(0x2000, 0.0);
        assert_eq!(o, EccOutcome::Clean);
        assert_ne!(out, data);
        assert!(!m.interrupt_pending());
    }
}
