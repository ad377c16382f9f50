//! The cooperative runtime: the paper's three ECC control APIs
//! (`malloc_ecc`, `free_ecc`, `assign_ecc`), the OS interrupt handler, and
//! the sysfs-like error channel to the ABFT layer (Section 3.2.1).

use crate::pages::{FrameAllocator, FrameRun, PageTable, PAGE_BYTES};
use crate::sysfs::{ErrorReport, SysfsChannel};
use abft_ecc::{EccOutcome, EccScheme};
use abft_memsim::controller::{EccRange, MemoryController, RangeError};
use abft_memsim::dram::AddressMap;
use abft_memsim::SystemConfig;

/// Handle to a `malloc_ecc` allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocId(pub u32);

/// Metadata for one live allocation.
#[derive(Debug, Clone)]
struct Allocation {
    vaddr: u64,
    bytes: u64,
    paddr: u64,
    frames: u64,
    scheme: EccScheme,
    name: String,
}

impl Allocation {
    /// The physical extent and the scheme it asks the MC for.
    fn extent(&self) -> EccRange {
        EccRange {
            base: self.paddr,
            end: self.paddr + self.frames * PAGE_BYTES,
            scheme: self.scheme,
        }
    }
}

/// Runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Physical memory exhausted.
    OutOfMemory,
    /// The MC refused the register set the call needs; only
    /// [`RangeError::OutOfSlots`] means the 8 register pairs ran out.
    Range(RangeError),
    /// Unknown allocation handle.
    BadHandle,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::OutOfMemory => write!(f, "physical memory exhausted"),
            RuntimeError::Range(e) => write!(f, "ECC range registers: {e}"),
            RuntimeError::BadHandle => write!(f, "unknown allocation handle"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<RangeError> for RuntimeError {
    fn from(e: RangeError) -> Self {
        RuntimeError::Range(e)
    }
}

/// What the OS did with a batch of uncorrectable-error interrupts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InterruptOutcome {
    /// Errors exposed to ABFT through the sysfs channel.
    pub exposed: Vec<ErrorReport>,
    /// Errors in non-ABFT data: the system would panic (the traditional
    /// path); the experiment layer treats each as a crash + restart.
    pub panics: u64,
}

/// The cooperative OS/runtime state for one node.
pub struct EccRuntime {
    /// The enhanced memory controller (owns the functional line store).
    pub controller: MemoryController,
    frames: FrameAllocator,
    /// OS page table.
    pub page_table: PageTable,
    allocs: Vec<Option<Allocation>>,
    next_vpage: u64,
    sysfs: SysfsChannel,
    /// Count of interrupts serviced.
    pub interrupts_serviced: u64,
}

impl EccRuntime {
    /// Bring up a node: strong default ECC everywhere, empty page table.
    pub fn new(cfg: &SystemConfig) -> Self {
        let map = AddressMap::new(cfg);
        EccRuntime {
            controller: MemoryController::new(map, EccScheme::Chipkill),
            frames: FrameAllocator::new(cfg.capacity_bytes),
            page_table: PageTable::default(),
            allocs: Vec::new(),
            next_vpage: 0x1000, // skip low virtual pages
            sysfs: SysfsChannel::new(),
            interrupts_serviced: 0,
        }
    }

    /// A clonable handle to the sysfs error channel (the ABFT layer's end).
    pub fn sysfs(&self) -> SysfsChannel {
        self.sysfs.clone()
    }

    /// `void *malloc_ecc(size_t n, int ecc_type)`: allocate contiguous
    /// physical pages, program the MC range registers, and record the
    /// mapping. Returns the allocation handle and its virtual address.
    /// An `Err` leaves the runtime as it was.
    ///
    /// # Examples
    /// ```
    /// use abft_coop_runtime::EccRuntime;
    /// use abft_ecc::EccScheme;
    /// use abft_memsim::SystemConfig;
    ///
    /// let mut rt = EccRuntime::new(&SystemConfig::default());
    /// let (id, _vaddr) = rt.malloc_ecc("matrix", 1 << 20, EccScheme::None).unwrap();
    /// assert_eq!(rt.scheme_of(id), Some(EccScheme::None));
    /// assert_eq!(rt.controller.ranges().len(), 1); // one range register pair
    /// ```
    pub fn malloc_ecc(
        &mut self,
        name: &str,
        bytes: u64,
        ecc_type: EccScheme,
    ) -> Result<(AllocId, u64), RuntimeError> {
        let run = self.frames.alloc(bytes).ok_or(RuntimeError::OutOfMemory)?;
        let extent = EccRange {
            base: run.base_paddr(),
            end: run.base_paddr() + run.bytes(),
            scheme: ecc_type,
        };
        if let Err(e) = self.program_ranges(None, Some(extent)) {
            self.frames.free(run);
            return Err(e);
        }
        let vaddr = self.next_vpage * PAGE_BYTES;
        self.next_vpage += run.frames + 1; // guard page
        self.page_table.map_run(vaddr / PAGE_BYTES, run, ecc_type);
        let id = AllocId(self.allocs.len() as u32);
        self.allocs.push(Some(Allocation {
            vaddr,
            bytes,
            paddr: run.base_paddr(),
            frames: run.frames,
            scheme: ecc_type,
            name: name.to_string(),
        }));
        Ok((id, vaddr))
    }

    /// `void free_ecc(void *ptr)`: release the pages and their share of
    /// the MC range registers.
    ///
    /// Neighbours of one scheme share a register pair, so freeing the
    /// middle of a merged run splits it and needs one more pair. With all
    /// 8 in use that fails with [`RangeError::OutOfSlots`] and, like every
    /// `Err` here, leaves the runtime as it was: free an end of the run, or
    /// another allocation, first.
    pub fn free_ecc(&mut self, id: AllocId) -> Result<(), RuntimeError> {
        let a = self.live(id)?;
        let (vpage, run) = (
            a.vaddr / PAGE_BYTES,
            FrameRun { first_frame: a.paddr / PAGE_BYTES, frames: a.frames },
        );
        self.program_ranges(Some(id), None)?;
        self.allocs[id.0 as usize] = None;
        self.page_table.unmap(vpage, run.frames);
        self.frames.free(run);
        Ok(())
    }

    /// `void assign_ecc(void *ptr, int ecc_type)`: retune the protection of
    /// a live allocation ("dynamic refinement of ECC protection"). An
    /// `Err` leaves the runtime as it was.
    ///
    /// The stored lines are re-encoded under the new scheme — the
    /// compatible data layout of Section 3.1 means switching schemes "does
    /// not disrupt existing data".
    pub fn assign_ecc(&mut self, id: AllocId, ecc_type: EccScheme) -> Result<(), RuntimeError> {
        let a = self.live(id)?;
        let (paddr, frames, vaddr) = (a.paddr, a.frames, a.vaddr);
        let retuned = EccRange { scheme: ecc_type, ..a.extent() };
        self.program_ranges(Some(id), Some(retuned))?;
        if let Some(a) = &mut self.allocs[id.0 as usize] {
            a.scheme = ecc_type;
        }
        self.page_table.set_ecc(vaddr / PAGE_BYTES, frames, ecc_type);
        // Re-encode any stored lines under the new scheme.
        for off in (0..frames * PAGE_BYTES).step_by(64) {
            let line = paddr + off;
            if self.controller.has_line(line) {
                let (data, _) = self.controller.read_line(line, 0.0);
                self.controller.write_line(line, &data);
            }
        }
        Ok(())
    }

    fn live(&self, id: AllocId) -> Result<&Allocation, RuntimeError> {
        self.allocs.get(id.0 as usize).and_then(|s| s.as_ref()).ok_or(RuntimeError::BadHandle)
    }

    /// The one place the range registers are written: they are a function
    /// of the allocation table. The table here is the live allocations
    /// minus `without` plus `with`; each maximal run of physically
    /// contiguous extents sharing a non-default scheme gets one register
    /// pair — "their address ranges may be combined to use the same ECC
    /// registers" (Section 3.2.1) — and the MC takes the whole set or, on
    /// any [`RangeError`], keeps the one it had.
    fn program_ranges(
        &mut self,
        without: Option<AllocId>,
        with: Option<EccRange>,
    ) -> Result<(), RuntimeError> {
        let default = self.controller.default_scheme();
        let mut extents: Vec<EccRange> = self
            .allocs
            .iter()
            .enumerate()
            .filter(|&(i, _)| without != Some(AllocId(i as u32)))
            .filter_map(|(_, a)| a.as_ref().map(Allocation::extent))
            .chain(with)
            .filter(|r| r.scheme != default)
            .collect();
        extents.sort_by_key(|r| r.base);
        let mut ranges: Vec<EccRange> = Vec::new();
        for r in extents {
            match ranges.last_mut() {
                Some(last) if last.end == r.base && last.scheme == r.scheme => last.end = r.end,
                _ => ranges.push(r),
            }
        }
        Ok(self.controller.set_ranges(&ranges)?)
    }

    /// The ECC scheme a live allocation currently has.
    pub fn scheme_of(&self, id: AllocId) -> Option<EccScheme> {
        self.allocs.get(id.0 as usize)?.as_ref().map(|a| a.scheme)
    }

    /// Virtual base address of an allocation.
    pub fn vaddr_of(&self, id: AllocId) -> Option<u64> {
        self.allocs.get(id.0 as usize)?.as_ref().map(|a| a.vaddr)
    }

    // ------------------------------------------------------------------
    // Data path (functional mode)
    // ------------------------------------------------------------------

    /// Store a slice of doubles into an allocation through the MC encoder.
    pub fn store_f64(&mut self, id: AllocId, data: &[f64]) -> Result<(), RuntimeError> {
        let a = self.live(id)?;
        assert!(data.len() as u64 * 8 <= a.bytes, "slice larger than allocation");
        let paddr = a.paddr;
        for (i, chunk) in data.chunks(8).enumerate() {
            let mut line = [0u8; 64];
            for (j, &v) in chunk.iter().enumerate() {
                line[j * 8..j * 8 + 8].copy_from_slice(&v.to_le_bytes());
            }
            self.controller.write_line(paddr + i as u64 * 64, &line);
        }
        Ok(())
    }

    /// Load a slice of doubles back through the ECC decoder. The second
    /// element of the pair is the merged outcome over all lines.
    pub fn load_f64(
        &mut self,
        id: AllocId,
        len: usize,
        now_ns: f64,
    ) -> Result<(Vec<f64>, EccOutcome), RuntimeError> {
        let a = self.live(id)?;
        let paddr = a.paddr;
        let mut out = Vec::with_capacity(len);
        let mut merged = EccOutcome::Clean;
        for i in 0..len.div_ceil(8) {
            let (line, o) = self.controller.read_line(paddr + i as u64 * 64, now_ns);
            merged = merged.merge(o);
            for j in 0..8 {
                if out.len() < len {
                    #[expect(
                        clippy::expect_used,
                        reason = "8-byte slice of a 64-byte line; infallible by construction"
                    )]
                    out.push(f64::from_le_bytes(line[j * 8..j * 8 + 8].try_into().expect("8B")));
                }
            }
        }
        Ok((out, merged))
    }

    /// Flip one stored bit of element `elem` (fault injection at the
    /// physical level — redundancy is left stale, as a real upset would).
    pub fn inject_element_bit(&mut self, id: AllocId, elem: usize, bit: u32) {
        #[expect(
            clippy::expect_used,
            reason = "injection API contract: callers pass a live AllocId"
        )]
        let a = self.allocs[id.0 as usize].as_ref().expect("live allocation");
        let byte_addr = a.paddr + elem as u64 * 8;
        let line = byte_addr & !63;
        let bit_in_line = ((byte_addr - line) * 8 + bit as u64) as usize;
        self.controller.inject_bit_flip(line, bit_in_line);
    }

    // ------------------------------------------------------------------
    // Interrupt path
    // ------------------------------------------------------------------

    /// Service the MC interrupt: read the error registers, derive virtual
    /// addresses via the OS address mapping + page tables, and either
    /// expose each error to ABFT (sysfs) or count a panic.
    pub fn handle_interrupt(&mut self, now_s: f64) -> InterruptOutcome {
        if !self.controller.interrupt_pending() {
            return InterruptOutcome::default();
        }
        self.interrupts_serviced += 1;
        let mut out = InterruptOutcome::default();
        for rec in self.controller.take_errors() {
            let Some(vaddr) = self.page_table.reverse(rec.paddr) else {
                out.panics += 1;
                continue;
            };
            // Is the page ABFT-managed (allocated via malloc_ecc)?
            let hit = self
                .allocs
                .iter()
                .flatten()
                .find(|a| vaddr >= a.vaddr && vaddr < a.vaddr + a.frames * PAGE_BYTES);
            match hit {
                Some(a) => {
                    let report = ErrorReport {
                        vaddr,
                        alloc_vaddr: a.vaddr,
                        element: ((vaddr - a.vaddr) / 8) as usize,
                        name: a.name.clone(),
                        time_s: now_s,
                    };
                    self.sysfs.publish(report.clone());
                    out.exposed.push(report);
                }
                None => out.panics += 1,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> EccRuntime {
        EccRuntime::new(&SystemConfig::default())
    }

    #[test]
    fn malloc_programs_range_registers() {
        let mut r = rt();
        let (id, vaddr) = r.malloc_ecc("matrix", 1 << 20, EccScheme::None).unwrap();
        assert_eq!(vaddr % PAGE_BYTES, 0);
        assert_eq!(r.scheme_of(id), Some(EccScheme::None));
        assert_eq!(r.controller.ranges().len(), 1);
        // Physical range resolves to the relaxed scheme.
        let paddr = r.page_table.translate(vaddr).unwrap();
        assert_eq!(r.controller.scheme_for(paddr), EccScheme::None);
    }

    #[test]
    fn default_scheme_allocs_use_no_register() {
        let mut r = rt();
        let (_, _) = r.malloc_ecc("os_data", 4096, EccScheme::Chipkill).unwrap();
        assert_eq!(r.controller.ranges().len(), 0);
    }

    #[test]
    fn range_registers_are_scarce() {
        let mut r = rt();
        // Alternating schemes defeat coalescing: each allocation needs its
        // own register pair.
        for i in 0..8 {
            let scheme = if i % 2 == 0 { EccScheme::Secded } else { EccScheme::None };
            r.malloc_ecc(&format!("a{i}"), 4096, scheme).unwrap();
        }
        let err = r.malloc_ecc("one_too_many", 4096, EccScheme::Secded).unwrap_err();
        assert_eq!(err, RuntimeError::Range(RangeError::OutOfSlots));
        assert_eq!(
            err.to_string(),
            "ECC range registers: all 8 ECC range register slots are in use"
        );
    }

    #[test]
    fn same_scheme_allocations_share_a_register() {
        // Section 3.2.1: "their address ranges may be combined to use the
        // same ECC registers" — 20 same-scheme structures, 1 register.
        let mut r = rt();
        for i in 0..20 {
            r.malloc_ecc(&format!("vec{i}"), 4096, EccScheme::None).unwrap();
        }
        assert_eq!(r.controller.ranges().len(), 1);
    }

    #[test]
    fn free_releases_register_and_frames() {
        let mut r = rt();
        let before = r.frames.free_frames();
        let (id, _) = r.malloc_ecc("m", 1 << 20, EccScheme::Secded).unwrap();
        r.free_ecc(id).unwrap();
        assert_eq!(r.controller.ranges().len(), 0);
        assert_eq!(r.frames.free_frames(), before);
        assert_eq!(r.free_ecc(id), Err(RuntimeError::BadHandle));
    }

    #[test]
    fn store_load_round_trip_through_real_ecc() {
        let mut r = rt();
        let (id, _) = r.malloc_ecc("v", 4096, EccScheme::Secded).unwrap();
        let data: Vec<f64> = (0..100).map(|i| i as f64 * 1.5).collect();
        r.store_f64(id, &data).unwrap();
        let (back, o) = r.load_f64(id, 100, 0.0).unwrap();
        assert_eq!(back, data);
        assert_eq!(o, EccOutcome::Clean);
    }

    #[test]
    fn secded_corrects_single_injected_bit() {
        let mut r = rt();
        let (id, _) = r.malloc_ecc("v", 4096, EccScheme::Secded).unwrap();
        let data = vec![3.25f64; 64];
        r.store_f64(id, &data).unwrap();
        r.inject_element_bit(id, 10, 17);
        let (back, o) = r.load_f64(id, 64, 0.0).unwrap();
        assert_eq!(back, data, "SECDED repaired the flip");
        assert!(matches!(o, EccOutcome::Corrected { .. }));
    }

    #[test]
    fn no_ecc_flip_is_silent_and_abft_visible_only() {
        let mut r = rt();
        let (id, _) = r.malloc_ecc("v", 4096, EccScheme::None).unwrap();
        let data = vec![1.0f64; 64];
        r.store_f64(id, &data).unwrap();
        r.inject_element_bit(id, 5, 52);
        let (back, o) = r.load_f64(id, 64, 0.0).unwrap();
        assert_eq!(o, EccOutcome::Clean, "no ECC, no detection");
        assert_ne!(back[5], 1.0, "value silently corrupted — ABFT's job now");
    }

    #[test]
    fn uncorrectable_error_reaches_sysfs_with_element_index() {
        let mut r = rt();
        let (id, _) = r.malloc_ecc("matrix_c", 4096, EccScheme::Secded).unwrap();
        let data = vec![2.0f64; 512];
        r.store_f64(id, &data).unwrap();
        // Two bits in the same 64-bit word: SECDED-uncorrectable.
        r.inject_element_bit(id, 42, 3);
        r.inject_element_bit(id, 42, 7);
        let (_, o) = r.load_f64(id, 512, 1e6).unwrap();
        assert_eq!(o, EccOutcome::DetectedUncorrectable);
        let out = r.handle_interrupt(1.0);
        assert_eq!(out.panics, 0);
        assert_eq!(out.exposed.len(), 1);
        // The report localizes the error to the cache line: element index
        // points into the corrupted line (42 lives in line 5 = elems 40-47).
        let e = &out.exposed[0];
        assert_eq!(e.name, "matrix_c");
        assert!(e.element >= 40 && e.element < 48, "element {}", e.element);
        // The ABFT layer sees it through its own channel.
        let polled = r.sysfs().poll();
        assert_eq!(polled.len(), 1);
        assert_eq!(polled[0].element, e.element);
    }

    #[test]
    fn error_outside_abft_allocations_panics() {
        let mut r = rt();
        // Write + corrupt a line in physical memory that has no page-table
        // mapping at all (firmware hole): reverse lookup fails -> panic.
        let hole = 0x7000_0000u64;
        r.controller.set_default_scheme(EccScheme::Secded);
        r.controller.write_line(hole, &[9u8; 64]);
        r.controller.inject_bit_flip(hole, 0);
        r.controller.inject_bit_flip(hole, 1);
        let _ = r.controller.read_line(hole, 0.0);
        let out = r.handle_interrupt(0.0);
        assert_eq!(out.panics, 1);
        assert!(out.exposed.is_empty());
    }

    #[test]
    fn assign_ecc_reencodes_and_switches_registers() {
        let mut r = rt();
        let (id, vaddr) = r.malloc_ecc("m", 4096, EccScheme::None).unwrap();
        let data = vec![5.5f64; 128];
        r.store_f64(id, &data).unwrap();
        r.assign_ecc(id, EccScheme::Secded).unwrap();
        assert_eq!(r.scheme_of(id), Some(EccScheme::Secded));
        let paddr = r.page_table.translate(vaddr).unwrap();
        assert_eq!(r.controller.scheme_for(paddr), EccScheme::Secded);
        // Data survived the transition and is now SECDED-protected.
        let (back, o) = r.load_f64(id, 128, 0.0).unwrap();
        assert_eq!(back, data);
        assert_eq!(o, EccOutcome::Clean);
        r.inject_element_bit(id, 3, 9);
        let (back, o) = r.load_f64(id, 128, 0.0).unwrap();
        assert_eq!(back, data);
        assert!(matches!(o, EccOutcome::Corrected { .. }));
    }
}
