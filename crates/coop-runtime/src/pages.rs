//! Physical page-frame allocation and the per-page ECC attribute.
//!
//! `malloc_ecc` "allocates contiguous physical pages" (Section 3.2.1); the
//! allocator hands out contiguous frame runs and the page table remembers
//! each page's ECC type ("such that data can be fetched into physical
//! memory devices with desired ECC protection").

use abft_ecc::EccScheme;
use std::collections::BTreeMap;

/// Page size (4 KB frames).
pub const PAGE_BYTES: u64 = 4096;

/// A contiguous run of physical frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRun {
    /// First frame index.
    pub first_frame: u64,
    /// Number of frames.
    pub frames: u64,
}

impl FrameRun {
    /// Base physical address.
    pub fn base_paddr(&self) -> u64 {
        self.first_frame * PAGE_BYTES
    }

    /// Extent in bytes.
    pub fn bytes(&self) -> u64 {
        self.frames * PAGE_BYTES
    }
}

/// First-fit contiguous frame allocator over a fixed physical capacity.
#[derive(Debug)]
pub struct FrameAllocator {
    total_frames: u64,
    /// Free runs keyed by first frame (coalesced on free).
    free: BTreeMap<u64, u64>,
}

impl FrameAllocator {
    /// All frames of `capacity_bytes` start free.
    pub fn new(capacity_bytes: u64) -> Self {
        let total_frames = capacity_bytes / PAGE_BYTES;
        let mut free = BTreeMap::new();
        free.insert(0, total_frames);
        FrameAllocator { total_frames, free }
    }

    /// Allocate a contiguous run covering `bytes` (rounded up to frames).
    pub fn alloc(&mut self, bytes: u64) -> Option<FrameRun> {
        let need = bytes.div_ceil(PAGE_BYTES).max(1);
        let slot = self.free.iter().find(|(_, &len)| len >= need).map(|(&f, &len)| (f, len));
        let (first, len) = slot?;
        self.free.remove(&first);
        if len > need {
            self.free.insert(first + need, len - need);
        }
        Some(FrameRun { first_frame: first, frames: need })
    }

    /// Return a run to the free pool, coalescing with neighbours.
    pub fn free(&mut self, run: FrameRun) {
        let mut first = run.first_frame;
        let mut frames = run.frames;
        // Coalesce with the run immediately after.
        if let Some(&next_len) = self.free.get(&(first + frames)) {
            self.free.remove(&(first + frames));
            frames += next_len;
        }
        // Coalesce with the run immediately before.
        if let Some((&prev_first, &prev_len)) = self.free.range(..first).next_back() {
            if prev_first + prev_len == first {
                self.free.remove(&prev_first);
                first = prev_first;
                frames += prev_len;
            }
        }
        self.free.insert(first, frames);
    }

    /// Free frames remaining.
    pub fn free_frames(&self) -> u64 {
        self.free.values().sum()
    }

    /// Total frames managed.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }
}

/// Per-page metadata: backing frame and ECC type (kept "in the page data
/// structure such that data can be fetched into physical memory devices
/// with desired ECC protection").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// Physical frame index.
    pub frame: u64,
    /// ECC protection of the frame.
    pub ecc: EccScheme,
}

/// A flat page table: virtual page number -> entry.
#[derive(Debug, Default)]
pub struct PageTable {
    entries: BTreeMap<u64, PageEntry>,
}

impl PageTable {
    /// Map `pages` consecutive virtual pages starting at `vpage` onto the
    /// frames of `run` with the given ECC type.
    pub fn map_run(&mut self, vpage: u64, run: FrameRun, ecc: EccScheme) {
        for i in 0..run.frames {
            self.entries.insert(vpage + i, PageEntry { frame: run.first_frame + i, ecc });
        }
    }

    /// Remove the mapping for `pages` pages at `vpage`.
    pub fn unmap(&mut self, vpage: u64, pages: u64) {
        for i in 0..pages {
            self.entries.remove(&(vpage + i));
        }
    }

    /// Translate a virtual address; `None` on a fault.
    pub fn translate(&self, vaddr: u64) -> Option<u64> {
        let e = self.entries.get(&(vaddr / PAGE_BYTES))?;
        Some(e.frame * PAGE_BYTES + vaddr % PAGE_BYTES)
    }

    /// Reverse-translate a physical address (the interrupt path works from
    /// fault sites back to virtual addresses).
    pub fn reverse(&self, paddr: u64) -> Option<u64> {
        let frame = paddr / PAGE_BYTES;
        self.entries
            .iter()
            .find(|(_, e)| e.frame == frame)
            .map(|(vpage, _)| vpage * PAGE_BYTES + paddr % PAGE_BYTES)
    }

    /// Update the ECC attribute of `pages` pages at `vpage`.
    pub fn set_ecc(&mut self, vpage: u64, pages: u64, ecc: EccScheme) {
        for i in 0..pages {
            if let Some(e) = self.entries.get_mut(&(vpage + i)) {
                e.ecc = ecc;
            }
        }
    }

    /// The ECC attribute of the page containing `vaddr`.
    pub fn ecc_of(&self, vaddr: u64) -> Option<EccScheme> {
        self.entries.get(&(vaddr / PAGE_BYTES)).map(|e| e.ecc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_contiguous_and_exact() {
        let mut a = FrameAllocator::new(64 * PAGE_BYTES);
        let r1 = a.alloc(3 * PAGE_BYTES + 1).unwrap();
        assert_eq!(r1.frames, 4, "rounded up");
        let r2 = a.alloc(PAGE_BYTES).unwrap();
        assert_eq!(r2.first_frame, r1.first_frame + r1.frames, "first fit packs");
        assert_eq!(a.free_frames(), 64 - 5);
    }

    #[test]
    fn free_coalesces() {
        let mut a = FrameAllocator::new(16 * PAGE_BYTES);
        let r1 = a.alloc(4 * PAGE_BYTES).unwrap();
        let r2 = a.alloc(4 * PAGE_BYTES).unwrap();
        let r3 = a.alloc(4 * PAGE_BYTES).unwrap();
        a.free(r1);
        a.free(r3);
        a.free(r2); // middle: both sides coalesce
        assert_eq!(a.free_frames(), 16);
        // Whole capacity allocatable again in one run.
        let big = a.alloc(16 * PAGE_BYTES).unwrap();
        assert_eq!(big.frames, 16);
    }

    #[test]
    fn alloc_exhaustion_returns_none() {
        let mut a = FrameAllocator::new(2 * PAGE_BYTES);
        assert!(a.alloc(3 * PAGE_BYTES).is_none());
        assert!(a.alloc(2 * PAGE_BYTES).is_some());
        assert!(a.alloc(1).is_none());
    }

    #[test]
    fn page_table_translate_and_reverse() {
        let mut pt = PageTable::default();
        let run = FrameRun { first_frame: 10, frames: 2 };
        pt.map_run(100, run, EccScheme::Secded);
        let v = 100 * PAGE_BYTES + 123;
        let p = pt.translate(v).unwrap();
        assert_eq!(p, 10 * PAGE_BYTES + 123);
        assert_eq!(pt.reverse(p), Some(v));
        assert_eq!(pt.ecc_of(v), Some(EccScheme::Secded));
        assert_eq!(pt.translate(99 * PAGE_BYTES), None);
    }

    #[test]
    fn set_ecc_updates_attribute() {
        let mut pt = PageTable::default();
        pt.map_run(5, FrameRun { first_frame: 0, frames: 3 }, EccScheme::Chipkill);
        pt.set_ecc(5, 3, EccScheme::None);
        assert_eq!(pt.ecc_of(5 * PAGE_BYTES), Some(EccScheme::None));
        assert_eq!(pt.ecc_of(7 * PAGE_BYTES + 64), Some(EccScheme::None));
    }

    #[test]
    fn unmap_removes_entries() {
        let mut pt = PageTable::default();
        pt.map_run(0, FrameRun { first_frame: 0, frames: 4 }, EccScheme::Secded);
        pt.unmap(0, 4);
        assert_eq!(pt.translate(0), None);
    }
}
