//! Memory access traces and the region registry.
//!
//! Traces stand in for the paper's Pin instrumentation: each record is one
//! cache-line-granular data reference annotated with the data structure
//! (region) it belongs to and the compute work preceding it. Region tags
//! carry the ABFT-protection attribute used for the Table 4 classification
//! and for programming the ECC range registers.

/// Identifier of a data region (index into the [`RegionMap`]).
pub type RegionId = u16;

/// One traced data reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Virtual byte address (line-aligned accesses are not required;
    /// the cache model aligns internally).
    pub addr: u64,
    /// Region the address belongs to.
    pub region: RegionId,
    /// True for stores.
    pub write: bool,
    /// Non-memory instructions executed since the previous access
    /// (the compute-intensity annotation driving the IPC model).
    pub work: u32,
}

/// A named data region with an assigned virtual address range.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Human-readable name ("matrix_a", "krylov_r", "workspace", ...).
    pub name: String,
    /// Base virtual address (page aligned).
    pub base: u64,
    /// Extent in bytes.
    pub bytes: u64,
    /// Whether this structure is protected by ABFT — eligible for ECC
    /// relaxation via `malloc_ecc`.
    pub abft_protected: bool,
    /// Whether errors in this structure are *detectable* through the ABFT
    /// invariants even if it is not itself relaxed (e.g. FT-CG detects
    /// errors in `M` and `A` that propagate into the checked vectors).
    /// Drives the Table 4 classification. Always true when
    /// `abft_protected` is true.
    pub abft_detectable: bool,
}

impl Region {
    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.base + self.bytes
    }

    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Page size used for region alignment (4 KB frames, Section 3.1).
pub const PAGE_BYTES: u64 = 4096;

/// Registry of regions with non-overlapping, page-aligned address ranges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionMap {
    regions: Vec<Region>,
    next_base: u64,
}

impl RegionMap {
    /// Create an empty map; allocation starts at a nonzero base so that
    /// address 0 is never valid data.
    pub fn new() -> Self {
        RegionMap { regions: Vec::new(), next_base: 0x1000_0000 }
    }

    /// Allocate a new region of `bytes`, page aligned, returning its id.
    pub fn alloc(&mut self, name: &str, bytes: u64, abft_protected: bool) -> RegionId {
        self.alloc_with(name, bytes, abft_protected, abft_protected)
    }

    /// Allocate with an explicit detectability flag (`abft_detectable` is
    /// forced true whenever `abft_protected` is).
    pub fn alloc_with(
        &mut self,
        name: &str,
        bytes: u64,
        abft_protected: bool,
        abft_detectable: bool,
    ) -> RegionId {
        let id = self.regions.len();
        assert!(id < u16::MAX as usize, "too many regions");
        let base = self.next_base;
        let padded = bytes.div_ceil(PAGE_BYTES) * PAGE_BYTES;
        self.next_base = base + padded + PAGE_BYTES; // one guard page between
        self.regions.push(Region {
            name: name.to_string(),
            base,
            bytes: padded.max(PAGE_BYTES),
            abft_protected,
            abft_detectable: abft_detectable || abft_protected,
        });
        id as RegionId
    }

    /// Rebuild a map from explicit regions (trace deserialization).
    pub fn from_regions(regions: Vec<Region>) -> Self {
        let next_base = regions.iter().map(|r| r.end() + PAGE_BYTES).max().unwrap_or(0x1000_0000);
        RegionMap { regions, next_base }
    }

    /// All regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Region by id.
    pub fn get(&self, id: RegionId) -> &Region {
        &self.regions[id as usize]
    }

    /// Find the region containing an address.
    pub fn find(&self, addr: u64) -> Option<RegionId> {
        self.regions.iter().position(|r| r.contains(addr)).map(|i| i as RegionId)
    }
}

/// A materialized trace: the region registry plus the whole reference
/// stream, 16 bytes a record. The product never holds one — kernels stream
/// ([`crate::workloads::KernelStream`]) or pack
/// ([`crate::packed::PackedTrace`]). This is the reference the equivalence
/// suites compare those against and the fixture hand-written tests `push`
/// into; [`Trace::from_source`] materializes any stream and
/// [`Trace::replay`] streams a trace back.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Region registry.
    pub regions: RegionMap,
    /// The reference stream.
    pub accesses: Vec<Access>,
    /// Total retired instructions represented by the trace (work + one per
    /// memory reference).
    pub instructions: u64,
}

impl Trace {
    /// Create an empty trace over a region map.
    pub fn new(regions: RegionMap) -> Self {
        Trace { regions, accesses: Vec::new(), instructions: 0 }
    }

    /// Append a reference.
    pub fn push(&mut self, addr: u64, region: RegionId, write: bool, work: u32) {
        self.accesses.push(Access { addr, region, write, work });
        self.instructions += work as u64 + 1;
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True when no references were recorded.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_page_aligned_and_disjoint() {
        let mut m = RegionMap::new();
        let a = m.alloc("a", 100, true);
        let b = m.alloc("b", 8192, false);
        let ra = m.get(a).clone();
        let rb = m.get(b).clone();
        assert_eq!(ra.base % PAGE_BYTES, 0);
        assert_eq!(rb.base % PAGE_BYTES, 0);
        assert!(ra.end() <= rb.base, "regions must not overlap");
        assert!(ra.bytes >= 100 && ra.bytes.is_multiple_of(PAGE_BYTES));
    }

    #[test]
    fn find_resolves_addresses() {
        let mut m = RegionMap::new();
        let a = m.alloc("a", 4096, true);
        let b = m.alloc("b", 4096, false);
        assert_eq!(m.find(m.get(a).base + 10), Some(a));
        assert_eq!(m.find(m.get(b).base), Some(b));
        assert_eq!(m.find(0), None);
        // Guard page between regions resolves to nothing.
        assert_eq!(m.find(m.get(a).end()), None);
    }

    #[test]
    fn push_counts_instructions() {
        let mut t = Trace::new(RegionMap::new());
        let r = t.regions.alloc("x", 64, false);
        let base = t.regions.get(r).base;
        t.push(base, r, true, 7);
        assert_eq!(t.instructions, 8);
        assert!(!t.is_empty());
    }
}
