//! Packed 8-byte access encoding and the compact trace store.
//!
//! A materialized [`Access`] costs 16 bytes (8 addr + 4 work + 2 region +
//! 1 write + padding), and a `Vec<Access>` built by `push` carries up to
//! 2x more in growth slack. Kernel reference streams are far more regular
//! than that: addresses sit inside registered regions (so a
//! region-relative offset suffices), region counts are tiny, and
//! per-access work annotations are small. One `u64` holds a whole run:
//!
//! ```text
//! bits 63..31  offset   33 bits — byte offset from the region base (≤ 8 GB)
//! bits 30..23  run       8 bits — run length minus one (see below)
//! bits 22..17  region    6 bits — region id (≤ 64 regions per trace)
//! bit  16      write     1 bit
//! bits 15..0   work     16 bits — instructions since the previous access
//! ```
//!
//! The `run` field is the second lever: kernel reference streams are
//! dominated by line sweeps (consecutive 64-byte lines, identical
//! region/write/work — exactly what [`AccessSink::emit_span`] produces),
//! so one word encodes up to 256 consecutive accesses. Replay expands
//! runs back into individual [`Access`] records, so the compression is
//! invisible to consumers — bit-identical to the materialized original,
//! asserted lossless at pack time — or, to a consumer that asks
//! ([`AccessSource::fill_runs`]: the L1 → L2 walker), hands the runs out
//! as they are stored.
//!
//! [`PackedTrace`] stores the words in fixed-size segments with *zero*
//! growth slack (full segments are boxed exact-size). It converts two
//! ways and no more: [`PackedTrace::from_source`] packs any stream (the
//! kernels emit straight into a [`PackedBuilder`] instead) and
//! [`PackedTrace::replay`] streams it back. The run-coalescing rule lives
//! once, in the crate's `Coalescer`, generic over where a sealed word
//! goes: a builder's segments, nowhere (a count), or a `.trace` blob on
//! its way to disk, so a filter pass can write the blob without holding
//! the trace. Between the 8-byte
//! word (vs 16-byte `Access` structs plus up to 2x `Vec` doubling slack)
//! and run coalescing, resident trace footprints drop well over 3x on
//! the default kernel grid (`tests/streaming_equivalence.rs` holds the 3x
//! floor; perfbench reports `packed.bytes_per_access`).

use crate::stream::{AccessSink, AccessSource, Run, RunChunk, DEFAULT_CHUNK};
use crate::trace::{Access, RegionId, RegionMap};
use std::sync::Arc;

const WORK_BITS: u32 = 16;
const WRITE_SHIFT: u32 = 16;
const REGION_SHIFT: u32 = 17;
const REGION_BITS: u32 = 6;
const RUN_SHIFT: u32 = 23;
const RUN_BITS: u32 = 8;
const OFFSET_SHIFT: u32 = 31;
const OFFSET_BITS: u32 = 33;

/// Maximum `work` annotation the packed encoding can hold.
pub const MAX_PACKED_WORK: u32 = (1 << WORK_BITS) - 1;
/// Maximum region id the packed encoding can hold.
pub const MAX_PACKED_REGIONS: usize = 1 << REGION_BITS;
/// Maximum byte offset from a region base the packed encoding can hold.
pub const MAX_PACKED_OFFSET: u64 = (1 << OFFSET_BITS) - 1;
/// Maximum accesses one packed word can cover (a line-sweep run).
pub const MAX_PACKED_RUN: usize = 1 << RUN_BITS;

/// Words per storage segment (64 K accesses, 512 KB).
const SEG_WORDS: usize = 1 << 16;

/// Pack a run of `run_len` consecutive-line accesses (64-byte stride,
/// identical region/write/work) whose head is `a`, given the region's
/// base address. Panics when a field exceeds the encoding's range —
/// kernel generators stay far inside it by construction.
#[inline]
pub fn pack_run(a: &Access, region_base: u64, run_len: usize) -> u64 {
    assert!(
        a.addr >= region_base & !63,
        "packed trace: access address {:#x} below its region base {:#x}",
        a.addr,
        region_base & !63
    );
    let offset = a.addr - (region_base & !63);
    assert!(
        offset <= MAX_PACKED_OFFSET,
        "packed trace: offset {offset:#x} exceeds the 33-bit range"
    );
    assert!(
        (1..=MAX_PACKED_RUN).contains(&run_len),
        "packed trace: run length {run_len} outside 1..={MAX_PACKED_RUN}"
    );
    assert!(
        (a.region as usize) < MAX_PACKED_REGIONS,
        "packed trace: region id {} exceeds {MAX_PACKED_REGIONS}",
        a.region
    );
    assert!(
        a.work <= MAX_PACKED_WORK,
        "packed trace: work annotation {} exceeds {MAX_PACKED_WORK}",
        a.work
    );
    (offset << OFFSET_SHIFT)
        | (((run_len - 1) as u64) << RUN_SHIFT)
        | ((a.region as u64) << REGION_SHIFT)
        | ((a.write as u64) << WRITE_SHIFT)
        | a.work as u64
}

/// Number of accesses a packed word covers.
#[inline]
pub fn run_len(word: u64) -> usize {
    ((word >> RUN_SHIFT) & ((1 << RUN_BITS) - 1)) as usize + 1
}

/// The region id a packed word names — [`unpack`] indexes the base table
/// with it, so a decoder of outside bytes checks it first.
#[inline]
pub(crate) fn region_of(word: u64) -> RegionId {
    ((word >> REGION_SHIFT) & ((1 << REGION_BITS) - 1)) as RegionId
}

/// The address one line past the last access of the `run`-access run that
/// `word` heads in the region based at `base` — `None` when stepping
/// through the run would leave the address space. [`unpack`] and a replay
/// stepping a run line by line add without a check, so a decoder of
/// outside bytes asks this first.
pub(crate) fn run_end(word: u64, base: u64, run: u64) -> Option<u64> {
    (base & !63).checked_add(word >> OFFSET_SHIFT)?.checked_add(64 * run)
}

/// Unpack the head access of a word's run, given the per-region base
/// table. Access `i` of the run is the head with `addr + 64 * i`.
#[inline]
pub fn unpack(word: u64, bases: &[u64]) -> Access {
    let region = region_of(word);
    Access {
        addr: (bases[region as usize] & !63) + (word >> OFFSET_SHIFT),
        region,
        write: (word >> WRITE_SHIFT) & 1 != 0,
        work: (word & ((1 << WORK_BITS) - 1)) as u32,
    }
}

/// A compact, immutable access stream: the region registry plus packed
/// segments, one 8-byte word per line-sweep run instead of 16 bytes per
/// individual record. This is what a `.trace` blob of the
/// [`crate::store::ArtifactStore`] holds.
#[derive(Debug, Clone)]
pub struct PackedTrace {
    regions: RegionMap,
    bases: Vec<u64>,
    segs: Vec<Box<[u64]>>,
    len: u64,
    instructions: u64,
}

impl PackedTrace {
    /// Pack a full source (drains it; the source is reset first).
    pub fn from_source<S: AccessSource + ?Sized>(src: &mut S) -> PackedTrace {
        src.reset();
        let mut b = PackedBuilder::new(src.regions().clone());
        let mut chunk = Vec::with_capacity(DEFAULT_CHUNK);
        while src.fill(&mut chunk, DEFAULT_CHUNK) > 0 {
            for a in &chunk {
                b.emit(a.addr, a.region, a.write, a.work);
            }
        }
        b.finish()
    }

    /// The region registry.
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// Number of accesses.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the stream holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total retired instructions (work + one per access).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Bytes held by the packed segments (the cache-resident footprint).
    pub fn packed_bytes(&self) -> u64 {
        self.segs.iter().map(|s| s.len() as u64 * 8).sum()
    }

    /// A pull-based stream over the packed accesses. The replay holds an
    /// `Arc` clone, so campaign jobs share one packed allocation.
    pub fn replay(self: &Arc<Self>) -> PackedReplay {
        PackedReplay { trace: Arc::clone(self), seg: 0, idx: 0, run_pos: 0 }
    }

    /// Crate-internal: number of packed words across all segments (the
    /// store-blob payload size).
    pub(crate) fn word_count(&self) -> u64 {
        self.segs.iter().map(|s| s.len() as u64).sum()
    }

    /// Crate-internal: the packed words in stream order (store-blob
    /// serialization walks them without expanding runs).
    pub(crate) fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.segs.iter().flat_map(|s| s.iter().copied())
    }

    /// Crate-internal: rebuild a trace from store-blob raw parts. The
    /// per-region base table is re-derived from the registry and the flat
    /// word stream is re-segmented exactly as [`PackedBuilder`] lays it
    /// out, so a round-tripped trace is structurally identical to the
    /// generated original. Parts that [`PackedTrace::check`] refuses are
    /// refused here: the blob's checksum vouches for its bytes, not for
    /// the writer, and replay indexes and steps by them.
    pub(crate) fn from_raw_parts(
        regions: RegionMap,
        words: Vec<u64>,
        len: u64,
        instructions: u64,
    ) -> Result<PackedTrace, &'static str> {
        let bases: Vec<u64> = regions.regions().iter().map(|r| r.base).collect();
        let mut segs: Vec<Box<[u64]>> = Vec::with_capacity(words.len().div_ceil(SEG_WORDS));
        let mut words = words;
        while words.len() > SEG_WORDS {
            let rest = words.split_off(SEG_WORDS);
            segs.push(std::mem::replace(&mut words, rest).into_boxed_slice());
        }
        if !words.is_empty() {
            segs.push(words.into_boxed_slice());
        }
        let trace = PackedTrace { regions, bases, segs, len, instructions };
        trace.check()?;
        Ok(trace)
    }

    /// What is wrong with the trace, if anything: full segments but the
    /// last, runs of 1..=[`MAX_PACKED_RUN`] accesses that stay inside the
    /// 33-bit offset range and the address space and name known regions,
    /// runs that cover `len`, and an instruction per access at least. What
    /// [`PackedBuilder::finish`] must produce and what a loaded blob must
    /// hold (DESIGN.md §3.12).
    fn check(&self) -> Result<(), &'static str> {
        let mut covered = 0u64;
        for (si, seg) in self.segs.iter().enumerate() {
            if seg.is_empty() || (si + 1 < self.segs.len() && seg.len() != SEG_WORDS) {
                return Err("packed segment shape");
            }
            for &word in seg.iter() {
                let rl = run_len(word);
                if !(1..=MAX_PACKED_RUN).contains(&rl) {
                    return Err("packed run length");
                }
                if (word >> OFFSET_SHIFT) + 64 * (rl as u64 - 1) > MAX_PACKED_OFFSET {
                    return Err("packed run past the 33-bit offset range");
                }
                let Some(&base) = self.bases.get(region_of(word) as usize) else {
                    return Err("packed word region");
                };
                if run_end(word, base, rl as u64).is_none() {
                    return Err("packed run past the address space");
                }
                covered += rl as u64;
            }
        }
        if covered != self.len {
            return Err("packed runs do not cover the trace's accesses");
        }
        if self.instructions < self.len {
            return Err("fewer instructions than accesses");
        }
        Ok(())
    }
}

/// What a packed stream comes to: its accesses, their retired
/// instructions (work + one per access) and the words they pack into —
/// what a `.trace` blob's header declares before the words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedCounts {
    /// Accesses emitted.
    pub len: u64,
    /// Instructions they retire.
    pub instructions: u64,
    /// Packed words they make.
    pub words: u64,
}

/// Where a [`Coalescer`] puts each word it seals, in stream order.
pub(crate) trait WordSink {
    /// Take the next sealed word.
    fn word(&mut self, word: u64);
}

/// Nowhere: a coalescer over `()` only counts what a stream packs into.
impl WordSink for () {
    #[inline]
    fn word(&mut self, _: u64) {}
}

/// The run-coalescing rule, the one copy of it: accesses in, sealed packed
/// words out to `W` — the segments a [`PackedBuilder`] keeps, nowhere
/// (a count), or a `.trace` blob on its way to disk.
#[derive(Debug)]
pub(crate) struct Coalescer<W> {
    bases: Vec<u64>,
    /// The run being coalesced: its head access and its length, 0 before
    /// the first access. An access extends it when it is the next 64-byte
    /// line with identical attributes — with `run == 0`, when it is the
    /// head itself, which starts the run it would start anyway.
    head: Access,
    run: u64,
    counts: PackedCounts,
    out: W,
}

impl<W: WordSink> Coalescer<W> {
    /// Start coalescing accesses of `regions` into `out`.
    pub(crate) fn new(regions: &RegionMap, out: W) -> Self {
        assert!(
            regions.regions().len() <= MAX_PACKED_REGIONS,
            "packed trace: more than {MAX_PACKED_REGIONS} regions"
        );
        let bases = regions.regions().iter().map(|r| r.base).collect();
        let counts = PackedCounts { len: 0, instructions: 0, words: 0 };
        let head = Access { addr: 0, region: 0, write: false, work: 0 };
        Coalescer { bases, head, run: 0, counts, out }
    }

    /// Whether the access is the next 64-byte line of the run with
    /// identical attributes (what `emit_span` sweeps emit). The run is
    /// plain fields, not an `Option`, so this is the whole per-access test.
    #[inline]
    fn continues(&self, addr: u64, region: RegionId, write: bool, work: u32) -> bool {
        let h = &self.head;
        addr == h.addr.wrapping_add(64 * self.run)
            && region == h.region
            && write == h.write
            && work == h.work
    }

    #[inline]
    fn flush_pending(&mut self) {
        if self.run > 0 {
            self.counts.words += 1;
            let base = self.bases[self.head.region as usize];
            self.out.word(pack_run(&self.head, base, self.run as usize));
        }
    }

    /// Seal the last run: what the stream came to, and where its words went.
    pub(crate) fn finish(mut self) -> (PackedCounts, W) {
        self.flush_pending();
        (self.counts, self.out)
    }
}

impl<W: WordSink> AccessSink for Coalescer<W> {
    #[inline]
    fn emit(&mut self, addr: u64, region: RegionId, write: bool, work: u32) {
        self.counts.len += 1;
        self.counts.instructions += work as u64 + 1;
        if self.run < MAX_PACKED_RUN as u64 && self.continues(addr, region, write, work) {
            self.run += 1;
            return;
        }
        self.flush_pending();
        self.head = Access { addr, region, write, work };
        self.run = 1;
    }

    /// The sweep as `lines` [`emit`](AccessSink::emit)s would leave it:
    /// the pending run takes what it has room for if the sweep continues
    /// it, the rest goes out in whole runs.
    #[inline]
    fn emit_lines(&mut self, addr: u64, region: RegionId, write: bool, work: u32, lines: u64) {
        self.counts.len += lines;
        self.counts.instructions += lines * (work as u64 + 1);
        let (mut addr, mut lines) = (addr, lines);
        if self.continues(addr, region, write, work) {
            let take = lines.min(MAX_PACKED_RUN as u64 - self.run);
            self.run += take;
            addr += 64 * take;
            lines -= take;
        }
        while lines > 0 {
            self.flush_pending();
            let take = lines.min(MAX_PACKED_RUN as u64);
            self.head = Access { addr, region, write, work };
            self.run = take;
            addr += 64 * take;
            lines -= take;
        }
    }
}

/// The words a [`PackedBuilder`] keeps: full segments boxed exact-size,
/// and the one being filled.
#[derive(Debug)]
struct Segments {
    segs: Vec<Box<[u64]>>,
    cur: Vec<u64>,
}

impl WordSink for Segments {
    #[inline]
    fn word(&mut self, word: u64) {
        self.cur.push(word);
        if self.cur.len() == SEG_WORDS {
            let full = std::mem::replace(&mut self.cur, Vec::with_capacity(SEG_WORDS));
            self.segs.push(full.into_boxed_slice());
        }
    }
}

/// Incremental [`PackedTrace`] builder; an [`AccessSink`], so kernel
/// generators can emit straight into packed storage without ever
/// materializing `Access` records.
#[derive(Debug)]
pub struct PackedBuilder {
    regions: RegionMap,
    packer: Coalescer<Segments>,
}

impl PackedBuilder {
    /// Start a packed stream over a region registry.
    pub fn new(regions: RegionMap) -> Self {
        let segments = Segments { segs: Vec::new(), cur: Vec::with_capacity(SEG_WORDS) };
        PackedBuilder { packer: Coalescer::new(&regions, segments), regions }
    }

    /// Accesses emitted so far.
    pub fn len(&self) -> u64 {
        self.packer.counts.len
    }

    /// True when nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seal the stream.
    pub fn finish(self) -> PackedTrace {
        let bases = self.packer.bases.clone();
        let (counts, Segments { mut segs, cur }) = self.packer.finish();
        if !cur.is_empty() {
            segs.push(cur.into_boxed_slice());
        }
        let trace = PackedTrace {
            regions: self.regions,
            bases,
            segs,
            len: counts.len,
            instructions: counts.instructions,
        };
        debug_assert_eq!(trace.check(), Ok(()), "packed trace");
        trace
    }
}

impl AccessSink for PackedBuilder {
    #[inline]
    fn emit(&mut self, addr: u64, region: RegionId, write: bool, work: u32) {
        self.packer.emit(addr, region, write, work);
    }

    #[inline]
    fn emit_lines(&mut self, addr: u64, region: RegionId, write: bool, work: u32, lines: u64) {
        self.packer.emit_lines(addr, region, write, work, lines);
    }
}

/// Streaming replay of a [`PackedTrace`]: hands each word's run out whole
/// ([`AccessSource::fill_runs`]) or expanded back into individual accesses
/// ([`AccessSource::fill`]); a chunk boundary may split a run either way,
/// so the position inside the current run is part of the cursor.
#[derive(Debug)]
pub struct PackedReplay {
    trace: Arc<PackedTrace>,
    seg: usize,
    idx: usize,
    run_pos: usize,
}

impl PackedReplay {
    /// What is left of the run under the cursor, cut at `max` accesses;
    /// the cursor moves past what is returned. `None` at the end of the
    /// stream.
    #[inline]
    fn next_run(&mut self, max: usize) -> Option<Run> {
        let seg = self.trace.segs.get(self.seg)?;
        let word = seg[self.idx];
        let head = unpack(word, &self.trace.bases);
        let rl = run_len(word);
        let take = max.min(rl - self.run_pos);
        let head = Access { addr: head.addr + 64 * self.run_pos as u64, ..head };
        self.run_pos += take;
        if self.run_pos == rl {
            self.run_pos = 0;
            self.idx += 1;
            if self.idx == seg.len() {
                self.idx = 0;
                self.seg += 1;
            }
        }
        Some(Run { head, len: take as u32 })
    }
}

impl AccessSource for PackedReplay {
    fn regions(&self) -> &RegionMap {
        &self.trace.regions
    }

    fn fill(&mut self, buf: &mut Vec<Access>, max: usize) -> usize {
        buf.clear();
        while buf.len() < max {
            let Some(run) = self.next_run(max - buf.len()) else { break };
            buf.extend(run.accesses());
        }
        buf.len()
    }

    /// The words' runs as they are stored, no `Access` record in between;
    /// only the run the bound falls in is split.
    fn fill_runs(&mut self, chunk: &mut RunChunk, max: usize) -> usize {
        chunk.runs.clear();
        let mut filled = 0;
        while filled < max {
            let Some(run) = self.next_run(max - filled) else { break };
            filled += run.len as usize;
            chunk.runs.push(run);
        }
        filled
    }

    fn reset(&mut self) {
        self.seg = 0;
        self.idx = 0;
        self.run_pos = 0;
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.trace.len)
    }

    fn instructions_hint(&self) -> Option<u64> {
        Some(self.trace.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn sample_trace(accesses: u64) -> Trace {
        let mut rm = RegionMap::new();
        let a = rm.alloc("a", 1 << 20, true);
        let b = rm.alloc("b", 1 << 16, false);
        let (ba, bb) = (rm.get(a).base, rm.get(b).base);
        let mut t = Trace::new(rm);
        for i in 0..accesses {
            if i % 3 == 0 {
                t.push(bb + (i % 1024) * 64, b, i % 2 == 0, (i % 31) as u32);
            } else {
                t.push(ba + (i % 16384) * 64, a, i % 5 == 0, (i % 100) as u32);
            }
        }
        t
    }

    #[test]
    fn pack_unpack_is_lossless() {
        let t = sample_trace(1000);
        let bases: Vec<u64> = t.regions.regions().iter().map(|r| r.base).collect();
        for a in &t.accesses {
            let w = pack_run(a, bases[a.region as usize], 1);
            assert_eq!(&unpack(w, &bases), a);
        }
    }

    #[test]
    fn packed_replay_is_bit_identical_and_half_the_bytes() {
        // Cross a segment boundary to exercise multi-segment replay.
        let t = sample_trace(SEG_WORDS as u64 + 1234);
        let p = Arc::new(PackedTrace::from_source(&mut t.replay()));
        assert_eq!(p.len(), t.accesses.len() as u64);
        assert_eq!(p.instructions(), t.instructions);
        assert_eq!(std::mem::size_of::<Access>(), 2 * 8, "a word is half a materialized record");
        assert!(p.packed_bytes() <= p.len() * 8 + (SEG_WORDS as u64) * 8);
        let back = Trace::from_source(&mut p.replay());
        assert_eq!(back.accesses, t.accesses);
        assert_eq!(back.instructions, t.instructions);
        assert_eq!(back.regions.regions(), t.regions.regions());
    }

    #[test]
    fn replay_reset_restarts() {
        let t = sample_trace(500);
        let p = Arc::new(PackedTrace::from_source(&mut t.replay()));
        let mut r = p.replay();
        let mut chunk = Vec::new();
        r.fill(&mut chunk, 100);
        let first = chunk.clone();
        while r.fill(&mut chunk, 100) > 0 {}
        r.reset();
        r.fill(&mut chunk, 100);
        assert_eq!(chunk, first);
    }

    #[test]
    #[should_panic(expected = "work annotation")]
    fn oversized_work_is_rejected_loudly() {
        let a = Access { addr: 0x1000_0000, region: 0, write: false, work: u32::MAX };
        pack_run(&a, 0x1000_0000, 1);
    }

    #[test]
    fn line_sweeps_coalesce_into_runs() {
        let mut rm = RegionMap::new();
        let r = rm.alloc("v", 1 << 20, true);
        let base = rm.get(r).base;
        let mut b = PackedBuilder::new(rm.clone());
        // A 4096-line sweep (the emit_span shape) plus one stray,
        // unaligned, differently-attributed access.
        b.emit_span(r, base, 4096 * 64, false, 4096 * 3);
        b.emit(base + 8, r, true, 7);
        let p = Arc::new(b.finish());
        assert_eq!(p.len(), 4097);
        assert_eq!(
            p.packed_bytes(),
            (4096 / MAX_PACKED_RUN as u64 + 1) * 8,
            "4096-line sweep must coalesce into {} max-length runs",
            4096 / MAX_PACKED_RUN
        );
        // Expansion is bit-identical to the uncoalesced emission.
        let mut v: Vec<Access> = Vec::new();
        v.emit_span(r, base, 4096 * 64, false, 4096 * 3);
        v.emit(base + 8, r, true, 7);
        assert_eq!(Trace::from_source(&mut p.replay()).accesses, v);
        // Runs split across tiny chunk boundaries still expand exactly.
        let mut replay = p.replay();
        let mut out = Vec::new();
        let mut chunk = Vec::new();
        while replay.fill(&mut chunk, 100) > 0 {
            out.extend_from_slice(&chunk);
        }
        assert_eq!(out, v);
    }

    #[test]
    fn emit_lines_leaves_the_runs_per_line_emission_leaves() {
        let mut rm = RegionMap::new();
        let r = rm.alloc("v", 1 << 20, true);
        let base = rm.get(r).base;
        // (address, write, lines); `None` lines is a plain `emit`.
        let script = [
            (base, false, None),
            (base + 64, false, Some(10)), // joins the pending run of one
            (base + 64 * 11, false, Some(300)), // fills it to 256, 55 over
            (base, false, Some(0)),       // nothing at all
            (base + 64 * 311, true, Some(2)), // contiguous but a write: a new run
            (base + 64 * 313, true, None), // an `emit` joins the sweep's run
            (base + 8, true, Some(600)),  // unaligned: 256 + 256 + 88
        ];
        let mut swept = PackedBuilder::new(rm.clone());
        let mut by_line = PackedBuilder::new(rm.clone());
        for (addr, write, lines) in script {
            match lines {
                None => swept.emit(addr, r, write, 3),
                Some(lines) => swept.emit_lines(addr, r, write, 3, lines),
            }
            for i in 0..lines.unwrap_or(1) {
                by_line.emit(addr + 64 * i, r, write, 3);
            }
        }
        let (swept, by_line) = (swept.finish(), by_line.finish());
        assert_eq!(swept.words().map(run_len).collect::<Vec<_>>(), [256, 55, 3, 256, 256, 88]);
        assert!(swept.words().eq(by_line.words()));
        assert_eq!(swept.len(), 1 + 10 + 300 + 2 + 1 + 600);
        assert_eq!((swept.len(), swept.instructions()), (by_line.len(), by_line.instructions()));
    }
}
