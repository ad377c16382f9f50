//! Cache-filtered miss streams: the two-phase simulation pipeline.
//!
//! Every campaign re-simulates the L1/L2 hierarchy for each
//! (kernel × ECC assignment) grid cell, yet cache outcomes are fully
//! determined by the address stream and the cache geometry — the ECC
//! policy only changes DRAM timing and energy. A [`MissStream`] is the
//! result of driving an access stream through L1/L2 exactly once per
//! (kernel × cache geometry × thread count): the DRAM-visible tail of the
//! stream (demand fills and write-backs) annotated with everything the
//! per-policy replay phase needs to be **bit-identical** to the full path
//! (a source-input [`crate::system::Machine::simulate`]):
//!
//! * the physical line serviced and whether it is a demand read or a
//!   write-back (coupled to a demand, or a standalone L1-victim→L2
//!   eviction),
//! * the full triggering core access (address, region, write, work), so
//!   protection-policy closures — including the DGMS granularity
//!   predictor — observe exactly the inputs the full path hands them, in
//!   exactly DRAM-access order,
//! * the *pure core-cycle* count at the event (compute work + L1/L2 hit
//!   latencies under thread compression, with DRAM stalls excluded),
//!   stored as the gap in undivided *thread* cycles since the previous
//!   event and divided by the thread count only as it is decoded.
//!
//! The cycle decomposition is exact because the full simulation adds DRAM
//! stalls directly to the machine cycle counter (`cycles += stall`)
//! *outside* the thread-compression carry division, so
//! `cycles_at_event = pure_core_cycles_at_event + Σ stalls_so_far` —
//! pure core cycles are policy-independent and recordable, stalls are
//! reproduced at replay time by running only the recorded events through
//! the memory controller and DRAM.
//!
//! The stream is run-aware and coded against itself: one record covers up
//! to [`MAX_MISS_RUN`] consecutive-line events with identical attributes
//! and thread-cycle gaps (the shape LLC-missing line sweeps produce), and
//! each record is a header byte, plus a byte or a field for only what its
//! region's context did not predict.
//!
//! ```text
//! header  1 byte   bits 7..5 run: 0 = the region's last run, 1..=6 = that
//!                      run, 7 = a LEB128 run follows
//!                  | bit 4 line continues (head line = where the region's
//!                      last run ended)
//!                  | bit 3 gap unchanged
//!                  | bit 2 region as predicted
//!                  | bits 1..0 kind (3 = the attributes change: a LEB128
//!                      attrs << 2 | kind follows)
//! region  1 byte   only if not as predicted
//! run     LEB128   only under run code 7 (7..=64)
//! attrs   LEB128   only under kind 3: addr & 63 (6) | work (16) | write (1),
//!                  above the record's kind (2)
//! gap     LEB128   only if changed: thread cycles from the previous event
//! line    LEB128   only if it does not continue: zigzag head trigger line
//!                  − where the region's last run ended
//! wb      LEB128   zigzag head write-back line − where the region's last
//!                  write-back run ended (kinds with a write-back only)
//! ```
//!
//! A record's region is predicted to be the one whose record followed the
//! current region's last. What it is coded against is what the last
//! record of its region left behind: its attributes, gap and run, the line
//! after its run, and the line after the region's last write-back run. The
//! tables of contexts, runs and successors (`Contexts`) start empty, with
//! region 0 current and every region predicting itself, and empty again
//! every 1024 records (`RESET_RECORDS`), so a resume needs only the byte
//! offset of the reset point at or before its record ([`SliceCursor`]) and
//! replays the contexts forward from there. A sweep
//! cut by the 64-event cap costs one or two bytes a record, and so does a
//! one-event miss in a cycle of regions that continues each one's line.
//! The gap is kept in undivided thread cycles because a regular sweep
//! repeats it exactly, while its core cycles `⌊Σ / threads⌋` step unevenly
//! (5, 5, 5, 6, … at four threads) and would cut the sweep into a record
//! per step (DESIGN.md §3.13).

use crate::cache::{Cache, CacheOutcome};
use crate::config::CacheConfig;
use crate::packed::{MAX_PACKED_REGIONS, MAX_PACKED_WORK};
use crate::stream::{AccessSink, AccessSource, RunChunk, RUN_CHUNK};
use crate::trace::{Access, RegionId, RegionMap};

pub(crate) const KIND_DEMAND: u64 = 0;
pub(crate) const KIND_DEMAND_WB: u64 = 1;
pub(crate) const KIND_WRITEBACK: u64 = 2;

/// Header bits: the kind, "region as predicted", "gap unchanged", "line
/// continues", and where the 3-bit run code sits.
const KIND_MASK: u8 = 0b11;
const REGION_SAME: u8 = 1 << 2;
const GAP_SAME: u8 = 1 << 3;
const LINE_SAME: u8 = 1 << 4;
const RUN_SHIFT: u32 = 5;
/// Run codes: 0 repeats the region's last run, this one has a LEB128 run
/// follow, and the ones between are that run.
const RUN_FIELD: u8 = 7;
const RUN_BITS: u32 = 6;
const DELTA_BITS: u32 = 31;
/// The header kind that changes the attributes: the LEB128 field holds
/// them above the record's real kind.
const KIND_ATTRS: u8 = 3;
const ATTRS_KIND_SHIFT: u32 = 2;
/// Where an attribute word's fields sit (`write` is bit 0).
const WORK_SHIFT: u32 = 1;
const LOW_SHIFT: u32 = 17;
const ATTRS_BITS: u32 = 23;
/// The first 64-byte line whose byte address does not fit in 64 bits.
const LINE_LIMIT: u64 = 1 << 58;

/// Maximum events one miss-stream record can cover.
pub const MAX_MISS_RUN: usize = 1 << RUN_BITS;
/// Records from one reset of the context table to the next: a resume
/// replays at most this many less one to rebuild the table it needs
/// (DESIGN.md §3.13).
pub(crate) const RESET_RECORDS: usize = 1024;
/// The most bytes a record that decodes takes: a header, a region byte and
/// five LEB128 fields (run, attributes, gap, line, write-back) of at most
/// ten bytes.
pub(crate) const MAX_RECORD_BYTES: usize = 2 + 5 * 10;
/// Maximum gap, in thread cycles, between consecutive DRAM events the
/// encoding can hold (~2.1 G thread cycles: 0.54 G core cycles at four
/// threads, a quarter second of core time between misses).
pub const MAX_MISS_DELTA: u64 = (1 << DELTA_BITS) - 1;

/// What a decoded miss-stream event asks of the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissEventKind {
    /// An L2 demand miss: a DRAM line fill (read), optionally coupled
    /// with the dirty line the fill evicted (written back at the same
    /// timestamp, after the demand — the full path's ordering).
    Demand {
        /// Dirty L2 victim line evicted by this fill, if any.
        writeback: Option<u64>,
    },
    /// A standalone write-back: an L1 victim installed into L2 evicted
    /// this dirty line (no stall; issued before the triggering access's
    /// own demand handling).
    Writeback(u64),
}

/// One decoded DRAM-visible event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissEvent {
    /// The core access that triggered the event (the policy closure's
    /// first argument, bit-identical to the full path).
    pub trigger: Access,
    /// Pure core cycles at the event — compute + cache-hit latencies
    /// under thread compression, with DRAM stalls excluded.
    pub core_cycles: u64,
    /// What the memory system must service.
    pub kind: MissEventKind,
}

/// Per-region tallies the filter phase pre-computes (the full path counts
/// them per access; they are policy-independent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionTally {
    /// References issued by the core.
    pub refs: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Last-level-cache misses.
    pub llc_misses: u64,
}

/// The cache-filtered form of an access stream: only the DRAM-visible
/// events, plus every policy-independent aggregate the full simulation
/// would have produced. Build once per (stream × cache geometry ×
/// threads) with [`MissStream::build`], replay per ECC policy with
/// [`crate::system::Machine::simulate`].
#[derive(Debug, Clone)]
pub struct MissStream {
    totals: StreamTotals,
    records: MissRecords,
}

/// Everything a [`MissStream`] holds besides its event records: the
/// policy-independent aggregates of one L1 → L2 [`walk`], which replay
/// folds into [`crate::system::SimStats`], and the filter geometry they
/// hold under. A [`crate::simpoint::PhaseSample`] carries a copy beside the
/// few records it replays, and the artifact store writes it as the head of
/// both blobs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StreamTotals {
    pub regions: RegionMap,
    /// DRAM-visible events recorded (expanded across runs); 0 where the
    /// walk's events were serviced as they fell out, not recorded.
    pub events: u64,
    pub accesses: u64,
    pub instructions: u64,
    /// Final pure core-cycle count (the replay adds accumulated stalls).
    pub core_cycles: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub tallies: Vec<RegionTally>,
    pub l1_cfg: CacheConfig,
    pub l2_cfg: CacheConfig,
    pub threads: usize,
}

impl StreamTotals {
    /// Whether a machine configuration matches the filter geometry.
    pub fn matches(&self, l1: &CacheConfig, l2: &CacheConfig, threads: usize) -> bool {
        self.l1_cfg == *l1 && self.l2_cfg == *l2 && self.threads == threads.max(1)
    }

    /// What is wrong with the totals, if anything: one tally per region,
    /// tallies that sum to the counts they break down, L1 and L2
    /// accounting that covers the stream, and an instruction per access at
    /// least. Sums are checked, not wrapped: the values may be a blob's.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.tallies.len() != self.regions.regions().len() {
            return Err("tally count");
        }
        let sum = |f: fn(&RegionTally) -> u64| {
            self.tallies.iter().try_fold(0u64, |acc, r| acc.checked_add(f(r)))
        };
        if sum(|r| r.refs) != Some(self.accesses)
            || sum(|r| r.l1_misses) != Some(self.l1_misses)
            || sum(|r| r.llc_misses) != Some(self.l2_misses)
        {
            return Err("region tallies do not sum to the totals");
        }
        if self.l1_hits.checked_add(self.l1_misses) != Some(self.accesses) {
            return Err("L1 accounting does not cover the stream");
        }
        if self.l2_hits.checked_add(self.l2_misses) != Some(self.l1_misses) {
            return Err("L2 accounting does not cover the L1 misses");
        }
        if self.instructions < self.accesses {
            return Err("fewer instructions than accesses");
        }
        if self.threads == 0 {
            return Err("no threads");
        }
        Ok(())
    }

    /// The largest thread-cycle track whose core cycles are still inside
    /// `core_cycles`: the bound every record's track must keep.
    pub fn last_track(&self) -> u64 {
        let threads = self.threads as u64;
        self.core_cycles.saturating_mul(threads).saturating_add(threads - 1)
    }
}

/// What the walk hands each DRAM-visible event to, with the undivided
/// thread-cycle track at the event: a closure (the full path services the
/// event, a test collects it) or the [`Encoder`] that records it.
pub(crate) trait OnEvent {
    fn on_event(&mut self, ev: &MissEvent, track: u64);
}

impl<F: FnMut(&MissEvent, u64)> OnEvent for F {
    #[inline(always)]
    fn on_event(&mut self, ev: &MissEvent, track: u64) {
        self(ev, track)
    }
}

/// The one cache-hierarchy walk, as a sink: every access pushed into it
/// goes through fresh L1/L2 caches, and every DRAM-visible event falls out,
/// in DRAM-access order, to its [`OnEvent`] together with the undivided
/// thread-cycle track at the event. [`MissStream::build`] records what it
/// drives through it, the full path of [`crate::system::Machine::simulate`]
/// services the events as they go, and a kernel generator pushes its
/// sweeps straight in ([`MissStream::filter`]), so no trace is held.
///
/// Thread-level concurrency: `threads` in-order workers interleave their
/// instruction streams, so per-thread cycles (compute + cache latencies)
/// compress by the thread count on the machine timeline, while every
/// access still reaches the shared memory system. The core-cycle count is
/// `⌊Σ thread cycles / threads⌋`, divided only where an event observes it
/// (`Σ` is the track the event handler receives):
/// exactly what carrying the remainder from access to access yields, as
/// `cycles · threads + carry = Σ` with `carry < threads` throughout. DRAM
/// stalls are machine-level and never enter the sum; a consumer adds them
/// on top ([`MissEvent::core_cycles`]).
pub(crate) struct Walker<E> {
    regions: RegionMap,
    l1: Cache,
    l2: Cache,
    l1_cfg: CacheConfig,
    l2_cfg: CacheConfig,
    tallies: Vec<RegionTally>,
    threads: u64,
    thread_cycles: u64,
    retired: u64,
    accesses: u64,
    on_event: E,
}

impl<E: OnEvent> Walker<E> {
    /// A walk over accesses of `regions` through fresh caches.
    pub fn new(
        regions: &RegionMap,
        l1_cfg: CacheConfig,
        l2_cfg: CacheConfig,
        threads: usize,
        on_event: E,
    ) -> Self {
        // Copied before the walk's buffers exist: made after them, this small
        // allocation pins the heap above them (+3.4 MiB peak RSS at paper scale).
        let regions = regions.clone();
        let (l1, l2) = (Cache::new(l1_cfg), Cache::new(l2_cfg));
        let tallies = vec![RegionTally::default(); regions.regions().len()];
        Walker {
            regions,
            l1,
            l2,
            l1_cfg,
            l2_cfg,
            tallies,
            threads: threads.max(1) as u64,
            thread_cycles: 0,
            retired: 0,
            accesses: 0,
            on_event,
        }
    }

    /// `len` accesses alike but for their addresses, `head` and the next
    /// `len - 1` 64-byte lines: the walk's one per-line body, which every
    /// entry — pulled run or pushed access or sweep — comes through. What
    /// a sweep's accesses share (instructions retired, references, the
    /// region whose tally they land in) is settled once per sweep.
    #[inline]
    fn sweep(&mut self, head: Access, len: u64) {
        let (l1_latency, l2_latency) = (self.l1_cfg.latency_cycles, self.l2_cfg.latency_cycles);
        let threads = self.threads;
        self.accesses += len;
        self.retired += len * (head.work as u64 + 1);
        let mut thread_cycles = self.thread_cycles;
        let Walker { l1, l2, tallies, on_event, .. } = self;
        let rt = &mut tallies[head.region as usize];
        rt.refs += len;
        for i in 0..len {
            let a = Access { addr: head.addr + 64 * i, ..head };
            thread_cycles += a.work as u64;
            let CacheOutcome::Miss { writeback } = l1.access(a.addr, a.write) else {
                thread_cycles += l1_latency;
                continue;
            };
            rt.l1_misses += 1;
            if let Some(wb) = writeback {
                // The L1 victim is installed dirty in L2 (the full line
                // travels down, so no DRAM fill is needed); only a dirty
                // line L2 evicts to make room reaches memory.
                if let CacheOutcome::Miss { writeback: Some(wb2) } = l2.access(wb, true) {
                    let kind = MissEventKind::Writeback(wb2);
                    let ev = MissEvent { trigger: a, core_cycles: thread_cycles / threads, kind };
                    on_event.on_event(&ev, thread_cycles);
                }
            }
            if let CacheOutcome::Miss { writeback } = l2.access(a.addr, a.write) {
                rt.llc_misses += 1;
                let kind = MissEventKind::Demand { writeback };
                let ev = MissEvent { trigger: a, core_cycles: thread_cycles / threads, kind };
                on_event.on_event(&ev, thread_cycles);
            }
            thread_cycles += l2_latency;
        }
        self.thread_cycles = thread_cycles;
    }

    /// Every policy-independent count of the walk, with `events` left at
    /// 0 (the walk hands events out, and it is the handler, returned
    /// beside the counts, that knows what became of them). `instructions`
    /// is the source's own total where it knows one: the sum the walk
    /// keeps is the one [`crate::packed::PackedBuilder`] and
    /// [`crate::trace::Trace::push`] keep, so the two agree.
    pub fn finish(self, instructions: Option<u64>) -> (StreamTotals, E) {
        // The L2's own counters include the L1 victims installed into it;
        // as a level of the hierarchy it is asked once per L1 miss.
        let l2_misses: u64 = self.tallies.iter().map(|t| t.llc_misses).sum();
        let totals = StreamTotals {
            regions: self.regions,
            events: 0,
            accesses: self.accesses,
            instructions: instructions.unwrap_or(self.retired),
            core_cycles: self.thread_cycles / self.threads,
            l1_hits: self.l1.hits,
            l1_misses: self.l1.misses,
            l2_hits: self.l1.misses - l2_misses,
            l2_misses,
            tallies: self.tallies,
            l1_cfg: self.l1_cfg,
            l2_cfg: self.l2_cfg,
            threads: self.threads as usize,
        };
        (totals, self.on_event)
    }
}

impl<E: OnEvent> AccessSink for Walker<E> {
    #[inline]
    fn emit(&mut self, addr: u64, region: RegionId, write: bool, work: u32) {
        self.sweep(Access { addr, region, write, work }, 1);
    }

    #[inline]
    fn emit_lines(&mut self, addr: u64, region: RegionId, write: bool, work: u32, lines: u64) {
        self.sweep(Access { addr, region, write, work }, lines);
    }
}

/// Pull `src` through a [`Walker`] handing its events to `on_event`: the
/// source is rewound first, so a fresh and a drained stream behave
/// identically, and pulled a chunk of line sweeps at a time
/// ([`AccessSource::fill_runs`]) — a packed replay hands its runs out
/// whole, any other source one access a run. Returns the walk's counts
/// ([`Walker::finish`]).
pub(crate) fn walk<S: AccessSource + ?Sized>(
    src: &mut S,
    l1_cfg: CacheConfig,
    l2_cfg: CacheConfig,
    threads: usize,
    on_event: impl FnMut(&MissEvent, u64),
) -> StreamTotals {
    src.reset();
    let mut walker = Walker::new(src.regions(), l1_cfg, l2_cfg, threads, on_event);
    let mut chunk = RunChunk::with_capacity(RUN_CHUNK);
    while src.fill_runs(&mut chunk, RUN_CHUNK) > 0 {
        for run in &chunk.runs {
            walker.sweep(run.head, run.len as u64);
        }
    }
    walker.finish(src.instructions_hint()).0
}

/// Panic unless `l1` / `l2` lines are whole DRAM bursts: a record holds
/// its write-back address in 64-byte units, and a shorter line has address
/// bits below that.
fn assert_burst_lines(l1: &CacheConfig, l2: &CacheConfig) {
    assert!(
        l1.line_bytes >= 64 && l2.line_bytes >= 64,
        "miss stream: {}- / {}-byte cache lines are below the 64-byte DRAM burst its \
         records hold write-back addresses at",
        l1.line_bytes,
        l2.line_bytes
    );
}

impl MissStream {
    /// Drive `src` through L1/L2 once (`walk`) and record the
    /// DRAM-visible tail.
    pub fn build<S: AccessSource + ?Sized>(
        src: &mut S,
        l1_cfg: CacheConfig,
        l2_cfg: CacheConfig,
        threads: usize,
    ) -> MissStream {
        assert_burst_lines(&l1_cfg, &l2_cfg);
        let mut enc = Encoder::new();
        let totals = walk(src, l1_cfg, l2_cfg, threads, |ev, track| enc.push(ev, track));
        MissStream::seal(totals, enc)
    }

    /// Record the DRAM-visible tail of what `feed` pushes into the walker
    /// it is handed — accesses of `regions`, through L1/L2 once: the push
    /// entry, by which a generator ([`crate::workloads::KernelParams::emit_into`])
    /// is filtered without its trace ever being held. Bit-identical to
    /// [`MissStream::build`] over the same accesses.
    pub(crate) fn filter(
        regions: &RegionMap,
        l1_cfg: CacheConfig,
        l2_cfg: CacheConfig,
        threads: usize,
        feed: impl FnOnce(&mut Walker<Encoder>),
    ) -> MissStream {
        assert_burst_lines(&l1_cfg, &l2_cfg);
        let mut walker = Walker::new(regions, l1_cfg, l2_cfg, threads, Encoder::new());
        feed(&mut walker);
        let (totals, enc) = walker.finish(None);
        MissStream::seal(totals, enc)
    }

    /// The stream of a finished walk and the encoder that recorded it.
    fn seal(mut totals: StreamTotals, enc: Encoder) -> MissStream {
        let (bytes, events) = enc.finish();
        totals.events = events;
        let ms = MissStream { records: MissRecords::new(&totals, bytes), totals };
        debug_assert_eq!(ms.check(), Ok(()), "miss stream");
        ms
    }

    /// The region registry of the filtered stream.
    pub fn regions(&self) -> &RegionMap {
        &self.totals.regions
    }

    /// DRAM-visible events recorded (expanded across runs).
    pub fn events(&self) -> u64 {
        self.totals.events
    }

    /// Core accesses the filter phase consumed.
    pub fn accesses(&self) -> u64 {
        self.totals.accesses
    }

    /// Retired instructions of the underlying stream.
    pub fn instructions(&self) -> u64 {
        self.totals.instructions
    }

    /// Final pure core-cycle count (DRAM stalls excluded).
    pub fn core_cycles(&self) -> u64 {
        self.totals.core_cycles
    }

    /// Bytes held by the packed event records.
    pub fn packed_bytes(&self) -> u64 {
        self.records.bytes.len() as u64
    }

    /// The cache geometry and thread count the stream was filtered under
    /// (replay must run on a machine with the same values).
    pub fn filter_config(&self) -> (CacheConfig, CacheConfig, usize) {
        (self.totals.l1_cfg, self.totals.l2_cfg, self.totals.threads)
    }

    /// Whether a machine configuration matches the filter geometry.
    pub fn matches(&self, l1: &CacheConfig, l2: &CacheConfig, threads: usize) -> bool {
        self.totals.matches(l1, l2, threads)
    }

    /// Iterate the decoded events in recorded (DRAM-access) order.
    pub fn iter(&self) -> MissEvents<'_> {
        self.events_from(SliceCursor::start())
    }

    /// Resume decoding mid-stream from a saved [`SliceCursor`] — the
    /// slice-replay entry point the SimPoint sampler uses. Because
    /// records are run-coalesced and each is coded against the last of its
    /// region, an event offset alone cannot seek; the cursor carries the
    /// decoder state (the reset point before its record, the record offset,
    /// position within the run and accumulated thread-cycle track)
    /// captured when the slice boundary was scanned, so resuming costs one
    /// division and the decode of fewer than 1024 records' contexts, and
    /// the decoded events are bit-identical to the same positions of a
    /// full [`MissStream::iter`] walk.
    pub fn events_from(&self, cursor: SliceCursor) -> MissEvents<'_> {
        self.records.events_from(cursor)
    }

    /// Everything but the records (what a
    /// [`crate::simpoint::PhaseSample`] keeps a copy of).
    pub(crate) fn totals(&self) -> &StreamTotals {
        &self.totals
    }

    /// Crate-internal: the coded records (store-blob serialization writes
    /// them verbatim).
    pub(crate) fn raw_bytes(&self) -> &[u8] {
        &self.records.bytes
    }

    /// Crate-internal: the records one at a time, each with where it
    /// starts and the reset point before it.
    pub(crate) fn records(&self) -> Records<'_> {
        Records::new(&self.records.bytes)
    }

    /// Crate-internal: rebuild a stream from store-blob raw parts. Parts
    /// that [`MissStream::check`] refuses are refused here: the blob's
    /// checksum vouches for its bytes, not for the writer, and replay
    /// steps by them.
    pub(crate) fn from_raw_parts(
        totals: StreamTotals,
        bytes: Vec<u8>,
    ) -> Result<MissStream, &'static str> {
        let ms = MissStream { records: MissRecords::new(&totals, bytes), totals };
        ms.check()?;
        Ok(ms)
    }

    /// What is wrong with the stream, if anything: its totals pass
    /// [`StreamTotals::check`], its bytes are whole records that each pass
    /// [`Record::check`], the runs cover `events` with `l2_misses`
    /// demands, and the thread-cycle track stays inside `core_cycles`.
    /// What [`MissStream::build`] must produce and what a loaded blob must
    /// hold (DESIGN.md §3.12).
    fn check(&self) -> Result<(), &'static str> {
        let t = &self.totals;
        t.check()?;
        let regions = t.regions.regions().len();
        let last = t.last_track();
        let (mut events, mut demands, mut track) = (0u64, 0u64, 0u64);
        for step in self.records() {
            let rec = step?.rec;
            rec.check(regions)?;
            track = track.saturating_add(rec.gap * rec.run);
            if track > last {
                return Err("cycle track past the core cycles");
            }
            events += rec.run;
            if rec.kind != KIND_WRITEBACK {
                demands += rec.run;
            }
        }
        if events != t.events {
            return Err("runs do not cover the stream's events");
        }
        if demands != t.l2_misses {
            return Err("demand events are not the LLC misses");
        }
        Ok(())
    }
}

/// One miss-stream record, decoded: `run` events of one `kind`, region
/// and attribute word, `gap` thread cycles apart, whose triggers sit on
/// the lines from `line` on and whose write-backs (unless the kind has
/// none) on the lines from `wb` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    pub kind: u64,
    pub region: u64,
    /// `addr & 63` | work | write (see the module docs).
    pub attrs: u64,
    pub gap: u64,
    pub line: u64,
    /// 0 for a kind without one.
    pub wb: u64,
    pub run: u64,
}

impl Record {
    /// The record of `run` events headed by `head`.
    fn of(kind: u64, head: &Access, gap: u64, wb: u64, run: u64) -> Record {
        assert!(
            (head.region as usize) < MAX_PACKED_REGIONS && head.work <= MAX_PACKED_WORK,
            "miss stream: region {} / work {} outside the record's 6 / 16 bits",
            head.region,
            head.work
        );
        let attrs =
            (head.addr & 63) << LOW_SHIFT | (head.work as u64) << WORK_SHIFT | head.write as u64;
        let region = head.region as u64;
        Record { kind, region, attrs, gap, line: head.addr >> 6, wb, run }
    }

    /// The trigger of the record's event `k`.
    #[inline(always)]
    pub fn trigger(&self, k: u64) -> Access {
        Access {
            addr: (self.line.wrapping_add(k) << 6) | self.attrs >> LOW_SHIFT,
            region: self.region as RegionId,
            write: self.attrs & 1 != 0,
            work: (self.attrs >> WORK_SHIFT & MAX_PACKED_WORK as u64) as u32,
        }
    }

    /// What is wrong with the record, if anything: a kind the decoder
    /// does not know, a run outside `1..=64`, attributes wider than their
    /// fields, a region outside the `regions` a stream registers, a
    /// gap past [`MAX_MISS_DELTA`], or a trigger or write-back line that
    /// leaves the address space while [`MissEvents`] steps through the
    /// run. Both readers of outside records — a stream's and a
    /// [`crate::simpoint::PhaseSample`]'s — check each one with this.
    pub fn check(&self, regions: usize) -> Result<(), &'static str> {
        if self.kind > KIND_WRITEBACK {
            return Err("unknown miss-event kind");
        }
        if self.run == 0 || self.run > MAX_MISS_RUN as u64 {
            return Err("miss record run outside 1..=64");
        }
        if self.attrs >> ATTRS_BITS != 0 {
            return Err("miss record attributes");
        }
        if self.region >= regions as u64 {
            return Err("miss record region");
        }
        if self.gap > MAX_MISS_DELTA {
            return Err("miss record gap");
        }
        // The decoder steps the trigger one line past the run's last event.
        if self.line.checked_add(self.run).is_none_or(|end| end >= LINE_LIMIT) {
            return Err("miss record past the address space");
        }
        if self.kind != KIND_DEMAND
            && self.wb.checked_add(self.run).is_none_or(|end| end > LINE_LIMIT)
        {
            return Err("write-back line past the address space");
        }
        Ok(())
    }
}

/// What a record is coded against: the attributes and gap of the last
/// record of its region, the line after that record's run, and the line
/// after the region's last write-back run. A region starts from the
/// default (all zero) after every reset. Aligned to its 32 bytes, so that
/// no context in the table straddles a cache line (DESIGN.md §3.13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(32))]
struct RecordContext {
    attrs: u64,
    gap: u64,
    line: u64,
    wb: u64,
}

impl RecordContext {
    /// The context the region's record after `r` is coded against.
    #[inline(always)]
    fn after(&self, r: &Record) -> RecordContext {
        let wb = if r.kind == KIND_DEMAND { self.wb } else { r.wb.wrapping_add(r.run) };
        RecordContext { attrs: r.attrs, gap: r.gap, line: r.line.wrapping_add(r.run), wb }
    }
}

/// Every region predicting itself: the successor table at a reset point.
const SELF_SUCCESSORS: [u8; MAX_PACKED_REGIONS] = {
    let mut next = [0; MAX_PACKED_REGIONS];
    let mut r = 0;
    while r < MAX_PACKED_REGIONS {
        next[r] = r as u8;
        r += 1;
    }
    next
};

/// The coder's and every decoder's state between records: the current
/// region and its context, held apart so that a run of records in one
/// region never touches the table, the contexts the other regions left,
/// the region whose record followed each region's last, and the records
/// left before the tables reset. It lives inline in what carries it (an
/// encoder, a decoder), so a resume allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Contexts {
    region: u64,
    cur: RecordContext,
    /// What each region left, where bit `r` of `live` is set; a region
    /// without its bit starts from the default.
    table: [RecordContext; MAX_PACKED_REGIONS],
    live: u64,
    /// The region whose record followed each region's last; every region
    /// itself at a reset point. Beside the contexts, not in them: read by
    /// the current region alone, the prediction is one load, where copied
    /// through a switch it sat on the chain from record to record and cost
    /// paper FT-CG's decode a third (DESIGN.md §3.13).
    next: [u8; MAX_PACKED_REGIONS],
    /// The run of each region's last record, 0 before its first since the
    /// reset point: beside the contexts, which stay 32 bytes.
    runs: [u8; MAX_PACKED_REGIONS],
    /// Records before the next reset; 0 at a reset point.
    left: usize,
}

impl Contexts {
    /// The state at a reset point.
    pub fn new() -> Self {
        let (cur, next, runs) =
            (RecordContext::default(), SELF_SUCCESSORS, [0; MAX_PACKED_REGIONS]);
        Contexts { region: 0, cur, table: [cur; MAX_PACKED_REGIONS], live: 0, next, runs, left: 0 }
    }

    /// Whether the next record starts a reset interval.
    #[inline(always)]
    pub fn at_reset(&self) -> bool {
        self.left == 0
    }

    /// Step to the next record, emptying the tables at a reset point.
    #[inline(always)]
    fn next_record(&mut self) {
        if self.left == 0 {
            (self.region, self.cur, self.live) = (0, RecordContext::default(), 0);
            (self.next, self.runs) = (SELF_SUCCESSORS, [0; MAX_PACKED_REGIONS]);
            self.left = RESET_RECORDS;
        }
        self.left -= 1;
    }

    /// The region the next record is predicted to be of: the one whose
    /// record followed the current region's last.
    #[inline(always)]
    fn predicted(&self) -> u64 {
        self.next[self.region as usize] as u64
    }

    /// Note that a record of `region` followed the current region's last,
    /// where [`Contexts::predicted`] named another. Where it named this one
    /// the table already says so, and neither coder writes it.
    #[inline(always)]
    fn follow(&mut self, region: u64) {
        self.next[self.region as usize] = region as u8;
    }

    /// Make `region` (below 64) current.
    #[inline(always)]
    fn enter(&mut self, region: u64) {
        if region != self.region {
            self.switch(region);
        }
    }

    /// The run of the current region's last record, 0 before its first.
    #[inline(always)]
    fn last_run(&self) -> u64 {
        self.runs[self.region as usize] as u64
    }

    /// Step the current region's context past its record `r`.
    #[inline(always)]
    fn close(&mut self, r: &Record) {
        self.cur = self.cur.after(r);
        self.runs[self.region as usize] = r.run as u8;
    }

    /// The current context goes to the table and `region`'s comes out of
    /// it. Inlined: FT-CG's streams change region on most records, and as
    /// an out-of-line call the switch cost paper FT-CG's decode half again
    /// (DESIGN.md §3.13).
    #[inline(always)]
    fn switch(&mut self, region: u64) {
        self.table[self.region as usize] = self.cur;
        self.live |= 1 << self.region;
        let live = self.live >> region & 1 != 0;
        self.cur = if live { self.table[region as usize] } else { RecordContext::default() };
        self.region = region;
    }
}

/// Append `r`, coded against `ctxs`, to `out` (the layout in the module
/// docs), and step `ctxs` past it.
pub(crate) fn put_record(out: &mut Vec<u8>, ctxs: &mut Contexts, r: &Record) {
    // Assembled on the stack and appended at once.
    let (mut buf, mut len) = ([0u8; MAX_RECORD_BYTES], 1);
    ctxs.next_record();
    let mut header = 0;
    if r.region == ctxs.predicted() {
        header |= REGION_SAME;
    } else {
        ctxs.follow(r.region);
        (buf[1], len) = (r.region as u8, 2);
    }
    ctxs.enter(r.region);
    let ctx = &ctxs.cur;
    let mut field = |v: u64| len += put_leb(&mut buf[len..], v);
    let run = if r.run == ctxs.last_run() {
        0
    } else if r.run < RUN_FIELD as u64 {
        r.run as u8
    } else {
        field(r.run);
        RUN_FIELD
    };
    header |= run << RUN_SHIFT;
    if r.attrs == ctx.attrs {
        header |= r.kind as u8;
    } else {
        header |= KIND_ATTRS;
        field(r.attrs << ATTRS_KIND_SHIFT | r.kind);
    }
    if r.gap == ctx.gap {
        header |= GAP_SAME;
    } else {
        field(r.gap);
    }
    if r.line == ctx.line {
        header |= LINE_SAME;
    } else {
        field(zigzag(r.line.wrapping_sub(ctx.line)));
    }
    if r.kind != KIND_DEMAND {
        field(zigzag(r.wb.wrapping_sub(ctx.wb)));
    }
    buf[0] = header;
    out.extend_from_slice(&buf[..len]);
    ctxs.close(r);
}

/// Decode the record at `*pos`, coded against `ctxs`, and step `*pos` and
/// `ctxs` past it. Only the bytes are checked (a field cut short, a
/// LEB128 field longer than 64 bits, a region byte past 63); what they say
/// — a kind of 3, a run of 0 where the region has had none, a region the
/// stream does not register — is [`Record::check`]'s to judge.
#[inline(always)]
pub(crate) fn get_record(
    bytes: &[u8],
    pos: &mut usize,
    ctxs: &mut Contexts,
) -> Result<Record, &'static str> {
    let &header = bytes.get(*pos).ok_or("miss record cut short")?;
    *pos += 1;
    ctxs.next_record();
    let region = if header & REGION_SAME != 0 {
        ctxs.predicted()
    } else {
        let &region = bytes.get(*pos).ok_or("miss record cut short")?;
        *pos += 1;
        if region as usize >= MAX_PACKED_REGIONS {
            return Err("miss record region byte past 63");
        }
        ctxs.follow(region as u64);
        region as u64
    };
    ctxs.enter(region);
    let ctx = &ctxs.cur;
    // Whether a run repeats the region's last is data-dependent, so it is
    // a select, not a branch; only the rare run field branches.
    let code = header >> RUN_SHIFT;
    let mut run = if code == 0 { ctxs.last_run() } else { code as u64 };
    if code == RUN_FIELD {
        run = get_leb(bytes, pos)?;
    }
    let (kind, attrs) = match header & KIND_MASK {
        KIND_ATTRS => {
            let v = get_leb(bytes, pos)?;
            (v & KIND_MASK as u64, v >> ATTRS_KIND_SHIFT)
        }
        kind => (kind as u64, ctx.attrs),
    };
    let gap = if header & GAP_SAME != 0 { ctx.gap } else { get_leb(bytes, pos)? };
    let line = if header & LINE_SAME != 0 {
        ctx.line
    } else {
        ctx.line.wrapping_add(unzigzag(get_leb(bytes, pos)?))
    };
    let wb =
        if kind == KIND_DEMAND { 0 } else { ctx.wb.wrapping_add(unzigzag(get_leb(bytes, pos)?)) };
    let rec = Record { kind, region, attrs, gap, line, wb, run };
    ctxs.close(&rec);
    Ok(rec)
}

/// Write `v` as LEB128 at the head of `out`; returns the bytes written.
fn put_leb(out: &mut [u8], mut v: u64) -> usize {
    let mut len = 0;
    while v >= 0x80 {
        out[len] = v as u8 | 0x80;
        v >>= 7;
        len += 1;
    }
    out[len] = v as u8;
    len + 1
}

/// The LEB128 field at `*pos`; `*pos` steps past it. A field of up to four
/// bytes — nearly every one a stream holds — is decoded inline, byte by
/// byte from one bounds check; a longer one, or one within four bytes of
/// the end, out of line.
#[inline(always)]
fn get_leb(bytes: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    if let Some(&[b0, b1, b2, b3]) = bytes.get(*pos..*pos + 4) {
        let (b0, b1, b2, b3) = (b0 as u64, b1 as u64, b2 as u64, b3 as u64);
        if b0 < 0x80 {
            *pos += 1;
            return Ok(b0);
        }
        let v = (b0 & 0x7f) | (b1 & 0x7f) << 7;
        if b1 < 0x80 {
            *pos += 2;
            return Ok(v);
        }
        let v = v | (b2 & 0x7f) << 14;
        if b2 < 0x80 {
            *pos += 3;
            return Ok(v);
        }
        let v = v | (b3 & 0x7f) << 21;
        if b3 < 0x80 {
            *pos += 4;
            return Ok(v);
        }
    }
    get_long_leb(bytes, pos)
}

fn get_long_leb(bytes: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    let (mut v, mut shift) = (0u64, 0u32);
    loop {
        let &b = bytes.get(*pos).ok_or("miss record cut short")?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err("miss record field over 64 bits");
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// A signed line delta (as its two's-complement bits) with its sign in
/// bit 0, so that short steps either way are small numbers.
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// One step of [`Records`]: a record, the byte offset it starts at, and
/// the reset point before it — its byte offset and the events before it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordStep {
    pub at: usize,
    pub reset: usize,
    pub reset_event: u64,
    pub rec: Record,
}

/// The records of a byte slice that starts at a reset point, one at a
/// time. An error ends the walk.
pub(crate) struct Records<'a> {
    bytes: &'a [u8],
    pos: usize,
    ctxs: Contexts,
    /// The last reset point, and the events before it and before `pos`.
    reset: usize,
    reset_event: u64,
    events: u64,
}

impl<'a> Records<'a> {
    /// The records of `bytes`, the first at a reset point.
    pub fn new(bytes: &'a [u8]) -> Self {
        Records { bytes, pos: 0, ctxs: Contexts::new(), reset: 0, reset_event: 0, events: 0 }
    }
}

impl Iterator for Records<'_> {
    type Item = Result<RecordStep, &'static str>;

    // Always inlined: the fingerprint scan walks every record of a stream
    // through it, and a step returned through memory costs that loop more
    // than the decode does.
    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let at = self.pos;
        if self.ctxs.at_reset() {
            (self.reset, self.reset_event) = (at, self.events);
        }
        match get_record(self.bytes, &mut self.pos, &mut self.ctxs) {
            Ok(rec) => {
                self.events += rec.run;
                Some(Ok(RecordStep { at, reset: self.reset, reset_event: self.reset_event, rec }))
            }
            Err(e) => {
                self.pos = self.bytes.len();
                Some(Err(e))
            }
        }
    }
}

/// Run-coalescing encoder for miss-stream records.
pub(crate) struct Encoder {
    bytes: Vec<u8>,
    /// What the next record is coded against.
    ctxs: Contexts,
    /// Events in the pending run; 0 when there is none, and then the four
    /// fields below are stale.
    run: usize,
    kind: u64,
    /// Head trigger of the pending run (for the +64/line extension check).
    head: Access,
    /// Head write-back line of the pending run.
    wb_line: u64,
    /// Per-event thread-cycle gap of the pending run.
    delta: u64,
    last_track: u64,
    events: u64,
}

impl OnEvent for Encoder {
    #[inline(always)]
    fn on_event(&mut self, ev: &MissEvent, track: u64) {
        self.push(ev, track)
    }
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            bytes: Vec::new(),
            ctxs: Contexts::new(),
            run: 0,
            kind: KIND_DEMAND,
            head: Access { addr: 0, region: 0, write: false, work: 0 },
            wb_line: 0,
            delta: 0,
            last_track: 0,
            events: 0,
        }
    }

    /// Append `ev`, at thread-cycle track `track`. A run is keyed on the
    /// thread-cycle gap, which a regular sweep repeats whatever the thread
    /// count; the core cycles `ev` carries are that track divided, and the
    /// decoder derives them again.
    #[inline]
    fn push(&mut self, ev: &MissEvent, track: u64) {
        let a = &ev.trigger;
        let (kind, wb_line) = match ev.kind {
            MissEventKind::Demand { writeback: None } => (KIND_DEMAND, 0),
            MissEventKind::Demand { writeback: Some(wb) } => (KIND_DEMAND_WB, wb >> 6),
            MissEventKind::Writeback(wb) => (KIND_WRITEBACK, wb >> 6),
        };
        self.events += 1;
        let delta = track - self.last_track;
        assert!(
            delta <= MAX_MISS_DELTA,
            "miss stream: a gap of {delta} thread cycles between DRAM events exceeds the \
             {DELTA_BITS}-bit range"
        );
        self.last_track = track;
        // One test, no short circuit: nine compares cost less than nine
        // branches, and whether an event extends the run depends on the data.
        let (head, run) = (&self.head, self.run as u64);
        let extends = (self.run != 0)
            & (self.run < MAX_MISS_RUN)
            & (self.kind == kind)
            & (head.region == a.region)
            & (head.write == a.write)
            & (head.work == a.work)
            & (a.addr == head.addr + 64 * run)
            & (self.delta == delta)
            & ((kind == KIND_DEMAND) | (wb_line == self.wb_line + run));
        if extends {
            self.run += 1;
            return;
        }
        self.flush();
        self.kind = kind;
        self.head = *a;
        self.wb_line = wb_line;
        self.delta = delta;
        self.run = 1;
    }

    fn flush(&mut self) {
        let run = std::mem::take(&mut self.run) as u64;
        if run == 0 {
            return;
        }
        let rec = Record::of(self.kind, &self.head, self.delta, self.wb_line, run);
        put_record(&mut self.bytes, &mut self.ctxs, &rec);
    }

    /// The records and the events they cover.
    fn finish(mut self) -> (Vec<u8>, u64) {
        self.flush();
        (self.bytes, self.events)
    }
}

/// Saved decoder state at an event boundary of a [`MissStream`]: the
/// reset point at or before the record the event is in (its byte offset
/// and the events before it), the record's byte offset, the position
/// inside the record's run, and the thread-cycle track accumulated through
/// the *previous* event. Captured once per slice by the SimPoint
/// fingerprint scan ([`crate::simpoint::SimPointSelection::build`]) and
/// handed back to [`MissStream::events_from`], which replays the contexts
/// of at most 1023 records from the reset point and resumes there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceCursor {
    /// Byte offset of the reset point the record's contexts replay from.
    pub(crate) reset: usize,
    /// Events before the reset point.
    pub(crate) reset_event: u64,
    /// Byte offset of the record the next event decodes from.
    pub(crate) idx: usize,
    /// Events of that record's run already consumed.
    pub(crate) run_pos: usize,
    /// Thread-cycle track accumulated through the previous event (the
    /// decoder's core cycles are this divided by the thread count).
    pub(crate) cycles: u64,
}

impl SliceCursor {
    /// The cursor at the head of the stream (equivalent to
    /// [`MissStream::iter`]).
    pub fn start() -> SliceCursor {
        SliceCursor::default()
    }

    /// Crate-internal constructor for the fingerprint scan: event
    /// `run_pos` of the record `step` decoded, at track `cycles`.
    pub(crate) fn at(step: &RecordStep, run_pos: usize, cycles: u64) -> SliceCursor {
        let (reset, reset_event, idx) = (step.reset, step.reset_event, step.at);
        SliceCursor { reset, reset_event, idx, run_pos, cycles }
    }
}

/// Coded event records and the thread count their gaps divide by — what
/// [`MissEvents`] walks. A [`MissStream`] holds all of a stream's; a
/// [`crate::simpoint::PhaseSample`] holds the slices it kept of one.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MissRecords {
    /// The records, back to back (see the module docs for the layout).
    pub bytes: Box<[u8]>,
    pub threads: u64,
}

impl MissRecords {
    /// `bytes` as records of the stream `totals` describes.
    pub fn new(totals: &StreamTotals, bytes: Vec<u8>) -> MissRecords {
        MissRecords { bytes: bytes.into_boxed_slice(), threads: totals.threads as u64 }
    }

    /// Decode from `cursor` on (see [`MissStream::events_from`]): the
    /// records from its reset point up to its own are decoded for their
    /// contexts alone, in the iterator's own table. A cursor whose walk
    /// does not land on a record head decodes nothing.
    pub fn events_from(&self, cursor: SliceCursor) -> MissEvents<'_> {
        let mut events = MissEvents {
            bytes: &self.bytes,
            pos: cursor.reset,
            ctxs: Contexts::new(),
            clock: CoreClock::resume(self.threads, cursor.cycles),
            left: 0,
            trigger: Access { addr: 0, region: 0, write: false, work: 0 },
            wb_line: 0,
            kind_bits: KIND_DEMAND,
        };
        while events.pos < cursor.idx {
            if get_record(&self.bytes, &mut events.pos, &mut events.ctxs).is_err() {
                break;
            }
        }
        if events.pos != cursor.idx {
            events.pos = self.bytes.len();
        } else if cursor.run_pos > 0 {
            events.load_record(cursor.run_pos as u64);
        }
        events
    }
}

/// The core cycles `⌊T / threads⌋` of a thread-cycle track `T`, stepped
/// by a record's gap without a division per record or per event: the
/// replay chain is latency-bound, and a divide there costs it a fifth
/// (DESIGN.md §3.13). A record splits its gap once into a quotient and a
/// remainder by `threads`, by a reciprocal multiply; an event adds both
/// to the track's and carries one remainder overflow, branch-free.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreClock {
    threads: u64,
    /// `⌈2^63 / threads⌉`.
    recip: u64,
    /// `⌊T / threads⌋` and `T mod threads`.
    core: u64,
    rem: u64,
    /// The gap's quotient and remainder by `threads`.
    step: u64,
    step_rem: u64,
}

impl CoreClock {
    /// The clock at track `track` — the one division a decoder makes.
    pub fn resume(threads: u64, track: u64) -> CoreClock {
        let recip = (1u64 << 63).div_ceil(threads);
        let (core, rem) = (track / threads, track % threads);
        CoreClock { threads, recip, core, rem, step: 0, step_rem: 0 }
    }

    /// Make `gap` thread cycles the step of every [`CoreClock::tick`]
    /// until the next call. `gap · recip / 2^63` overshoots
    /// `gap / threads` by under `gap / 2^63 < 2^-32`; a quotient that is
    /// not whole falls short of the next integer by at least
    /// `1 / threads`, so below 2^32 threads the floor is exact, and above
    /// it the gap is below `threads` and the product below 2^63.
    #[inline]
    pub fn set_gap(&mut self, gap: u64) {
        debug_assert!(gap <= MAX_MISS_DELTA);
        self.step = ((gap as u128 * self.recip as u128) >> 63) as u64;
        self.step_rem = gap - self.step * self.threads;
    }

    /// Step the track by the gap.
    #[inline(always)]
    pub fn tick(&mut self) {
        let rem = self.rem + self.step_rem;
        let carry = rem >= self.threads;
        self.rem = rem - if carry { self.threads } else { 0 };
        self.core += self.step + carry as u64;
    }

    /// `⌊T / threads⌋` of the track so far.
    #[inline(always)]
    pub fn core(&self) -> u64 {
        self.core
    }

    /// Take `n ≤ 64` ticks at once and return where they carried: bit `k`
    /// is set iff tick `k` stepped the core cycles by one more than the
    /// gap's quotient. The remainder repeats with a period of at most
    /// `threads` ticks, so the mask is stepped through one period and
    /// then copied by doubling shifts.
    #[inline]
    pub fn advance(&mut self, n: usize) -> u64 {
        debug_assert!((1..=64).contains(&n));
        let (rem0, mut rem) = (self.rem, self.rem);
        let (mut mask, mut period) = (0u64, 0);
        while period < n {
            rem += self.step_rem;
            let carry = rem >= self.threads;
            rem -= if carry { self.threads } else { 0 };
            mask |= (carry as u64) << period;
            period += 1;
            if rem == rem0 {
                break;
            }
        }
        while period < n {
            mask |= mask << period;
            period *= 2;
        }
        mask &= u64::MAX >> (64 - n);
        let (n, carries) = (n as u64, mask.count_ones() as u64);
        self.core += n * self.step + carries;
        self.rem = rem0 + n * self.step_rem - carries * self.threads;
        mask
    }

    /// The core cycles a tick steps by, without carry.
    #[inline(always)]
    pub fn step(&self) -> u64 {
        self.step
    }
}

/// Streaming decode of a [`MissStream`]'s events (runs expanded back into
/// individual events; the core cycles follow the thread-cycle track). A
/// record is decoded once, when its run starts; every event of the run is
/// the previous one stepped by a line. Bytes that do not decode end the
/// iteration; a stream's or a sample's were checked when they were built
/// or loaded.
#[derive(Debug)]
pub struct MissEvents<'a> {
    bytes: &'a [u8],
    /// Byte offset of the next record to decode, and what it is coded
    /// against.
    pos: usize,
    ctxs: Contexts,
    clock: CoreClock,
    /// Events of the decoded record still to yield.
    left: u64,
    /// The next event of the decoded record: its trigger, write-back
    /// line and kind (its gap is the clock's).
    trigger: Access,
    wb_line: u64,
    kind_bits: u64,
}

impl MissEvents<'_> {
    /// Decode the record at `pos` and step past the `skip` events of its
    /// run that were already consumed; `false` where no record decodes.
    /// Inlined into [`MissEvents::next`], so that the decoder's state stays
    /// in registers across a record.
    #[inline(always)]
    fn load_record(&mut self, skip: u64) -> bool {
        let Ok(rec) = get_record(self.bytes, &mut self.pos, &mut self.ctxs) else {
            self.pos = self.bytes.len();
            return false;
        };
        self.kind_bits = rec.kind;
        self.clock.set_gap(rec.gap & MAX_MISS_DELTA);
        self.left = rec.run.saturating_sub(skip);
        self.trigger = rec.trigger(skip);
        self.wb_line = rec.wb.wrapping_add(skip);
        true
    }
}

impl Iterator for MissEvents<'_> {
    type Item = MissEvent;

    // Always inlined: left to the heuristics, the larger body stays a call
    // in `drive_miss`, and the exact replay of paper FT-CG pays ~17%.
    #[inline(always)]
    fn next(&mut self) -> Option<MissEvent> {
        while self.left == 0 {
            if self.pos >= self.bytes.len() || !self.load_record(0) {
                return None;
            }
        }
        self.clock.tick();
        let kind = match self.kind_bits {
            KIND_DEMAND => MissEventKind::Demand { writeback: None },
            KIND_DEMAND_WB => MissEventKind::Demand { writeback: Some(self.wb_line << 6) },
            _ => MissEventKind::Writeback(self.wb_line << 6),
        };
        let ev = MissEvent { trigger: self.trigger, core_cycles: self.clock.core(), kind };
        self.left -= 1;
        self.trigger.addr = self.trigger.addr.wrapping_add(64);
        self.wb_line = self.wb_line.wrapping_add(1);
        Some(ev)
    }
}

/// Test input: a seeded trace of at least `accesses` accesses in write
/// sweeps and scattered accesses over `regions` regions, with the few-line
/// L1 and L2 it is meant to be filtered through, so that its stream holds
/// demand, demand + write-back and stand-alone write-back records, single
/// events and runs.
#[cfg(test)]
pub(crate) fn few_line_trace(
    seed: u64,
    regions: usize,
    accesses: usize,
) -> (crate::trace::Trace, CacheConfig, CacheConfig) {
    use rand::{Rng, SeedableRng};
    let l1 = CacheConfig { capacity: 512, ways: 2, line_bytes: 64, latency_cycles: 1 };
    let l2 = CacheConfig { capacity: 2048, ways: 4, line_bytes: 64, latency_cycles: 20 };
    let rng = &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut rm = RegionMap::new();
    let regions: Vec<_> =
        (0..regions).map(|i| rm.alloc(&format!("r{i}"), 64 * 256, i == 0)).collect();
    let bases: Vec<u64> = regions.iter().map(|&r| rm.get(r).base).collect();
    let mut t = crate::trace::Trace::new(rm);
    while t.accesses.len() < accesses {
        let r = rng.random_range(0..regions.len());
        let (write, work) = (rng.random_bool(0.5), rng.random_range(0..3));
        let first = rng.random_range(0..200u64);
        // One sweep in four is longer than the L2 and keeps rewriting
        // three lines of its own, which stay in the L1 while the sweep
        // pushes them out of the L2: when the L1 lets go of one the L2 has
        // to make room — a stand-alone write-back.
        let hot = rng.random_bool(0.25).then(|| bases[r] + rng.random_range(200..253u64) * 64);
        let lines = if hot.is_some() { rng.random_range(33..56) } else { rng.random_range(1..40) };
        for line in first..first + lines {
            t.push(bases[r] + line * 64, regions[r], write, work);
            if let Some(hot) = hot {
                t.push(hot + line % 3 * 64, regions[r], true, work);
            }
        }
    }
    (t, l1, l2)
}

/// Test-only: what the header byte `h` says, one name per field — the run
/// code, the region, the line, the attributes and the gap.
#[cfg(test)]
pub(crate) fn header_codes(h: u8) -> [&'static str; 5] {
    [
        match h >> RUN_SHIFT {
            0 => "run repeated",
            RUN_FIELD => "run field",
            _ => "run literal",
        },
        if h & REGION_SAME != 0 { "region predicted" } else { "region byte" },
        if h & LINE_SAME != 0 { "line continues" } else { "line field" },
        if h & KIND_MASK == KIND_ATTRS { "attributes escaped" } else { "attributes kept" },
        if h & GAP_SAME != 0 { "gap kept" } else { "gap field" },
    ]
}

/// Test-only: the [`header_codes`] the records of `bytes`, which start at a
/// reset point, meet.
#[cfg(test)]
pub(crate) fn header_codes_of(bytes: &[u8]) -> std::collections::BTreeSet<&'static str> {
    Records::new(bytes).flat_map(|step| header_codes(bytes[step.unwrap().at])).collect()
}

/// Test-only: every name [`header_codes`] gives some header byte.
#[cfg(test)]
pub(crate) fn every_header_code() -> std::collections::BTreeSet<&'static str> {
    (0..=u8::MAX).flat_map(header_codes).collect()
}

/// [`few_line_trace`] over three regions, filtered on one thread.
#[cfg(test)]
pub(crate) fn few_line_stream(seed: u64) -> MissStream {
    let (t, l1, l2) = few_line_trace(seed, 3, 600);
    MissStream::build(&mut t.replay(), l1, l2, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::trace::{RegionMap, Trace};

    fn sweep_trace(lines: u64, work: u32) -> Trace {
        let mut rm = RegionMap::new();
        let r = rm.alloc("v", lines * 64, true);
        let base = rm.get(r).base;
        let mut t = Trace::new(rm);
        for _ in 0..2 {
            for i in 0..lines {
                t.push(base + i * 64, r, true, work);
            }
        }
        t
    }

    #[test]
    fn filter_records_only_the_miss_tail() {
        let cfg = SystemConfig::default();
        // 1024 lines fit in L2 (8 MB) but not L1 (16 KB): second pass has
        // L1 misses that hit L2, so no new demand events.
        let t = sweep_trace(1024, 3);
        let ms = MissStream::build(&mut t.replay(), cfg.l1, cfg.l2, cfg.threads);
        assert_eq!(ms.accesses(), 2048);
        assert_eq!(ms.totals().l2_misses, 1024, "only the first pass misses L2");
        assert_eq!(ms.instructions(), t.instructions);
        assert!(ms.events() >= 1024);
        assert!(ms.core_cycles() > 0);
        assert!(ms.packed_bytes() > 0);
    }

    #[test]
    fn sweeps_coalesce_into_runs() {
        let cfg = SystemConfig { threads: 1, ..SystemConfig::default() };
        let t = sweep_trace(4096, 2);
        let ms = MissStream::build(&mut t.replay(), cfg.l1, cfg.l2, 1);
        // A uniform single-thread sweep has constant inter-miss deltas, so
        // runs coalesce: far fewer records than events.
        assert!(
            ms.packed_bytes() < ms.events() * 4,
            "sweep must coalesce ({} bytes for {} events)",
            ms.packed_bytes(),
            ms.events()
        );
        // Decode covers every event with a monotone cycle track that
        // stays inside the recorded total.
        let mut last = 0u64;
        let mut n = 0u64;
        for ev in ms.iter() {
            assert!(ev.core_cycles >= last, "cycle track must be monotone");
            last = ev.core_cycles;
            n += 1;
        }
        assert_eq!(n, ms.events());
        assert!(last <= ms.core_cycles());
    }

    #[test]
    fn decode_round_trips_events_exactly() {
        // Compare the decoded event stream against an uncoalesced
        // reference walk of the same caches.
        let cfg = SystemConfig::default();
        let t = sweep_trace(2048, 1);
        let ms = MissStream::build(&mut t.replay(), cfg.l1, cfg.l2, cfg.threads);

        let mut l1 = Cache::new(cfg.l1);
        let mut l2 = Cache::new(cfg.l2);
        let mut expected: Vec<(Access, u64)> = Vec::new();
        for a in &t.accesses {
            match l1.access(a.addr, a.write) {
                CacheOutcome::Hit => continue,
                CacheOutcome::Miss { writeback } => {
                    if let Some(wb) = writeback {
                        if let CacheOutcome::Miss { writeback: Some(wb2) } = l2.access(wb, true) {
                            expected.push((*a, wb2));
                        }
                    }
                }
            }
            if let CacheOutcome::Miss { writeback } = l2.access(a.addr, a.write) {
                expected.push((*a, writeback.unwrap_or(u64::MAX)));
            }
        }
        let decoded: Vec<MissEvent> = ms.iter().collect();
        assert_eq!(decoded.len(), expected.len());
        for (ev, (a, wb)) in decoded.iter().zip(&expected) {
            assert_eq!(ev.trigger, *a, "trigger accesses must round-trip");
            match ev.kind {
                MissEventKind::Demand { writeback: Some(w) } => assert_eq!(w, *wb),
                MissEventKind::Demand { writeback: None } => assert_eq!(*wb, u64::MAX),
                MissEventKind::Writeback(w) => assert_eq!(w, *wb),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn resuming_at_any_event_yields_the_tail_of_a_full_walk(seed: u64) {
            use proptest::prelude::*;
            let ms = few_line_stream(seed);
            let all: Vec<MissEvent> = ms.iter().collect();
            prop_assert_eq!(all.len() as u64, ms.events());

            // One cursor per event, read off the records, and one at the end.
            let mut cursors = Vec::new();
            let mut cycles = 0u64;
            for step in ms.records() {
                let step = step.unwrap();
                for run_pos in 0..step.rec.run as usize {
                    cursors.push(SliceCursor::at(&step, run_pos, cycles));
                    cycles += step.rec.gap;
                }
            }
            let reset = cursors.last().copied().unwrap_or_default();
            cursors.push(SliceCursor { idx: ms.raw_bytes().len(), run_pos: 0, cycles, ..reset });
            prop_assert_eq!(cursors.len(), all.len() + 1);
            prop_assert!(cursors.iter().any(|c| c.run_pos > 1), "no run was resumed mid-way");
            for (k, &cursor) in cursors.iter().enumerate() {
                let tail: Vec<MissEvent> = ms.events_from(cursor).collect();
                prop_assert!(tail == all[k..], "resumed at event {k} ({cursor:?})");
            }
        }
    }

    #[test]
    fn a_resume_at_every_record_of_three_reset_intervals_decodes_the_tail() {
        let (t, l1, l2) = few_line_trace(5, 3, 14_000);
        let ms = MissStream::build(&mut t.replay(), l1, l2, 3);
        let all: Vec<MissEvent> = ms.iter().collect();
        let steps: Vec<RecordStep> = ms.records().map(|step| step.unwrap()).collect();
        let intervals = steps.len().div_ceil(RESET_RECORDS);
        assert!(intervals >= 3, "{} records", steps.len());
        let (mut cycles, mut event, mut reset, mut escapes) = (0u64, 0usize, (0, 0), 0);
        for (n, step) in steps.iter().enumerate() {
            if n % RESET_RECORDS == 0 {
                reset = (step.at, event as u64);
                escapes += (step.rec.region != 0) as usize;
            }
            assert_eq!((step.reset, step.reset_event), reset, "record {n}");
            if [0, intervals / 2, intervals - 1].contains(&(n / RESET_RECORDS)) {
                let last = step.rec.run as usize - 1;
                for run_pos in [0, last] {
                    let track = cycles + step.rec.gap * run_pos as u64;
                    let tail = ms.events_from(SliceCursor::at(step, run_pos, track));
                    assert!(
                        tail.eq(all[event + run_pos..].iter().copied()),
                        "record {n}+{run_pos}"
                    );
                }
            }
            cycles += step.rec.gap * step.rec.run;
            event += step.rec.run as usize;
        }
        assert!(escapes > 0, "no reset point fell on a record of another region");
    }

    #[test]
    fn every_header_code_round_trips_on_both_sides_of_a_reset_point() {
        let (t, l1, l2) = few_line_trace(7, 3, 14_000);
        let mut want = Vec::new();
        walk(&mut t.replay(), l1, l2, 2, |ev, _| want.push(*ev));
        let ms = MissStream::build(&mut t.replay(), l1, l2, 2);
        assert!(ms.iter().eq(want.iter().copied()), "full decode");
        let bytes = ms.raw_bytes();
        // The codes met before the first reset point, and after it.
        let mut seen = [std::collections::BTreeSet::new(), std::collections::BTreeSet::new()];
        let (mut cycles, mut event) = (0u64, 0usize);
        for (n, step) in ms.records().enumerate() {
            let step = step.unwrap();
            seen[(n >= RESET_RECORDS) as usize].extend(header_codes(bytes[step.at]));
            let tail = ms.events_from(SliceCursor::at(&step, 0, cycles));
            assert!(tail.eq(want[event..].iter().copied()), "record {n}");
            cycles += step.rec.gap * step.rec.run;
            event += step.rec.run as usize;
        }
        assert_eq!(event, want.len());
        for (side, codes) in ["before", "after"].iter().zip(&seen) {
            assert_eq!(*codes, every_header_code(), "{side} the first reset point");
        }
    }

    #[test]
    fn a_sweep_is_one_record_per_64_events_whatever_the_thread_count() {
        // 200 lines read once through caches they all miss, at 5 thread
        // cycles an access (the L2 adds none): a thread-cycle gap of 5,
        // whose core-cycle gaps step unevenly at 3, 4 and 6 threads.
        let l1 = CacheConfig { capacity: 4096, ways: 4, line_bytes: 64, latency_cycles: 1 };
        let l2 = CacheConfig { capacity: 8192, ways: 8, line_bytes: 64, latency_cycles: 0 };
        let mut rm = RegionMap::new();
        let r = rm.alloc("v", 200 * 64, true);
        let base = rm.get(r).base;
        let mut t = Trace::new(rm);
        for i in 0..200 {
            t.push(base + i * 64, r, false, 5);
        }
        for threads in [1, 3, 4, 6] {
            let ms = MissStream::build(&mut t.replay(), l1, l2, threads);
            assert_eq!(ms.events(), 200);
            assert_eq!(ms.records().count(), 4, "{threads} threads: ⌈200 / 64⌉ records");
            for (i, ev) in ms.iter().enumerate() {
                let track = 5 * (i as u64 + 1);
                assert_eq!(ev.core_cycles, track / threads as u64, "event {i}, {threads} threads");
            }
        }
    }

    /// A two-event stream of one region whose second event is `gap` thread
    /// cycles after its first, encoded and decoded at four threads.
    fn two_events_apart(gap: u64) -> Vec<MissEvent> {
        let mut enc = Encoder::new();
        let trigger = Access { addr: 0, region: 0, write: false, work: 0 };
        let kind = MissEventKind::Demand { writeback: None };
        for track in [1, 1 + gap] {
            enc.push(&MissEvent { trigger, core_cycles: track / 4, kind }, track);
        }
        let (bytes, _) = enc.finish();
        let records = MissRecords { bytes: bytes.into_boxed_slice(), threads: 4 };
        records.events_from(SliceCursor::start()).collect()
    }

    #[test]
    fn the_longest_gap_a_record_holds_round_trips() {
        let events = two_events_apart(MAX_MISS_DELTA);
        let core: Vec<u64> = events.iter().map(|ev| ev.core_cycles).collect();
        assert_eq!(core, [0, (1 + MAX_MISS_DELTA) / 4]);
    }

    #[test]
    #[should_panic(expected = "thread cycles between DRAM events exceeds the 31-bit range")]
    fn a_gap_one_thread_cycle_longer_is_refused() {
        two_events_apart(MAX_MISS_DELTA + 1);
    }

    #[test]
    fn the_clock_divides_exactly_at_any_thread_count() {
        use rand::{Rng, SeedableRng};
        let rng = &mut rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for threads in [1, 2, 3, 4, 6, 7, 1000, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1 << 62] {
            let mut track = rng.random_range(0..1u64 << 40);
            let mut clock = CoreClock::resume(threads, track);
            for _ in 0..200 {
                // Gaps at both ends of the range, and multiples of the count.
                let gap = match rng.random_range(0..4) {
                    0 => MAX_MISS_DELTA - rng.random_range(0..threads.min(64)),
                    1 => rng.random_range(0..threads.min(MAX_MISS_DELTA)),
                    2 => threads.saturating_mul(rng.random_range(0..8)).min(MAX_MISS_DELTA),
                    _ => rng.random_range(0..=MAX_MISS_DELTA),
                };
                clock.set_gap(gap);
                let n = rng.random_range(1..=MAX_MISS_RUN);
                // Tick by tick, or all at once with the carries reported.
                if rng.random_range(0..2) == 0 {
                    for _ in 0..n {
                        clock.tick();
                        track += gap;
                        assert_eq!(clock.core(), track / threads, "{threads} threads, gap {gap}");
                    }
                } else {
                    let carries = clock.advance(n);
                    for k in 0..n {
                        let step = (track + gap) / threads - track / threads;
                        assert_eq!(step, clock.step() + (carries >> k & 1), "tick {k}");
                        track += gap;
                    }
                    assert_eq!(carries >> (n - 1) >> 1, 0, "no carries past tick {n}");
                    assert_eq!(clock.core(), track / threads, "{threads} threads, gap {gap}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "below the 64-byte DRAM burst")]
    fn lines_shorter_than_a_record_unit_are_refused() {
        // Half the write-backs of 32-byte-line caches sit at odd 32-byte
        // lines, which `wb >> 6` cannot hold.
        let l1 = CacheConfig { capacity: 1024, ways: 2, line_bytes: 32, latency_cycles: 1 };
        let l2 = CacheConfig { capacity: 4096, ways: 4, line_bytes: 32, latency_cycles: 20 };
        let t = sweep_trace(64, 1);
        MissStream::build(&mut t.replay(), l1, l2, 1);
    }

    #[test]
    fn filter_config_is_pinned() {
        let cfg = SystemConfig::default();
        let t = sweep_trace(256, 1);
        let ms = MissStream::build(&mut t.replay(), cfg.l1, cfg.l2, 4);
        assert!(ms.matches(&cfg.l1, &cfg.l2, 4));
        assert!(!ms.matches(&cfg.l1, &cfg.l2, 1));
        assert!(!ms.matches(&cfg.l2, &cfg.l2, 4));
        assert_eq!(ms.filter_config(), (cfg.l1, cfg.l2, 4));
    }
}
