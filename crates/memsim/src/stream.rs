//! Pull-based access streams: the trace layer's core abstraction.
//!
//! The paper's Pin→McSim stack never holds a whole trace in memory — it
//! streams references into the timing model. [`AccessSource`] is that
//! interface: a resumable producer of [`Access`] records that the
//! simulator drains in bounded-memory chunks. The product has two
//! producers, and the suites a third:
//!
//! * [`crate::workloads::KernelStream`] — generate a kernel's reference
//!   stream step by step, never materializing more than one outer-loop
//!   iteration.
//! * [`crate::packed::PackedReplay`] — replay a compact 8-byte-per-run
//!   packed trace (a `.trace` blob loaded back from the artifact store).
//! * [`Trace::replay`] — replay a materialized [`Trace`], the reference
//!   the equivalence suites compare the other two against
//!   ([`Trace::from_source`] materializes any source).
//!
//! The dual trait [`AccessSink`] is the producer side: the kernels' step
//! emitters ([`crate::workloads::KernelParams::emit_into`]) write into any
//! sink — the stream's chunk buffer, the packed builder, a `.trace` blob
//! being written, or the L1 → L2 walker itself, which is how a miss stream
//! is filtered without a trace ever being held — so every form runs the
//! same emission code.
//!
//! The unit both traits also speak is the line sweep, a [`Run`]: the
//! generators emit sweeps ([`AccessSink::emit_lines`]) and the cache walker
//! pulls them ([`AccessSource::fill_runs`]) or is handed them. Both methods
//! are provided in terms of the per-access ones; the packed builder, the
//! packed replay and the walker, which take sweeps whole, override them and
//! never take one apart.

use crate::trace::{Access, RegionId, RegionMap, Trace};

/// Default number of accesses the simulator pulls per chunk (512 KB of
/// transient buffer at 16 B per record).
pub const DEFAULT_CHUNK: usize = 32 * 1024;

/// Accesses the L1 → L2 walker pulls per [`RunChunk`]: as many as make the
/// run buffer, were every run a single access, the size of a
/// [`DEFAULT_CHUNK`] of `Access` records — the buffer it replaced.
pub(crate) const RUN_CHUNK: usize =
    DEFAULT_CHUNK * std::mem::size_of::<Access>() / std::mem::size_of::<Run>();

/// A resumable, pull-based producer of memory accesses.
///
/// Contract: [`fill`](AccessSource::fill) clears `buf` and appends up to
/// `max` accesses in stream order, returning how many were written; `0`
/// means the stream is exhausted. [`reset`](AccessSource::reset) rewinds
/// to the first access, and a reset stream must reproduce the identical
/// sequence (sources are deterministic).
pub trait AccessSource {
    /// The region registry the stream's accesses refer to.
    fn regions(&self) -> &RegionMap;

    /// Clear `buf` and refill it with up to `max` accesses; returns the
    /// number written (0 = exhausted).
    fn fill(&mut self, buf: &mut Vec<Access>, max: usize) -> usize;

    /// Rewind to the beginning of the stream.
    fn reset(&mut self);

    /// The run-level pull: clear `chunk` and refill it with runs covering
    /// up to `max` accesses in stream order (a run that would cross the
    /// bound is split there); returns the accesses covered (0 =
    /// exhausted). It advances the same cursor as
    /// [`fill`](AccessSource::fill). Provided: each access pulled through
    /// `fill` is a run of one. A source that holds its stream as line
    /// sweeps ([`crate::packed::PackedReplay`]) overrides it to hand them
    /// out whole, so the consumer ([`crate::miss_stream`]'s walker) pays
    /// its per-access bookkeeping once per sweep.
    fn fill_runs(&mut self, chunk: &mut RunChunk, max: usize) -> usize {
        let n = self.fill(&mut chunk.accesses, max);
        chunk.runs.clear();
        chunk.runs.extend(chunk.accesses.iter().map(|&head| Run { head, len: 1 }));
        n
    }

    /// Exact total number of accesses, if known without draining.
    fn len_hint(&self) -> Option<u64> {
        None
    }

    /// Exact total retired instructions (work + one per access), if known
    /// without draining. Sources that don't know let the consumer
    /// accumulate the identical sum while draining.
    fn instructions_hint(&self) -> Option<u64> {
        None
    }
}

/// A line sweep: `len` accesses to consecutive 64-byte lines, alike in
/// region, direction and work. Access `i` is `head` with `addr + 64 * i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The first access of the sweep.
    pub head: Access,
    /// Accesses in the sweep, at least 1.
    pub len: u32,
}

impl Run {
    /// The sweep's accesses, in order.
    #[inline]
    pub(crate) fn accesses(self) -> impl Iterator<Item = Access> {
        let head = self.head;
        (0..self.len as u64).map(move |i| Access { addr: head.addr + 64 * i, ..head })
    }
}

/// The buffer [`AccessSource::fill_runs`] fills.
#[derive(Debug, Default)]
pub struct RunChunk {
    /// The runs of the last pull, in stream order.
    pub runs: Vec<Run>,
    /// Where the provided `fill_runs` pulls `Access` records before it
    /// wraps them; a source that overrides it leaves this empty.
    accesses: Vec<Access>,
}

impl RunChunk {
    /// A chunk with room for `runs` runs.
    pub fn with_capacity(runs: usize) -> Self {
        RunChunk { runs: Vec::with_capacity(runs), accesses: Vec::new() }
    }
}

/// A consumer of emitted accesses — the generator-facing dual of
/// [`AccessSource`], implemented by the packed builder and the plain
/// `Vec<Access>` chunk buffer.
pub trait AccessSink {
    /// Record one reference.
    fn emit(&mut self, addr: u64, region: RegionId, write: bool, work: u32);

    /// Record `lines` references alike in `region`, `write` and `work`, at
    /// `addr`, `addr + 64`, … — one line sweep. Provided as that many
    /// [`emit`](AccessSink::emit)s; a sink that stores sweeps (the packed
    /// coalescer behind [`crate::packed::PackedBuilder`]) overrides it with
    /// arithmetic on the sweep, to the same stream.
    fn emit_lines(&mut self, addr: u64, region: RegionId, write: bool, work: u32, lines: u64) {
        let mut a = addr;
        for _ in 0..lines {
            self.emit(a, region, write, work);
            a += 64;
        }
    }

    /// Touch every line of `bytes` bytes starting at `addr` once,
    /// spreading `total_work` instructions uniformly across the touches
    /// (the streaming sweep primitive shared by every kernel generator).
    fn emit_span(&mut self, region: RegionId, addr: u64, bytes: u64, write: bool, total_work: u64) {
        let lines = bytes.div_ceil(64).max(1);
        let per = (total_work / lines) as u32;
        self.emit_lines(addr & !63, region, write, per, lines);
    }
}

impl AccessSink for Vec<Access> {
    fn emit(&mut self, addr: u64, region: RegionId, write: bool, work: u32) {
        self.push(Access { addr, region, write, work });
    }
}

/// Two sinks fed one stream: every access and every sweep goes to both, in
/// order — one generation that is walked and its packed words counted at
/// once.
pub(crate) struct Tee<'a, A, B>(pub &'a mut A, pub &'a mut B);

impl<A: AccessSink, B: AccessSink> AccessSink for Tee<'_, A, B> {
    #[inline]
    fn emit(&mut self, addr: u64, region: RegionId, write: bool, work: u32) {
        self.0.emit(addr, region, write, work);
        self.1.emit(addr, region, write, work);
    }

    #[inline]
    fn emit_lines(&mut self, addr: u64, region: RegionId, write: bool, work: u32, lines: u64) {
        self.0.emit_lines(addr, region, write, work, lines);
        self.1.emit_lines(addr, region, write, work, lines);
    }
}

/// Replay adapter over a materialized [`Trace`].
#[derive(Debug)]
pub struct TraceReplay<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl Trace {
    /// A pull-based stream over this trace's accesses.
    pub fn replay(&self) -> TraceReplay<'_> {
        TraceReplay { trace: self, pos: 0 }
    }

    /// Materialize a source — the one way to get a [`Trace`] of a stream,
    /// and what the type is for: the `Vec<Access>` the equivalence suites
    /// hold the streaming and packed forms against. The source is rewound
    /// first, so a fresh and a half-drained one materialize alike.
    pub fn from_source<S: AccessSource + ?Sized>(src: &mut S) -> Trace {
        src.reset();
        let mut t = Trace::new(src.regions().clone());
        if let Some(n) = src.len_hint() {
            t.accesses.reserve_exact(n as usize);
        }
        let mut chunk = Vec::with_capacity(DEFAULT_CHUNK);
        while src.fill(&mut chunk, DEFAULT_CHUNK) > 0 {
            for a in &chunk {
                t.push(a.addr, a.region, a.write, a.work);
            }
        }
        t
    }
}

impl AccessSource for TraceReplay<'_> {
    fn regions(&self) -> &RegionMap {
        &self.trace.regions
    }

    fn fill(&mut self, buf: &mut Vec<Access>, max: usize) -> usize {
        buf.clear();
        let n = max.min(self.trace.accesses.len() - self.pos);
        buf.extend_from_slice(&self.trace.accesses[self.pos..self.pos + n]);
        self.pos += n;
        n
    }

    fn reset(&mut self) {
        self.pos = 0;
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.trace.accesses.len() as u64)
    }

    fn instructions_hint(&self) -> Option<u64> {
        Some(self.trace.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut rm = RegionMap::new();
        let r = rm.alloc("v", 4096, true);
        let base = rm.get(r).base;
        let mut t = Trace::new(rm);
        for i in 0..100u64 {
            t.push(base + (i % 64) * 64, r, i % 3 == 0, (i % 7) as u32);
        }
        t
    }

    #[test]
    fn replay_reproduces_the_trace_in_chunks() {
        let t = sample_trace();
        let mut replay = t.replay();
        let mut out = Vec::new();
        let mut chunk = Vec::new();
        while replay.fill(&mut chunk, 7) > 0 {
            out.extend_from_slice(&chunk);
        }
        assert_eq!(out, t.accesses);
        assert_eq!(replay.len_hint(), Some(100));
        assert_eq!(replay.instructions_hint(), Some(t.instructions));
    }

    #[test]
    fn reset_rewinds_to_the_start() {
        let t = sample_trace();
        let mut replay = t.replay();
        let mut chunk = Vec::new();
        replay.fill(&mut chunk, 10);
        let first = chunk.clone();
        replay.reset();
        replay.fill(&mut chunk, 10);
        assert_eq!(chunk, first);
    }

    #[test]
    fn from_source_round_trips() {
        let t = sample_trace();
        let back = Trace::from_source(&mut t.replay());
        assert_eq!(back.accesses, t.accesses);
        assert_eq!(back.instructions, t.instructions);
        assert_eq!(back.regions.regions(), t.regions.regions());
    }

    #[test]
    fn from_source_rewinds_a_half_drained_source() {
        use crate::workloads::{CgParams, KernelParams};
        let params =
            KernelParams::Cg(CgParams { grid: 128, iterations: 2, abft: true, verify_interval: 2 });
        let fresh = Trace::from_source(&mut params.stream());
        assert!(fresh.len() > 2 * DEFAULT_CHUNK, "the workload must outlast the drained part");
        // A chunk and a half in: the half chunk ends inside a kernel step
        // and inside a packed run.
        let drained = |src: &mut dyn AccessSource| {
            let mut chunk = Vec::new();
            assert_eq!(src.fill(&mut chunk, DEFAULT_CHUNK), DEFAULT_CHUNK);
            assert_eq!(src.fill(&mut chunk, DEFAULT_CHUNK / 2), DEFAULT_CHUNK / 2);
            Trace::from_source(src)
        };
        let packed = std::sync::Arc::new(params.build_packed());
        for (form, t) in [
            ("kernel stream", drained(&mut params.stream())),
            ("packed replay", drained(&mut packed.replay())),
        ] {
            assert_eq!(t.len(), fresh.len(), "{form}");
            assert!(t.accesses == fresh.accesses, "{form}");
            assert_eq!(t.instructions, fresh.instructions, "{form}");
        }
    }

    #[test]
    fn the_run_level_pull_splits_runs_at_the_bound_and_rewinds() {
        use crate::workloads::{CgParams, KernelParams};
        let params =
            KernelParams::Cg(CgParams { grid: 48, iterations: 2, abft: true, verify_interval: 2 });
        let fresh = Trace::from_source(&mut params.stream());
        let packed = std::sync::Arc::new(params.build_packed());
        assert!(packed.words().any(|w| crate::packed::run_len(w) > 7), "no run to split");
        // Pull up to `bound` accesses at a time until `upto` are out.
        let pull = |src: &mut dyn AccessSource, bound: usize, upto: usize| {
            let (mut chunk, mut out) = (RunChunk::default(), Vec::new());
            while out.len() < upto {
                let n = src.fill_runs(&mut chunk, bound);
                assert!(n > 0 && n <= bound);
                assert_eq!(chunk.runs.iter().map(|r| r.len as usize).sum::<usize>(), n);
                out.extend(chunk.runs.iter().flat_map(|run| run.accesses()));
            }
            out
        };
        // The kernel stream has the provided pull, the packed replay its own.
        let sources: [(&str, Box<dyn AccessSource>); 2] = [
            ("kernel stream", Box::new(params.stream())),
            ("packed replay", Box::new(packed.replay())),
        ];
        for (form, mut src) in sources {
            let half = pull(&mut *src, 7, fresh.len() / 2);
            assert!(half == fresh.accesses[..half.len()], "{form}: first half");
            src.reset();
            let all = pull(&mut *src, 100, fresh.len());
            assert!(all == fresh.accesses, "{form}: after reset");
            assert_eq!(src.fill_runs(&mut RunChunk::default(), 100), 0, "{form}: drained");
        }
    }

    #[test]
    fn emit_span_touches_every_line_once() {
        let mut rm = RegionMap::new();
        let r = rm.alloc("v", 640, true);
        let base = rm.get(r).base;
        let mut v: Vec<Access> = Vec::new();
        v.emit_span(r, base + 8, 640, false, 1000);
        assert_eq!(v.len(), 10);
        for (i, a) in v.iter().enumerate() {
            assert_eq!(
                *a,
                Access { addr: base + 64 * i as u64, region: r, write: false, work: 100 }
            );
        }
    }
}
