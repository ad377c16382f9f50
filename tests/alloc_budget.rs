//! Replay allocates per run, never per event or per phase. A counting
//! global allocator tallies the allocations and bytes each thread asks
//! for, and every replay path — the one-lane and six-lane miss-stream
//! replay, the DGMS policy, a live or packed source through the L1/L2
//! walk, and both sampled inputs — must ask for exactly as many at N
//! events as at 2N, and the sampled ones at 4 phases as at 8. A buffer
//! made inside the per-event or per-phase loop grows the count with the
//! stream; one made per run does not, wherever it sits.
//!
//! The workload is a small FT-CG under a 64 KiB L2: with the default
//! 8 MiB L2 the whole grid stays resident and more iterations add no
//! miss event, so the stream would not grow with them.
//!
//! The same allocator keeps each thread's live bytes and their high-water
//! mark, which holds the memory the filter and the store need: a filter
//! pass that generates its workload holds no more than a walk of a trace
//! built beforehand, with a store attached it holds no packed trace
//! either, and a blob is written through a fixed buffer, not assembled
//! whole.

use abft_coop::abft_dgms::run_dgms;
use abft_coop::abft_memsim::config::CacheConfig;
use abft_coop::abft_memsim::{ArtifactStore, FilterKey, PhaseSample};
use abft_coop::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

/// The system allocator, with every allocation and reallocation tallied
/// on the thread that asks for it.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (a block freed on
    /// another thread than its own makes it drift; the windows below
    /// allocate and free on one).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since [`peak_bytes`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Tally one request of `bytes`. A const thread-local holding a `Cell`
/// needs no allocation and no destructor, so it is safe to touch from
/// inside the allocator; `try_with` skips a thread already torn down.
fn tally(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

/// Move this thread's live bytes by `delta` and keep their high-water mark.
fn live(delta: i64) {
    let _ = LIVE.try_with(|l| {
        let now = l.get() + delta;
        l.set(now);
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and bytes this thread asks for while `f` runs; what `f`
/// returns is dropped outside the count.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let (n0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let counts = (ALLOCS.with(Cell::get) - n0, BYTES.with(Cell::get) - b0);
    drop(out);
    counts
}

/// The most bytes this thread held live at once while `f` ran, beyond what
/// it held when `f` began; what `f` returns is dropped outside the window.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> u64 {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    let peak = PEAK.with(Cell::get) - start;
    drop(out);
    peak as u64
}

/// Default node, L2 shrunk to 64 KiB so the CG grid misses it.
fn cfg() -> SystemConfig {
    let base = SystemConfig::default();
    SystemConfig { l2: CacheConfig { capacity: 64 * 1024, ..base.l2 }, ..base }
}

/// FT-CG at `iterations`: 2 is the N-event stream, 4 the 2N one, 20 the
/// stream whose blob a write must not hold.
fn cg(iterations: usize) -> KernelParams {
    CgParams { grid: 96, iterations, abft: true, verify_interval: 2 }.into()
}

/// One size of the workload: its parameters, packed trace and miss
/// stream, built once and shared by the tests.
struct Size {
    params: KernelParams,
    packed: Arc<PackedTrace>,
    stream: MissStream,
}

fn sizes() -> &'static [Size; 2] {
    static SIZES: OnceLock<[Size; 2]> = OnceLock::new();
    SIZES.get_or_init(|| {
        let cfg = cfg();
        let size = |iterations| {
            let params = cg(iterations);
            let packed = Arc::new(params.build_packed());
            let stream = MissStream::build(&mut packed.replay(), cfg.l1, cfg.l2, cfg.threads);
            Size { params, packed, stream }
        };
        let sizes = [size(2), size(4)];
        assert_eq!(sizes[1].stream.events(), 2 * sizes[0].stream.events(), "2N is not 2N");
        sizes
    })
}

/// `path`'s counts at N and at 2N events are the same.
fn flat(name: &str, path: impl Fn(&Size) -> (u64, u64)) {
    let [n, two_n] = sizes();
    let (at_n, at_2n) = (path(n), path(two_n));
    assert!(at_n.0 > 0, "{name}: nothing counted; is the counting allocator installed?");
    assert_eq!(at_n, at_2n, "{name}: (allocations, bytes) at N vs 2N events");
}

#[test]
fn miss_stream_replay_allocates_flat() {
    let cfg = cfg();
    let machine = Machine::new(cfg.clone());
    flat("one lane", |s| {
        counted(|| run_cell(SimInput::MissStream(&s.stream), &cfg, Strategy::PartialChipkillSecded))
    });
    flat("six-lane row", |s| {
        counted(|| run_cells(SimInput::MissStream(&s.stream), &cfg, &Strategy::ALL))
    });
    flat("DGMS", |s| counted(|| run_dgms(&machine, SimInput::MissStream(&s.stream))));
}

#[test]
fn source_replay_allocates_flat() {
    let cfg = cfg();
    let machine = Machine::new(cfg.clone());
    let lane = Strategy::PartialChipkillSecded;
    flat("live stream", |s| {
        counted(|| run_cell(SimInput::Source(&mut s.params.stream()), &cfg, lane))
    });
    flat("packed replay", |s| {
        counted(|| run_cell(SimInput::Source(&mut s.packed.replay()), &cfg, lane))
    });
    flat("DGMS, live stream", |s| {
        counted(|| run_dgms(&machine, SimInput::Source(&mut s.params.stream())))
    });
}

#[test]
fn sampled_replay_allocates_flat() {
    let cfg = cfg();
    // Both sampled inputs at N and 2N events, each at 4 and at 8 phases:
    // one count for all four, per input.
    let mut streams = Vec::new();
    let mut samples = Vec::new();
    for s in sizes() {
        for max_phases in [4, 8] {
            let sp = SimPointConfig { interval: 2048, max_phases, ..SimPointConfig::default() };
            let selection = Arc::new(SimPointSelection::build(&s.stream, sp));
            assert_eq!(selection.clusters(), max_phases, "phases at max_phases {max_phases}");
            streams.push(counted(|| {
                let input =
                    SimInput::SampledMissStream { stream: &s.stream, selection: &selection };
                run_cells(input, &cfg, &Strategy::ALL)
            }));
            let sample = PhaseSample::condense(&s.stream, selection);
            samples.push(counted(|| run_cells(SimInput::Sample(&sample), &cfg, &Strategy::ALL)));
        }
    }
    for (name, counts) in [("sampled miss stream", streams), ("phase sample", samples)] {
        assert!(counts[0].0 > 0, "{name}: nothing counted");
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{name}: (allocations, bytes) at (N, 4 phases), (N, 8), (2N, 4), (2N, 8): {counts:?}"
        );
    }
}

#[test]
fn a_filter_pass_that_generates_holds_no_more_than_a_walk_of_a_built_trace() {
    let (cfg, [_, s]) = (cfg(), sizes());
    // The trace is built before the window opens: only the walk's own
    // buffers and the stream it records count against it.
    let walk =
        peak_bytes(|| MissStream::build(&mut s.packed.replay(), cfg.l1, cfg.l2, cfg.threads));
    let generated = peak_bytes(|| TraceCache::new().get_filtered(s.params, &cfg));
    assert!(
        generated <= walk,
        "a store-less filter pass peaked at {generated} bytes, the walk of a built trace at {walk} \
         (the trace is {} bytes): it must not hold one",
        s.packed.packed_bytes()
    );
}

#[test]
fn a_filter_pass_with_a_store_holds_no_trace() {
    /// What persisting may add: the blob buffer, a path and some slack.
    const BOUND: u64 = 128 << 10;
    let cfg = SystemConfig::default();
    let params: KernelParams = CgParams::default().into();
    let dir = std::env::temp_dir().join(format!("abft-alloc-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ArtifactStore::open(&dir).expect("open store"));
    let bare = peak_bytes(|| TraceCache::new().get_filtered(params, &cfg));
    let cache = TraceCache::with_store(Arc::clone(&store));
    let stored = peak_bytes(|| cache.get_filtered(params, &cfg));
    let trace = std::fs::metadata(store.trace_path(params)).map(|m| m.len());
    let m = store.metrics();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((m.writes, m.write_failures), (2, 0), "the pass persisted its trace and stream");
    assert!(trace.expect("the .trace blob") > 4 * BOUND, "a trace this small tests no bound");
    assert!(
        stored <= bare + BOUND,
        "a store-attached filter pass peaked at {stored} bytes, a store-less one at {bare}: \
         it may add its blob buffer, not a packed trace"
    );
}

#[test]
fn a_blob_is_written_through_a_fixed_buffer() {
    /// What writing a blob may hold at once: its buffer and some slack.
    const BOUND: u64 = 96 << 10;
    // Twenty iterations: the 2N stream's blob is under 2 * BOUND, and so is
    // eight iterations' (107 KB) since a record codes its region and line in
    // header bits.
    let (cfg, params) = (cfg(), cg(20));
    let stream = TraceCache::new().get_filtered(params, &cfg);
    let dir = std::env::temp_dir().join(format!("abft-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("open store");
    let key = FilterKey::new(params, &cfg);
    let peak = peak_bytes(|| store.save_miss(&key, &stream).expect("save"));
    let blob = std::fs::metadata(store.miss_path(&key)).expect("the blob").len();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(blob > 2 * BOUND, "a {blob}-byte blob does not test the bound");
    assert!(peak < BOUND, "writing a {blob}-byte blob held {peak} bytes at once");
}
