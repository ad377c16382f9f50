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

use abft_coop::abft_dgms::run_dgms;
use abft_coop::abft_memsim::config::CacheConfig;
use abft_coop::abft_memsim::PhaseSample;
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
}

/// Tally one request of `bytes`. A const thread-local holding a `Cell`
/// needs no allocation and no destructor, so it is safe to touch from
/// inside the allocator; `try_with` skips a thread already torn down.
fn tally(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

/// Default node, L2 shrunk to 64 KiB so the CG grid misses it.
fn cfg() -> SystemConfig {
    let base = SystemConfig::default();
    SystemConfig { l2: CacheConfig { capacity: 64 * 1024, ..base.l2 }, ..base }
}

/// FT-CG at `iterations`: 2 is the N-event stream, 4 the 2N one.
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
