//! Test-only: the naive per-access reference for the L1 → L2 walk.
//!
//! [`crate::miss_stream::walk`] is the only cache-hierarchy walk in the
//! crate — [`MissStream::build`] records its events and the full path of
//! [`crate::system::Machine::simulate`] services them — so the
//! `filtered_equivalence` suite compares that walk with itself. What pins
//! it is kept here, as `dram.rs` keeps `reference_access_kind`: the
//! stamp-LRU cache ([`StampLruCache`]: three parallel arrays, a clock,
//! "first invalid way, else smallest stamp") and the carry-`bump` cycle
//! track ([`reference_walk`]: one division and one remainder per cycle
//! increment) exactly as they stood before the recency-ordered set and
//! the running thread-cycle sum replaced them. Neither shares a line with
//! what it checks.

use crate::cache::{Cache, CacheOutcome};
use crate::config::CacheConfig;
use crate::miss_stream::{walk, MissEvent, MissEventKind, MissStream, RegionTally};
use crate::packed::{run_len, PackedReplay, PackedTrace, MAX_PACKED_RUN};
use crate::stream::{AccessSource, RunChunk};
use crate::trace::{Access, RegionMap, Trace};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The cache model as it was: a way is found by scanning the tags, LRU
/// order lives in per-way stamps drawn from a per-cache clock.
struct StampLruCache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl StampLruCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        StampLruCache {
            sets,
            ways: cfg.ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * cfg.ways],
            stamps: vec![0; sets * cfg.ways],
            dirty: vec![false; sets * cfg.ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> CacheOutcome {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        self.clock += 1;

        let mut invalid: Option<usize> = None;
        let mut lru = 0;
        let mut best = u64::MAX;
        for w in 0..self.ways {
            let tag = self.tags[base + w];
            if tag == line {
                self.hits += 1;
                self.stamps[base + w] = self.clock;
                if write {
                    self.dirty[base + w] = true;
                }
                return CacheOutcome::Hit;
            }
            if tag == u64::MAX {
                if invalid.is_none() {
                    invalid = Some(w);
                }
            } else if self.stamps[base + w] < best {
                best = self.stamps[base + w];
                lru = w;
            }
        }
        self.misses += 1;
        let slot = base + invalid.unwrap_or(lru);
        let writeback = if self.tags[slot] != u64::MAX && self.dirty[slot] {
            Some(self.tags[slot] << self.line_shift)
        } else {
            None
        };
        self.tags[slot] = line;
        self.stamps[slot] = self.clock;
        self.dirty[slot] = write;
        CacheOutcome::Miss { writeback }
    }
}

/// Everything the walk produces, in comparable form.
#[derive(Debug, PartialEq)]
struct Walked {
    events: Vec<MissEvent>,
    core_cycles: u64,
    l1: (u64, u64),
    l2: (u64, u64),
    tallies: Vec<RegionTally>,
}

/// The walk as `MissStream::build` and `Machine::drive_source` each
/// spelled it out: per-access counters beside the caches, and a cycle
/// counter advanced through `bump`, which divides the pending thread
/// cycles by the thread count and carries the remainder.
fn reference_walk(t: &Trace, l1_cfg: CacheConfig, l2_cfg: CacheConfig, threads: usize) -> Walked {
    let mut l1 = StampLruCache::new(l1_cfg);
    let mut l2 = StampLruCache::new(l2_cfg);
    let mut tallies = vec![RegionTally::default(); t.regions.regions().len()];
    let mut events = Vec::new();

    let threads_u = threads.max(1) as u64;
    let mut cycles: u64 = 0;
    let mut carry: u64 = 0;
    let bump = |cycles: &mut u64, carry: &mut u64, thread_cycles: u64| {
        let total = thread_cycles + *carry;
        *cycles += total / threads_u;
        *carry = total % threads_u;
    };
    let (mut l1_hits, mut l1_misses, mut l2_hits, mut l2_misses) = (0u64, 0u64, 0u64, 0u64);

    for a in &t.accesses {
        bump(&mut cycles, &mut carry, a.work as u64);
        let rt = &mut tallies[a.region as usize];
        rt.refs += 1;
        match l1.access(a.addr, a.write) {
            CacheOutcome::Hit => {
                bump(&mut cycles, &mut carry, l1_cfg.latency_cycles);
                l1_hits += 1;
                continue;
            }
            CacheOutcome::Miss { writeback } => {
                l1_misses += 1;
                rt.l1_misses += 1;
                if let Some(wb) = writeback {
                    if let CacheOutcome::Miss { writeback: Some(wb2) } = l2.access(wb, true) {
                        let kind = MissEventKind::Writeback(wb2);
                        events.push(MissEvent { trigger: *a, core_cycles: cycles, kind });
                    }
                }
            }
        }
        match l2.access(a.addr, a.write) {
            CacheOutcome::Hit => {
                bump(&mut cycles, &mut carry, l2_cfg.latency_cycles);
                l2_hits += 1;
            }
            CacheOutcome::Miss { writeback } => {
                l2_misses += 1;
                tallies[a.region as usize].llc_misses += 1;
                let kind = MissEventKind::Demand { writeback };
                events.push(MissEvent { trigger: *a, core_cycles: cycles, kind });
                bump(&mut cycles, &mut carry, l2_cfg.latency_cycles);
            }
        }
    }
    assert_eq!((l1_hits, l1_misses), (l1.hits, l1.misses));
    Walked {
        events,
        core_cycles: cycles,
        l1: (l1_hits, l1_misses),
        l2: (l2_hits, l2_misses),
        tallies,
    }
}

fn cache(capacity: usize, ways: usize, latency_cycles: u64) -> CacheConfig {
    CacheConfig { capacity, ways, line_bytes: 64, latency_cycles }
}

/// (L1, L2) pairs: direct-mapped, 2-way, 4-way × 64 sets, 16-way and a
/// single fully-associative set, each level small enough that a short
/// trace fills, thrashes and writes back through it.
fn geometries() -> [(CacheConfig, CacheConfig); 5] {
    [
        (cache(8 * 64, 1, 1), cache(32 * 64, 1, 9)),
        (cache(4 * 2 * 64, 2, 1), cache(16 * 2 * 64, 2, 7)),
        (cache(4 * 4 * 64, 4, 2), cache(64 * 4 * 64, 4, 20)),
        (cache(2 * 4 * 64, 4, 1), cache(4 * 16 * 64, 16, 13)),
        (cache(6 * 64, 6, 3), cache(24 * 64, 24, 11)),
    ]
}

/// Line sweeps (forward runs of a random length), scattered single
/// accesses and hot phases over three regions, reads and writes, work
/// 0..=5. A hot phase rewrites one line between scattered accesses, so
/// the line stays in L1 while L2 ages it out — the only way an L1 victim
/// later misses L2 and a stand-alone write-back reaches memory.
fn sweep_and_scatter(rng: &mut impl Rng, accesses: usize) -> Trace {
    let mut rm = RegionMap::new();
    let regions: Vec<_> = (0..3).map(|i| rm.alloc(&format!("r{i}"), 64 * 512, i == 0)).collect();
    let bases: Vec<u64> = regions.iter().map(|&r| rm.get(r).base).collect();
    let mut t = Trace::new(rm);
    // Sub-line offsets throughout: the caches see byte addresses.
    let addr =
        |rng: &mut _, r: usize, line: u64| bases[r] + line * 64 + Rng::random_range(rng, 0..64);
    while t.accesses.len() < accesses {
        let r = rng.random_range(0..regions.len());
        let (write, work) = (rng.random_bool(0.4), rng.random_range(0..6));
        let first = rng.random_range(0..480u64);
        match rng.random_range(0..5) {
            0 => {
                for _ in 0..rng.random_range(40..120) {
                    t.push(addr(rng, r, first), regions[r], true, work);
                    for _ in 0..2 {
                        let (r2, line) =
                            (rng.random_range(0..regions.len()), rng.random_range(0..480));
                        t.push(addr(rng, r2, line), regions[r2], rng.random_bool(0.4), 1);
                    }
                }
            }
            1 | 2 => {
                for line in first..first + rng.random_range(2..32) {
                    t.push(addr(rng, r, line), regions[r], write, work);
                }
            }
            _ => t.push(addr(rng, r, first), regions[r], write, work),
        }
    }
    t
}

/// Line-aligned sweeps of 2–600 lines over three regions, reads and
/// writes, work 0..=5, now and then the head of the last sweep again (an
/// L1 hit or two). Aligned, so the packed form holds them as runs of
/// every length up to [`MAX_PACKED_RUN`] and, split, past it — what the
/// sub-line offsets of [`sweep_and_scatter`] never let it do.
fn aligned_sweeps(rng: &mut impl Rng, accesses: usize) -> Trace {
    let mut rm = RegionMap::new();
    let regions: Vec<_> = (0..3).map(|i| rm.alloc(&format!("r{i}"), 64 * 1024, i == 0)).collect();
    let bases: Vec<u64> = regions.iter().map(|&r| rm.get(r).base).collect();
    let mut t = Trace::new(rm);
    while t.accesses.len() < accesses {
        let r = rng.random_range(0..regions.len());
        let (write, work) = (rng.random_bool(0.4), rng.random_range(0..6));
        let first = rng.random_range(0..400u64);
        let lines = match rng.random_range(0..4) {
            0 => rng.random_range(2..12),
            1 => rng.random_range(250..264),
            _ => rng.random_range(2..=600),
        };
        for line in first..first + lines {
            t.push(bases[r] + line * 64, regions[r], write, work);
        }
        if rng.random_bool(0.3) {
            for line in first..first + rng.random_range(1..4) {
                t.push(bases[r] + line * 64, regions[r], !write, work);
            }
        }
    }
    t
}

/// A source that does not know its totals, so the walk has to count — and
/// that has only the per-access pull, so the walk gets its runs from the
/// provided [`AccessSource::fill_runs`], one access each.
struct Unhinted<S>(S);

impl<S: AccessSource> AccessSource for Unhinted<S> {
    fn regions(&self) -> &RegionMap {
        self.0.regions()
    }
    fn fill(&mut self, buf: &mut Vec<Access>, max: usize) -> usize {
        self.0.fill(buf, max)
    }
    fn reset(&mut self) {
        self.0.reset()
    }
}

/// A packed replay that keeps its own run-level pull and forgets its
/// totals: the walk has to count whole runs.
struct UnhintedRuns(PackedReplay);

impl AccessSource for UnhintedRuns {
    fn regions(&self) -> &RegionMap {
        self.0.regions()
    }
    fn fill(&mut self, buf: &mut Vec<Access>, max: usize) -> usize {
        self.0.fill(buf, max)
    }
    fn fill_runs(&mut self, chunk: &mut RunChunk, max: usize) -> usize {
        self.0.fill_runs(chunk, max)
    }
    fn reset(&mut self) {
        self.0.reset()
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    #[test]
    fn walker_matches_the_stamp_lru_carry_bump_reference(seed: u64) {
        use proptest::prelude::*;
        let rng = &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let scattered = sweep_and_scatter(rng, 3000);
        let swept = aligned_sweeps(rng, 3000);
        // The same accesses as line sweeps: fewer words than accesses, and
        // sweeps long enough to fill a word and spill into the next.
        let packed = Arc::new(PackedTrace::from_source(&mut swept.replay()));
        prop_assert_eq!(packed.len(), swept.accesses.len() as u64);
        prop_assert!(packed.word_count() < packed.len() / 8, "{} words", packed.word_count());
        let runs: Vec<usize> = packed.words().map(run_len).collect();
        prop_assert!(runs.contains(&MAX_PACKED_RUN) && runs.iter().any(|&r| (2..16).contains(&r)));

        let mut seen = [false; 3];
        for (l1, l2) in geometries() {
            for threads in [1usize, 2, 3, 4, 7] {
                for (t, packed) in [(&scattered, None), (&swept, Some(&packed))] {
                    let want = reference_walk(t, l1, l2, threads);
                    for e in &want.events {
                        match e.kind {
                            MissEventKind::Demand { writeback: None } => seen[0] = true,
                            MissEventKind::Demand { writeback: Some(_) } => seen[1] = true,
                            MissEventKind::Writeback(_) => seen[2] = true,
                        }
                    }

                    // Access by access (the provided run-level pull), and
                    // sweep by sweep (the packed replay's own).
                    type Source<'a> = Box<dyn AccessSource + 'a>;
                    let mut sources: Vec<(&str, Source, Source)> =
                        vec![("per access", Box::new(Unhinted(t.replay())), Box::new(t.replay()))];
                    if let Some(packed) = packed {
                        let bare = UnhintedRuns(packed.replay());
                        sources.push(("per run", Box::new(bare), Box::new(packed.replay())));
                    }
                    for (form, mut bare, mut hinted) in sources {
                        let mut events = Vec::new();
                        let mut track_holds = true;
                        let w = walk(&mut *bare, l1, l2, threads, |ev, track| {
                            track_holds &= track / threads as u64 == ev.core_cycles;
                            events.push(*ev)
                        });
                        prop_assert!(track_holds, "a track is not its event's core cycles {form}");
                        let got = Walked {
                            events,
                            core_cycles: w.core_cycles,
                            l1: (w.l1_hits, w.l1_misses),
                            l2: (w.l2_hits, w.l2_misses),
                            tallies: w.tallies,
                        };
                        prop_assert!(got == want, "walk {form} diverges under {l1:?}/{l2:?}/{threads} threads");
                        prop_assert_eq!(w.accesses, t.accesses.len() as u64);
                        prop_assert_eq!(w.instructions, t.instructions);

                        // And through the encoder: what a replay decodes.
                        let ms = MissStream::build(&mut *hinted, l1, l2, threads);
                        let decoded: Vec<MissEvent> = ms.iter().collect();
                        prop_assert!(decoded == want.events, "decoded events diverge {form} under {l1:?}/{l2:?}/{threads}");
                        prop_assert_eq!(ms.core_cycles(), want.core_cycles);
                        let totals = ms.totals();
                        prop_assert_eq!((totals.l1_hits, totals.l1_misses), want.l1);
                        prop_assert_eq!((totals.l2_hits, totals.l2_misses), want.l2);
                        prop_assert_eq!(&totals.tallies, &want.tallies);
                    }
                }
            }
        }
        prop_assert!(seen == [true; 3], "trace too tame: event kinds seen {seen:?}");
    }

    #[test]
    fn recency_ordered_sets_match_stamp_lru_outcome_for_outcome(seed: u64) {
        use proptest::prelude::*;
        let rng = &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for (l1, l2) in geometries() {
            for cfg in [l1, l2] {
                let (mut fast, mut slow) = (Cache::new(cfg), StampLruCache::new(cfg));
                // Twice the capacity in lines: hits, conflict misses and
                // evictions of clean and dirty lines all occur.
                let lines = 2 * (cfg.capacity / 64) as u64;
                for i in 0..4000 {
                    let addr = rng.random_range(0..lines) * 64 + rng.random_range(0..64);
                    let write = rng.random_bool(0.3);
                    let (got, want) = (fast.access(addr, write), slow.access(addr, write));
                    prop_assert!(got == want, "access {i} ({addr:#x}, write {write}) under {cfg:?}: {got:?} vs {want:?}");
                }
                prop_assert_eq!((fast.hits, fast.misses), (slow.hits, slow.misses));
            }
        }
    }
}
