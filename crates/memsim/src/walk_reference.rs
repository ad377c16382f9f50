//! Test-only: the L1 → L2 walk and the cache it is built on, held to the
//! reference machine's stamp-LRU caches and carry-divided thread clock
//! (`tests/reference/mod.rs`).
//!
//! [`crate::miss_stream::walk`] is the only cache-hierarchy walk in the
//! crate: [`MissStream::build`] records its events and the source path of
//! [`crate::system::Machine::simulate`] services them as they fall out.
//! Here it is pulled through every source form the model meets — a trace
//! and a packed replay, each with and without the totals a hinted source
//! carries, access by access and run by run — and [`Cache::access`] is
//! held outcome for outcome to a cache that scans its tags and ages its
//! ways by stamp.

use crate::cache::{Cache, CacheOutcome};
use crate::miss_stream::{MissEventKind, MissStream};
use crate::packed::{run_len, PackedTrace, MAX_PACKED_RUN};
use crate::reference::{caches, hostile_trace, walk, StampCache, Unhinted};
use crate::stream::AccessSource;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Over the five cache geometries at one to seven threads, on a hostile
    /// trace with a sweep long enough to fill a packed word and spill into
    /// the next: the events a miss stream decodes, its core cycles, its
    /// hit and miss counts and its region tallies are the reference walk's.
    #[test]
    fn walker_matches_the_stamp_lru_carry_bump_reference(seed: u64) {
        let rng = &mut ChaCha8Rng::seed_from_u64(seed);
        let mut trace = hostile_trace(rng);
        let (base, write) = (trace.regions.regions()[2].base, rng.random_bool(0.5));
        (0..300).for_each(|line| trace.push(base + line * 64, 2, write, 1));
        let packed = Arc::new(PackedTrace::from_source(&mut trace.replay()));
        let runs: Vec<usize> = packed.words().map(run_len).collect();
        prop_assert!(runs.contains(&MAX_PACKED_RUN) && runs.iter().any(|&r| (2..16).contains(&r)));

        let mut seen = [false; 3];
        for which in 0..5 {
            let (l1, l2) = caches(which);
            for threads in [1usize, 2, 3, 4, 7] {
                let want = walk(&trace, l1, l2, threads as u64);
                for ev in &want.events {
                    seen[match ev.kind {
                        MissEventKind::Writeback(_) => 0,
                        MissEventKind::Demand { writeback } => 1 + writeback.is_some() as usize,
                    }] = true;
                }
                let sources: [(&str, Box<dyn AccessSource>); 4] = [
                    ("per access", Box::new(trace.replay())),
                    ("per access, unhinted", Box::new(Unhinted(trace.replay()))),
                    ("per run", Box::new(packed.replay())),
                    ("per run, unhinted", Box::new(Unhinted(packed.replay()))),
                ];
                for (form, mut src) in sources {
                    let ms = MissStream::build(&mut *src, l1, l2, threads);
                    let at = format!("{form} under {l1:?} / {l2:?} at {threads} threads");
                    prop_assert!(ms.iter().eq(want.events.iter().copied()), "events {}", at);
                    let t = ms.totals();
                    let tallies: Vec<[u64; 3]> =
                        t.tallies.iter().map(|r| [r.refs, r.l1_misses, r.llc_misses]).collect();
                    let got = (t.accesses, t.instructions, t.core_cycles, [t.l1_hits, t.l1_misses]);
                    let got = (got, [t.l2_hits, t.l2_misses], tallies);
                    let accesses = trace.accesses.len() as u64;
                    let want = ((accesses, want.instructions, want.core_cycles, want.l1), want.l2, want.tallies.clone());
                    prop_assert!(got == want, "totals {at}:\n{got:?}\n{want:?}");
                }
            }
        }
        prop_assert!(seen == [true; 3], "trace too tame: event kinds seen {:?}", seen);
    }

    /// Every geometry of both levels, 4,000 accesses over twice its
    /// capacity in lines (sub-line offsets, reads and writes): each hit,
    /// miss and dirty victim is the stamp-LRU cache's, and so are the
    /// counts.
    #[test]
    fn recency_ordered_sets_match_stamp_lru_outcome_for_outcome(seed: u64) {
        let rng = &mut ChaCha8Rng::seed_from_u64(seed);
        for which in 0..5 {
            let (l1, l2) = caches(which);
            for cfg in [l1, l2] {
                let (mut fast, mut slow) = (Cache::new(cfg), StampCache::new(cfg));
                let lines = 2 * (cfg.capacity / 64) as u64;
                let (mut misses, mut victims) = (0u64, 0u64);
                for i in 0..4000 {
                    let addr = rng.random_range(0..lines) * 64 + rng.random_range(0..64);
                    let write = rng.random_bool(0.3);
                    let got = match fast.access(addr, write) {
                        CacheOutcome::Hit => None,
                        CacheOutcome::Miss { writeback } => Some(writeback),
                    };
                    let want = slow.access(addr, write);
                    prop_assert!(got == want, "access {i} ({addr:#x}, write {write}) under {cfg:?}: {got:?} vs {want:?}");
                    misses += want.is_some() as u64;
                    victims += want.flatten().is_some() as u64;
                }
                prop_assert_eq!((fast.hits, fast.misses), (4000 - misses, misses));
                prop_assert!(victims > 0 && misses < 4000, "{:?} met no dirty victim or no hit", cfg);
            }
        }
    }
}
