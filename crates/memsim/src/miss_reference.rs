//! Test-only: the byte-coded miss records held to the walk they record.
//!
//! A [`MissStream`] codes each record in a header byte and a few fields
//! against the last record of its region and the region predicted to
//! follow, so its decoder carries tables of contexts and successors from
//! record to record and a [`SliceCursor`] rebuilds them from a reset point
//! across a resume. The two-word records they replaced stood alone, one
//! trigger and one write-back delta a record, so their decode was the walk
//! event for event. That is the bar the byte records are held to here, with
//! the reference machine's stamp-LRU walk (`tests/reference/mod.rs`) as the
//! events the two-word records decoded to.

use crate::miss_stream::{few_line_trace, MissStream, Record, SliceCursor, MAX_MISS_RUN};
use crate::reference::walk;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On few-line streams at one, three and four threads, with a long
    /// sweep added so that runs reach the 64-event cap: the byte records
    /// decode to the reference walk's events, and a resume at every event
    /// (every cursor a slice could start at) to the tail of that decode.
    #[test]
    fn byte_records_decode_as_the_two_word_records(seed: u64) {
        let threads = [1, 3, 4][(seed % 3) as usize];
        let (mut t, l1, l2) = few_line_trace(seed, 3, 600);
        let base = t.regions.regions()[1].base;
        for line in 0..150 {
            t.push(base + line * 64, 1, seed.is_multiple_of(2), 1);
        }
        let ms = MissStream::build(&mut t.replay(), l1, l2, threads);
        let want = walk(&t, l1, l2, threads as u64).events;
        prop_assert_eq!(want.len() as u64, ms.events());
        prop_assert!(ms.iter().eq(want.iter().copied()), "full decode");

        // What the records must have met: each kind, a run at the cap, a
        // run of 16 or more short of it, a record that keeps the attributes
        // of its region's last record but not its gap, and one the other
        // way, and a record back in a region it had left.
        let mut seen = [false; 8];
        let mut last: Vec<Option<Record>> = vec![None; t.regions.regions().len()];
        let (mut cycles, mut k, mut region) = (0u64, 0usize, 0);
        for step in ms.records() {
            let step = step.unwrap();
            let (rec, before) = (step.rec, last[step.rec.region as usize]);
            seen[rec.kind as usize] = true;
            seen[3] |= rec.run == MAX_MISS_RUN as u64;
            seen[4] |= (16..MAX_MISS_RUN as u64).contains(&rec.run);
            seen[5] |= before.is_some_and(|b| rec.attrs == b.attrs && rec.gap != b.gap);
            seen[6] |= before.is_some_and(|b| rec.attrs != b.attrs && rec.gap == b.gap);
            seen[7] |= before.is_some() && rec.region != region;
            (last[rec.region as usize], region) = (Some(rec), rec.region);
            for run_pos in 0..rec.run as usize {
                let cursor = SliceCursor::at(&step, run_pos, cycles);
                prop_assert!(ms.events_from(cursor).eq(want[k..].iter().copied()), "event {}", k);
                cycles += rec.gap;
                k += 1;
            }
        }
        prop_assert!(seen == [true; 8], "{} events at {threads} threads too tame: {seen:?}", ms.events());
    }
}
