//! Test-only: the two-word miss record the byte records replaced.
//!
//! A [`MissStream`] codes each record in a header byte and a few fields
//! against the last record of its region and the region predicted to
//! follow, so its decoder carries tables of contexts and successors from
//! record to record and a [`SliceCursor`] rebuilds them from a reset point
//! across a resume. What pins that codec is kept
//! here, as `walk_reference.rs` keeps the cache walk: the two-word record
//! exactly as it stood — word 0 the [`crate::packed`] layout with its run
//! bits split into a 2-bit kind and a 6-bit run, word 1 a 33-bit zigzag
//! write-back delta from the trigger line over a 31-bit thread-cycle gap —
//! with its run-coalescing encoder, and a decoder that expands every event
//! and divides its track. Each record stands alone, so nothing here shares
//! a line with what it checks.

use crate::miss_stream::{
    walk, MissEvent, MissEventKind, MissStream, Record, SliceCursor, KIND_DEMAND, KIND_DEMAND_WB,
    KIND_WRITEBACK, MAX_MISS_DELTA, MAX_MISS_RUN,
};
use crate::packed::{pack, unpack};
use crate::trace::{Access, RegionMap};

const KIND_SHIFT: u32 = 29;
const RUN_SHIFT: u32 = 23;
const WB_SHIFT: u32 = 31;

/// The two-word encoder as it stood.
struct TwoWordEncoder {
    bases: Vec<u64>,
    words: Vec<u64>,
    run: u64,
    w0: u64,
    head: Access,
    wb_line: u64,
    delta: u64,
    last_track: u64,
}

impl TwoWordEncoder {
    fn new(regions: &RegionMap) -> Self {
        TwoWordEncoder {
            bases: regions.regions().iter().map(|r| r.base).collect(),
            words: Vec::new(),
            run: 0,
            w0: 0,
            head: Access { addr: 0, region: 0, write: false, work: 0 },
            wb_line: 0,
            delta: 0,
            last_track: 0,
        }
    }

    fn push(&mut self, ev: &MissEvent, track: u64) {
        let a = &ev.trigger;
        let (kind, wb_line) = match ev.kind {
            MissEventKind::Demand { writeback: None } => (KIND_DEMAND, 0),
            MissEventKind::Demand { writeback: Some(wb) } => (KIND_DEMAND_WB, wb >> 6),
            MissEventKind::Writeback(wb) => (KIND_WRITEBACK, wb >> 6),
        };
        let delta = track - self.last_track;
        assert!(delta <= MAX_MISS_DELTA);
        self.last_track = track;
        let (head, run) = (&self.head, self.run);
        let extends = self.run != 0
            && self.run < MAX_MISS_RUN as u64
            && (self.w0 >> KIND_SHIFT) & 0b11 == kind
            && head.region == a.region
            && head.write == a.write
            && head.work == a.work
            && a.addr == head.addr + 64 * run
            && self.delta == delta
            && (kind == KIND_DEMAND || wb_line == self.wb_line + run);
        if extends {
            self.run += 1;
            return;
        }
        self.flush();
        self.w0 = pack(a, self.bases[a.region as usize]) | (kind << KIND_SHIFT);
        self.head = *a;
        self.wb_line = wb_line;
        self.delta = delta;
        self.run = 1;
    }

    fn flush(&mut self) {
        let run = std::mem::take(&mut self.run);
        if run == 0 {
            return;
        }
        let wb_delta = if (self.w0 >> KIND_SHIFT) & 0b11 == KIND_DEMAND {
            0i64
        } else {
            self.wb_line as i64 - (self.head.addr >> 6) as i64
        };
        let zz = ((wb_delta << 1) ^ (wb_delta >> 63)) as u64;
        assert!(zz < 1 << (64 - WB_SHIFT));
        self.words.push(self.w0 | ((run - 1) << RUN_SHIFT));
        self.words.push((zz << WB_SHIFT) | self.delta);
    }

    fn finish(mut self) -> Vec<u64> {
        self.flush();
        self.words
    }
}

/// Every event of two-word records, decoded one by one: the trigger
/// unpacked and stepped a line an event, the write-back line from the
/// zigzag delta, the core cycles by dividing the summed gaps.
fn two_word_events(words: &[u64], regions: &RegionMap, threads: u64) -> Vec<MissEvent> {
    let bases: Vec<u64> = regions.regions().iter().map(|r| r.base).collect();
    let mut events = Vec::new();
    let mut track = 0u64;
    for rec in words.chunks_exact(2) {
        let (w0, w1) = (rec[0], rec[1]);
        let run = ((w0 >> RUN_SHIFT) & 63) + 1;
        let head = unpack(w0, &bases);
        let zz = w1 >> WB_SHIFT;
        let wb_line0 = (head.addr >> 6) as i64 + ((zz >> 1) as i64 ^ -((zz & 1) as i64));
        for k in 0..run {
            track += w1 & MAX_MISS_DELTA;
            let wb = (wb_line0 + k as i64) as u64 * 64;
            let kind = match (w0 >> KIND_SHIFT) & 0b11 {
                KIND_DEMAND => MissEventKind::Demand { writeback: None },
                KIND_DEMAND_WB => MissEventKind::Demand { writeback: Some(wb) },
                _ => MissEventKind::Writeback(wb),
            };
            let trigger = Access { addr: head.addr + 64 * k, ..head };
            events.push(MissEvent { trigger, core_cycles: track / threads, kind });
        }
    }
    events
}

/// The two-word records a stream's events code to: what a version-4
/// `.miss` blob held for it. Its records keep their runs, so each event's
/// track is the sum of its record's gaps.
fn two_word_records(ms: &MissStream) -> Vec<u64> {
    let mut enc = TwoWordEncoder::new(ms.regions());
    let gaps = ms.records().flat_map(|step| {
        let rec = step.unwrap().rec;
        std::iter::repeat_n(rec.gap, rec.run as usize)
    });
    let mut track = 0;
    for (ev, gap) in ms.iter().zip(gaps) {
        track += gap;
        enc.push(&ev, track);
    }
    enc.finish()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// On few-line streams at one, three and four threads, with a long
    /// sweep added so that runs reach the 64-event cap: the byte records
    /// decode to the events the two-word records decode to, and a resume
    /// at every event — every cursor a slice could start at — to the tail
    /// of that decode.
    #[test]
    fn byte_records_decode_as_the_two_word_records(seed: u64) {
        use proptest::prelude::*;
        let threads = [1, 3, 4][(seed % 3) as usize];
        let (mut t, l1, l2) = crate::miss_stream::few_line_trace(seed, 3, 600);
        let base = t.regions.regions()[1].base;
        for line in 0..150 {
            t.push(base + line * 64, 1, seed.is_multiple_of(2), 1);
        }
        let ms = MissStream::build(&mut t.replay(), l1, l2, threads);
        let mut enc = TwoWordEncoder::new(&t.regions);
        walk(&mut t.replay(), l1, l2, threads, |ev, track| enc.push(ev, track));
        let words = enc.finish();
        let want = two_word_events(&words, &t.regions, threads as u64);
        prop_assert_eq!(want.len() as u64, ms.events());
        prop_assert!(ms.iter().eq(want.iter().copied()), "full decode");
        prop_assert!(two_word_records(&ms) == words, "records and runs");

        // What the records must have met: each kind, a run at the cap, a
        // run of 16 or more short of it, a record that keeps the attributes of
        // its region's last record but not its gap, and one the other way,
        // and a record back in a region it had left.
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
