//! SimPoint-style phase sampling over cache-filtered miss streams.
//!
//! Filtered replay (DESIGN.md §3.13) already cuts a grid cell from
//! O(accesses) to O(LLC misses), but the replay cost still scales
//! linearly with problem size — paper-scale matrices stay out of reach.
//! This module applies the SimPoint methodology (record → cluster →
//! simulate) to the miss stream itself:
//!
//! 1. **Slice**: the event stream is cut into fixed-size intervals of
//!    [`SimPointConfig::interval`] events (the last slice may be short).
//! 2. **Fingerprint**: each slice gets a per-region access/miss-histogram
//!    vector — our analog of SimPoint's basic-block vectors. The miss
//!    stream has no basic blocks, but the quantities that drive DRAM
//!    timing and energy are exactly what it records: per-region demand
//!    fills, per-region write-backs, the write mix, the pure core-cycle
//!    span (arrival density), a row-buffer-locality proxy (coarse row
//!    granule switches over the demand and write-back address tracks —
//!    the activate-energy driver), and the core-run density (burstiness
//!    — the queueing driver; a core run is a line sweep cut where its
//!    core-cycle gap changes, DESIGN.md §3.15). Every dimension is
//!    normalized by the slice's event count, so fingerprints compare
//!    *rates*, not totals.
//! 3. **Cluster**: seeded deterministic k-means (k-means++ init under a
//!    splitmix64 stream, Lloyd iterations with index-ordered
//!    tie-breaking) groups slices into at most
//!    [`SimPointConfig::max_phases`] phases.
//! 4. **Select**: each cluster's members are stratified in slice order
//!    into up to [`SimPointConfig::strata`] equal-size segments, and
//!    each segment is represented by its member nearest the segment
//!    mean; a [`SimPointPhase`] records the representative's event
//!    range, the segment's event weight, and a saved
//!    [`SliceCursor`] so replay can seek into the run-coalesced
//!    context-coded records from the reset point before it.
//!
//! [`crate::system::Machine::simulate`] replays only the representative
//! slices through the MC + DRAM and scales each phase's accumulated
//! [`DramStats`](crate::dram::DramStats) delta and stall cycles by
//! `cluster events / representative events`, then folds the scaled
//! counters through the same `assemble_stats` the exact paths use. When
//! `max_phases >= slices` every slice represents itself with scale 1 and
//! the sampled replay degenerates to the exact filtered replay.
//!
//! 5. **Condense**: replay reads nothing of the stream but its totals and
//!    the representative slices, so [`PhaseSample::condense`] copies
//!    exactly those out of it. The sample is what a campaign cell
//!    replays and what the artifact store keeps beside the selection: a
//!    later process loads the few records it needs, never the stream.
//!
//! Everything here is deterministic: same stream + same
//! [`SimPointConfig`] ⇒ identical fingerprints, clusters, phases and
//! sample — which is also what lets the artifact store persist them
//! content-addressed by `(FilterKey, SimPointConfig)`.

use crate::miss_stream::{
    put_record, Contexts, CoreClock, MissEvents, MissRecords, MissStream, Records, SliceCursor,
    StreamTotals, KIND_DEMAND, KIND_DEMAND_WB, KIND_WRITEBACK, MAX_MISS_RUN, MAX_RECORD_BYTES,
    RESET_RECORDS,
};
use crate::trace::Access;
use std::sync::Arc;

/// Parameters of the phase-sampling pass. All-integer (and therefore
/// `Eq + Ord + Hash`): the config participates in memo keys and in the
/// artifact store's content digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimPointConfig {
    /// Events per slice (the SimPoint interval size).
    pub interval: u64,
    /// Maximum clusters (SimPoint's `maxK`).
    pub max_phases: usize,
    /// Seed of the deterministic k-means RNG.
    pub seed: u64,
    /// Lloyd iteration cap (convergence usually lands far earlier).
    pub iterations: usize,
    /// Representatives replayed per cluster: each cluster's members are
    /// split (in slice order) into up to this many equal-size strata,
    /// each replaying its own representative. `1` is classic SimPoint;
    /// more average out within-cluster drift the fingerprint cannot see
    /// (e.g. controller queue depth under mixed-policy replay), at a
    /// replay cost of at most `strata × max_phases` slices.
    pub strata: usize,
}

impl Default for SimPointConfig {
    fn default() -> Self {
        SimPointConfig {
            interval: 32 * 1024,
            max_phases: 16,
            seed: 0x51af_c0de,
            iterations: 24,
            strata: 4,
        }
    }
}

/// One selected phase: a representative slice `[start, end)` of the
/// event stream standing in for `weight` of the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPointPhase {
    /// Fraction of all events this phase's cluster covers.
    pub weight: f64,
    /// First event index of the representative slice.
    pub start: u64,
    /// One past the last event index of the representative slice.
    pub end: u64,
    /// Replay multiplier: cluster events / representative events
    /// (handles the short final slice exactly).
    pub(crate) scale: f64,
    /// Saved decoder state at `start`.
    pub(crate) cursor: SliceCursor,
}

impl SimPointPhase {
    /// Events the representative slice replays.
    pub fn events(&self) -> u64 {
        self.end - self.start
    }

    /// The factor the replay scales this phase's accumulated DRAM
    /// statistics by.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The saved decoder state replay resumes from.
    pub fn cursor(&self) -> SliceCursor {
        self.cursor
    }
}

/// The result of slicing, fingerprinting and clustering one miss stream:
/// the weighted representative set sampled replay runs, plus the
/// per-slice fingerprints (kept because phase-level characterization is
/// what related work keys protection decisions on).
#[derive(Debug, Clone, PartialEq)]
pub struct SimPointSelection {
    config: SimPointConfig,
    /// Total events of the stream the selection was built for.
    events: u64,
    slices: u64,
    /// Fingerprint dimensionality (2 × regions + 4).
    dim: usize,
    /// Row-major `slices × dim`, event-count normalized.
    fingerprints: Vec<f64>,
    /// Cluster id per slice.
    assignments: Vec<u32>,
    /// Representative phases, ascending by `start`.
    phases: Vec<SimPointPhase>,
    /// Weighted mean normalized distance of slices to their cluster's
    /// representative — the a-priori heterogeneity error budget.
    est_error: f64,
}

impl SimPointSelection {
    /// Slice, fingerprint and cluster `ms` under `config`.
    pub fn build(ms: &MissStream, config: SimPointConfig) -> SimPointSelection {
        let interval = config.interval.max(1);
        let config = SimPointConfig { interval, ..config };
        let scan = FingerprintScan::run(ms, interval);
        let slices = scan.cursors.len() as u64;
        let sel = if slices == 0 {
            SimPointSelection {
                config,
                events: 0,
                slices: 0,
                dim: scan.dim,
                fingerprints: Vec::new(),
                assignments: Vec::new(),
                phases: Vec::new(),
                est_error: 0.0,
            }
        } else {
            Self::select(ms, config, scan)
        };
        debug_assert_eq!(sel.check(), Ok(()), "phase selection");
        sel
    }

    fn select(ms: &MissStream, config: SimPointConfig, scan: FingerprintScan) -> SimPointSelection {
        let total = ms.events();
        let slices = scan.cursors.len();
        let dim = scan.dim;
        let interval = config.interval;
        let slice_events = |s: usize| -> u64 { (total - s as u64 * interval).min(interval) };

        // Min-max normalize each dimension across slices so k-means
        // distances are not dominated by the large cycle-span dimension.
        let normalized = minmax_normalize(&scan.fingerprints, slices, dim);
        let k = config.max_phases.max(1).min(slices);
        let (assignments, _centroids) = if k == slices {
            // Every slice is its own phase: sampled replay degenerates
            // to (near-)exact full replay.
            ((0..slices as u32).collect::<Vec<u32>>(), Vec::new())
        } else {
            kmeans(&normalized, slices, dim, k, config.seed, config.iterations)
        };

        // Representatives: each cluster's members (already in slice
        // order) are split into up to `config.strata` equal-size
        // contiguous segments — stratifying the cluster over time — and
        // each segment is represented by its member nearest the segment
        // mean in normalized space (ties break to the lowest index).
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (s, &c) in assignments.iter().enumerate() {
            members[c as usize].push(s);
        }
        let strata = config.strata.max(1);
        let mut rep_of: Vec<usize> = vec![0; slices];
        let mut reps: Vec<(usize, u64)> = Vec::new(); // (rep slice, segment events)
        let mut mean = vec![0f64; dim];
        for m in members.iter().filter(|m| !m.is_empty()) {
            let parts = strata.min(m.len());
            for t in 0..parts {
                let seg = &m[m.len() * t / parts..m.len() * (t + 1) / parts];
                mean_into(&normalized, seg, dim, &mut mean);
                let rep = *seg
                    .iter()
                    .min_by(|&&a, &&b| {
                        let da = dist2(&normalized[a * dim..(a + 1) * dim], &mean);
                        let db = dist2(&normalized[b * dim..(b + 1) * dim], &mean);
                        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
                    })
                    .unwrap_or(&seg[0]);
                let seg_events: u64 = seg.iter().map(|&s| slice_events(s)).sum();
                for &s in seg {
                    rep_of[s] = rep;
                }
                reps.push((rep, seg_events));
            }
        }
        reps.sort_unstable();

        let mut phases = Vec::with_capacity(reps.len());
        for &(rep, seg_events) in &reps {
            let rep_events = slice_events(rep);
            let start = rep as u64 * interval;
            phases.push(SimPointPhase {
                weight: seg_events as f64 / total as f64,
                start,
                end: start + rep_events,
                scale: seg_events as f64 / rep_events as f64,
                cursor: scan.cursors[rep],
            });
        }

        // Error budget: the event-weighted mean normalized L1 distance
        // between each slice and its segment's representative. Zero when
        // every slice equals its representative (e.g. k == slices).
        let mut est_error = 0.0;
        for (s, &rep) in rep_of.iter().enumerate() {
            let mut l1 = 0.0;
            for d in 0..dim {
                l1 += (normalized[s * dim + d] - normalized[rep * dim + d]).abs();
            }
            est_error += (slice_events(s) as f64 / total as f64) * (l1 / dim as f64);
        }

        SimPointSelection {
            config,
            events: total,
            slices: slices as u64,
            dim,
            fingerprints: scan.fingerprints,
            assignments,
            phases,
            est_error,
        }
    }

    /// The configuration the selection was built under.
    pub fn config(&self) -> SimPointConfig {
        self.config
    }

    /// Total events of the stream the selection was built for.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Number of slices the stream was cut into.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Fingerprint dimensionality (2 × regions + 4).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The selected phases (replayed representative slices, up to
    /// [`SimPointConfig::strata`] per cluster), ascending by
    /// representative start.
    pub fn phases(&self) -> &[SimPointPhase] {
        &self.phases
    }

    /// Clusters with at least one member (distinct behaviors found; each
    /// replays up to [`SimPointConfig::strata`] phases).
    pub fn clusters(&self) -> usize {
        let mut ids: Vec<u32> = self.assignments.clone();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Cluster id per slice.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// The event-normalized fingerprint vector of one slice.
    pub fn fingerprint(&self, slice: usize) -> &[f64] {
        &self.fingerprints[slice * self.dim..(slice + 1) * self.dim]
    }

    /// Crate-internal: the whole row-major fingerprint matrix (the
    /// store's serialization unit).
    pub(crate) fn raw_fingerprints(&self) -> &[f64] {
        &self.fingerprints
    }

    /// Events sampled replay actually replays (Σ representative sizes).
    pub fn replayed_events(&self) -> u64 {
        self.phases.iter().map(|p| p.events()).sum()
    }

    /// The a-priori heterogeneity error budget in `[0, 1]`: the
    /// event-weighted mean normalized L1 distance between slices and
    /// their representatives.
    pub fn est_error(&self) -> f64 {
        self.est_error
    }

    /// Whether the selection was built for (a stream shaped exactly
    /// like) `ms`: the same events, and every phase's cursor walks from its
    /// reset point onto a record head of `ms` and onto the phase's first
    /// event there.
    pub fn matches(&self, ms: &MissStream) -> bool {
        self.fit(ms).is_ok()
    }

    /// What [`SimPointSelection::matches`] asks, with what is wrong, which
    /// names the phase.
    pub(crate) fn fit(&self, ms: &MissStream) -> Result<(), String> {
        if self.events != ms.events() {
            return Err(format!(
                "the selection was built for a {}-event stream, but this stream has {} events",
                self.events,
                ms.events()
            ));
        }
        for (k, ph) in self.phases.iter().enumerate() {
            land(ms.raw_bytes(), ph).map_err(|e| format!("phase {k}: {e}"))?;
        }
        Ok(())
    }

    /// Test-only: the selection with `phases` in place of its own, unchecked.
    #[cfg(test)]
    pub(crate) fn with_phases(&self, phases: Vec<SimPointPhase>) -> SimPointSelection {
        SimPointSelection { phases, ..self.clone() }
    }

    /// Crate-internal: rebuild from store-blob raw parts, refusing parts
    /// that [`SimPointSelection::check`] refuses (as
    /// [`MissStream::from_raw_parts`] does).
    pub(crate) fn from_raw_parts(parts: SimPointParts) -> Result<SimPointSelection, &'static str> {
        let sel = SimPointSelection {
            config: parts.config,
            events: parts.events,
            slices: parts.slices,
            dim: parts.dim,
            fingerprints: parts.fingerprints,
            assignments: parts.assignments,
            phases: parts.phases,
            est_error: parts.est_error,
        };
        sel.check()?;
        Ok(sel)
    }

    /// What is wrong with the selection, if anything: its slices tile the
    /// events exactly, with one assignment and one fingerprint row each;
    /// its phases are sorted, disjoint, in range and start on slices, with
    /// cursors inside a run, weights that sum to one and positive
    /// scales that agree with them; and its error budget is a fraction.
    /// What [`SimPointSelection::build`] must produce and what a loaded
    /// blob must hold (DESIGN.md §3.12).
    fn check(&self) -> Result<(), &'static str> {
        let interval = self.config.interval.max(1);
        if self.slices != self.events.div_ceil(interval) {
            return Err("slices do not tile the events");
        }
        if self.assignments.len() as u64 != self.slices {
            return Err("assignment count");
        }
        if (self.slices as usize).checked_mul(self.dim) != Some(self.fingerprints.len()) {
            return Err("fingerprint count");
        }
        if self.events == 0 {
            return if self.phases.is_empty() { Ok(()) } else { Err("phases of no events") };
        }
        let weight_sum: f64 = self.phases.iter().map(|p| p.weight).sum();
        if (weight_sum - 1.0).abs() >= 1e-9 || weight_sum.is_nan() {
            return Err("phase weights do not sum to 1");
        }
        let mut prev_end = 0u64;
        for p in &self.phases {
            if p.start < prev_end || p.end <= p.start || p.end > self.events {
                return Err("phase range");
            }
            if !p.start.is_multiple_of(interval) {
                return Err("phase does not start a slice");
            }
            if p.cursor.run_pos >= MAX_MISS_RUN {
                return Err("phase cursor off a record");
            }
            // What a resume walks is bounded here by bytes, and by records
            // where the selection meets its stream (`fit`).
            match p.cursor.idx.checked_sub(p.cursor.reset) {
                None => return Err("phase cursor before its reset point"),
                Some(d) if d > (RESET_RECORDS - 1) * MAX_RECORD_BYTES => {
                    return Err("phase cursor more than 1023 records after its reset point")
                }
                _ => {}
            }
            let implied = p.weight * self.events as f64 / p.events() as f64;
            if !(p.scale > 0.0 && (p.scale - implied).abs() <= 1e-9 * p.scale.max(1.0)) {
                return Err("phase scale");
            }
            prev_end = p.end;
        }
        if !(0.0..=1.0 + 1e-9).contains(&self.est_error) {
            return Err("error budget outside [0, 1]");
        }
        Ok(())
    }
}

/// A phase selection together with everything sampled replay reads of the
/// stream it was built from: the stream's policy-independent totals and,
/// copied verbatim, the records its representative slices replay — the
/// SimPoint practice of checkpointing simulation points. It is
/// self-contained: a sampled cell asks the
/// [`TraceCache`](crate::trace_cache::TraceCache) for this and nothing
/// else, so a process over a warm store never loads the miss stream.
///
/// Slice `k` is the records from the one holding phase `k`'s first event
/// to the one holding its last, `bytes[offsets[k]..offsets[k + 1]]` (the
/// last slice runs to the end), coded again from a reset point of its own
/// at its first record, so each slice decodes on its own. A phase's
/// [`SliceCursor`] carries the cycle track before its first record and the
/// position inside it, so the cursor survives condensing with its reset
/// point and its record both at `offsets[k]`: the slice decodes the very
/// events the full stream decodes from the cursor. Two adjacent phases
/// that share a record each hold a copy of it. The selection itself keeps
/// its full-stream cursors and still pairs with the whole [`MissStream`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSample {
    totals: StreamTotals,
    /// The slices' records, one slice after another.
    records: MissRecords,
    /// Byte offset of each phase's first record, in phase order.
    offsets: Vec<usize>,
    selection: Arc<SimPointSelection>,
}

impl PhaseSample {
    /// Copy out of `ms` what replaying `selection` reads of it. With
    /// `max_phases >= slices` that is the whole stream.
    pub fn condense(ms: &MissStream, selection: Arc<SimPointSelection>) -> PhaseSample {
        let fit = selection.fit(ms);
        assert!(fit.is_ok(), "phase selection does not fit this stream: {fit:?}");
        let all = ms.raw_bytes();
        let mut bytes = Vec::new();
        let mut offsets = Vec::with_capacity(selection.phases().len());
        for ph in selection.phases() {
            // Events from the head of the first record through the
            // phase's last one, coded again from a reset point.
            let c = ph.cursor();
            let mut left = c.run_pos as u64 + ph.events();
            let mut ctxs = Contexts::new();
            offsets.push(bytes.len());
            let records = Records::new(&all[c.reset..]).map_while(Result::ok);
            for step in records.skip_while(|step| c.reset + step.at < c.idx) {
                put_record(&mut bytes, &mut ctxs, &step.rec);
                left = left.saturating_sub(step.rec.run);
                if left == 0 {
                    break;
                }
            }
        }
        let totals = ms.totals().clone();
        let sample =
            PhaseSample { records: MissRecords::new(&totals, bytes), totals, offsets, selection };
        debug_assert_eq!(sample.check(), Ok(()), "phase sample");
        sample
    }

    /// The phase selection the slices were cut for.
    pub fn selection(&self) -> &Arc<SimPointSelection> {
        &self.selection
    }

    /// Bytes held by the slices' records.
    pub fn packed_bytes(&self) -> u64 {
        self.records.bytes.len() as u64
    }

    /// The totals of the stream the sample was condensed from.
    pub(crate) fn totals(&self) -> &StreamTotals {
        &self.totals
    }

    /// Crate-internal: the slices' records and where each starts (the
    /// store's serialization unit).
    pub(crate) fn raw_parts(&self) -> (&[u8], &[usize]) {
        (&self.records.bytes, &self.offsets)
    }

    /// The decoder at phase `k`'s first event; the phase's
    /// [`SimPointPhase::events`] next events are the slice.
    pub(crate) fn open(&self, k: usize) -> MissEvents<'_> {
        let (c, at) = (self.selection.phases()[k].cursor(), self.offsets[k]);
        self.records.events_from(SliceCursor { reset: at, idx: at, ..c })
    }

    /// Crate-internal: assemble a sample from store-blob parts, refusing
    /// parts that do not fit together — the blob's checksum vouches for
    /// its bytes, not for the writer, and replay indexes by all of these.
    pub(crate) fn from_raw_parts(
        totals: StreamTotals,
        bytes: Vec<u8>,
        offsets: Vec<usize>,
        selection: SimPointSelection,
    ) -> Result<PhaseSample, &'static str> {
        let sample = PhaseSample {
            records: MissRecords::new(&totals, bytes),
            totals,
            offsets,
            selection: Arc::new(selection),
        };
        sample.check()?;
        Ok(sample)
    }

    /// What is wrong with the sample, if anything: every byte belongs to
    /// a slice, the slices sit in phase order, each is whole records that
    /// pass [`crate::miss_stream::Record::check`], cover its phase's events
    /// and keep a thread-cycle track inside the stream's core cycles, and
    /// the totals agree with the selection and pass
    /// [`StreamTotals::check`]. The selection was checked when it was
    /// built or loaded.
    fn check(&self) -> Result<(), &'static str> {
        let t = &self.totals;
        let bytes = &self.records.bytes;
        let phases = self.selection.phases();
        if t.events != self.selection.events() {
            return Err("sample and selection disagree on the stream's events");
        }
        t.check()?;
        if self.offsets.len() != phases.len() {
            return Err("offset count");
        }
        let (regions, last) = (t.regions.regions().len(), t.last_track());
        // The first slice starts at byte 0; no slices, no bytes.
        if self.offsets.first().copied().unwrap_or(bytes.len()) != 0 {
            return Err("sample bytes outside every slice");
        }
        for (k, ph) in phases.iter().enumerate() {
            let start = self.offsets[k];
            let end = self.offsets.get(k + 1).copied().unwrap_or(bytes.len());
            if start >= end || end > bytes.len() {
                return Err("slice offsets");
            }
            let run_pos = ph.cursor().run_pos as u64;
            // The cursor's track already holds the first record's events
            // before it.
            let (mut covered, mut track, mut before) = (0u64, ph.cursor().cycles, run_pos);
            for step in Records::new(&bytes[start..end]) {
                let rec = step?.rec;
                rec.check(regions)?;
                if before >= rec.run {
                    return Err("phase cursor past its record");
                }
                covered += rec.run;
                track = track.saturating_add(rec.gap * (rec.run - before));
                before = 0;
            }
            if covered < run_pos + ph.events() {
                return Err("slice short of its phase");
            }
            if track > last {
                return Err("slice cycle track past the core cycles");
            }
        }
        Ok(())
    }
}

/// What is wrong with phase `ph`'s cursor into the stream records
/// `bytes`, if anything: walked from its reset point, it must land on a
/// record head within 1023 records, inside that record's run, and on the
/// phase's first event — the events before the
/// reset point, those of the records walked and the cursor's position in
/// its run together.
fn land(bytes: &[u8], ph: &SimPointPhase) -> Result<(), &'static str> {
    let c = ph.cursor;
    let mut event = c.reset_event;
    let records = Records::new(bytes.get(c.reset..).unwrap_or(&[]));
    for (n, step) in records.enumerate() {
        if n == RESET_RECORDS {
            return Err("phase cursor more than 1023 records after its reset point");
        }
        let step = step?;
        let at = c.reset + step.at;
        if at > c.idx {
            return Err("phase cursor off a record head");
        }
        if at == c.idx {
            if c.run_pos as u64 >= step.rec.run {
                return Err("phase cursor past its record");
            }
            if event.checked_add(c.run_pos as u64) != Some(ph.start) {
                return Err("phase cursor off its first event");
            }
            return Ok(());
        }
        event = event.saturating_add(step.rec.run);
    }
    Err("phase cursor past the stream")
}

/// Crate-internal serializable bundle (the artifact store's unit).
pub(crate) struct SimPointParts {
    pub config: SimPointConfig,
    pub events: u64,
    pub slices: u64,
    pub dim: usize,
    pub fingerprints: Vec<f64>,
    pub assignments: Vec<u32>,
    pub phases: Vec<SimPointPhase>,
    pub est_error: f64,
}

/// One pass over the packed records: per-slice fingerprints plus the
/// decoder cursor at every slice boundary. A record, or the part of one
/// inside a slice, advances the thread-cycle clock ([`CoreClock::advance`])
/// in one step that reports where its events carried, which is where their
/// core-cycle steps change and so where core runs ([`Batch`]) start; the
/// counts are added once per part, and only a batch of demands with
/// write-backs takes its row switches on its own ([`Batch::close`]).
struct FingerprintScan {
    dim: usize,
    fingerprints: Vec<f64>,
    cursors: Vec<SliceCursor>,
}

/// Coarse row granule of the locality feature: the contiguous address
/// span that keeps one DRAM row open per channel under the default
/// geometry (4 channels × 8 KiB rows → 32 KiB of line-interleaved
/// addresses per row set). A canonical constant rather than a value read
/// from the replay-time [`crate::config::SystemConfig`]: the fingerprint
/// only needs to *discriminate* slices by row-buffer behaviour — replay
/// itself always uses the configured geometry exactly.
const ROW_GRANULE_SHIFT: u32 = 15;

/// Entries of the open-row proxy table the scan keeps (granule-indexed,
/// standing in for the channel × rank × bank row buffers).
const ROW_TABLE: usize = 16;

/// Open-row proxy: one granule id per table entry, carried across slice
/// boundaries (the real row buffers carry state too). A touched granule
/// that is not the one "open" in its entry counts as a row switch — the
/// per-slice rate of these is the feature that separates streaming phases
/// (long sequential runs, few switches) from scatter phases (a switch per
/// event), which is what drives DRAM activate energy and timing.
struct OpenRows([u64; ROW_TABLE]);

impl OpenRows {
    /// The row switches a sweep over `lo..=hi` makes, opening its granules.
    fn switches(&mut self, lo: u64, hi: u64) -> u64 {
        let mut n = 0u64;
        let mut g = lo >> ROW_GRANULE_SHIFT;
        let last = hi >> ROW_GRANULE_SHIFT;
        loop {
            let slot = (g as usize) % ROW_TABLE;
            if self.0[slot] != g {
                self.0[slot] = g;
                n += 1;
            }
            if g >= last {
                break;
            }
            g += 1;
        }
        n
    }
}

/// The events one core run holds inside one slice: what the density
/// dimension counts. A core run is a run as a stream keyed on *core*-cycle
/// gaps would cut it (DESIGN.md §3.15): consecutive events of one kind,
/// region, direction and work on consecutive trigger (and write-back)
/// lines, with equal core-cycle gaps, at most [`MAX_MISS_RUN`] of them.
struct Batch {
    /// The first event's trigger, write-back line and kind.
    head: Access,
    wb_line: i64,
    kind: u64,
    len: u64,
}

impl Batch {
    /// Whether an event of `kind` triggered by `a` with write-back line
    /// `wb_line` follows the batch's last one in everything but its gap.
    fn continued_by(&self, kind: u64, a: &Access, wb_line: i64) -> bool {
        (self.kind == kind)
            & (self.head.region == a.region)
            & (self.head.write == a.write)
            & (self.head.work == a.work)
            & (a.addr == self.head.addr + 64 * self.len)
            & ((kind == KIND_DEMAND) | (wb_line == self.wb_line + self.len as i64))
    }

    /// The row switches the batch makes as it closes. A batch of demands
    /// with write-backs sweeps its trigger lines and then its write-back
    /// lines, so where it ends decides what the two sweeps evict of each
    /// other; a batch on one track sweeps it in the order its events came,
    /// which [`FingerprintScan::run`] does record by record.
    fn close(&self, rows: &mut OpenRows) -> u64 {
        if self.kind != KIND_DEMAND_WB || self.len == 0 {
            return 0;
        }
        let last = self.len - 1;
        rows.switches(self.head.addr, self.head.addr + 64 * last)
            + rows.switches((self.wb_line as u64) << 6, ((self.wb_line + last as i64) as u64) << 6)
    }
}

impl FingerprintScan {
    /// A fingerprint holds, per slice and normalized by its events, the
    /// demand events and the write-backs of each region, its core cycles,
    /// its writes, its row switches and its core runs. The scan counts down
    /// to the next slice boundary instead of dividing by `interval`, and
    /// tallies a slice's counts in integers, converted and divided once per
    /// slice: every count is below 2^53, so `tally as f64` is the f64 sum
    /// the counts would have added up to. A slice's core cycles are the
    /// difference of the clock across it, which is exact in f64 wherever a
    /// sum of its gaps is. `simpoint::tests`' `reference_scan`, the
    /// definition expanded event by event, holds it to the same bits
    /// (DESIGN.md §3.15).
    fn run(ms: &MissStream, interval: u64) -> FingerprintScan {
        let regions = ms.regions().regions().len();
        let dim = 2 * regions + 4;
        let (cycle_dim, write_dim, switch_dim, runs_dim) =
            (2 * regions, 2 * regions + 1, 2 * regions + 2, 2 * regions + 3);
        let slices = ms.events().div_ceil(interval) as usize;
        let mut fingerprints = Vec::with_capacity(slices * dim);
        let mut cursors: Vec<SliceCursor> = Vec::with_capacity(slices);
        let mut rows = OpenRows([u64::MAX; ROW_TABLE]);

        // The slice being scanned: its counts (the cycle slot unused), the
        // core cycles it opened at, and how many of its `interval` events
        // are still to come. Normalizing to rates lets a short final slice
        // compare fairly with full ones.
        let mut tally = vec![0u64; dim];
        let mut left = 0u64;
        let mut flush = |tally: &mut [u64], cycles: u64, events: u64| {
            let ev = events as f64;
            fingerprints.extend(tally.iter().map(|&n| n as f64 / ev));
            let row = fingerprints.len() - dim;
            fingerprints[row + cycle_dim] = cycles as f64 / ev;
            tally.fill(0);
        };

        let mut clock = CoreClock::resume(ms.filter_config().2 as u64, 0);
        let (mut track, mut slice_start) = (0u64, 0u64);
        let head = Access { addr: 0, region: 0, write: false, work: 0 };
        let mut batch = Batch { head, wb_line: 0, kind: KIND_DEMAND, len: 0 };
        // The core run the last event fell in: its length and gap.
        let (mut core_run, mut core_gap) = (0usize, 0u64);
        for step in ms.records().map_while(Result::ok) {
            let rec = step.rec;
            let (run, kind, gap, head) = (rec.run as usize, rec.kind, rec.gap, rec.trigger(0));
            // Write-back line of the record head; successive events write
            // back successive lines.
            let wb_head = rec.wb as i64;
            clock.set_gap(gap);
            // Inside a record each event follows the one before in all
            // but its core-cycle gap; whether its head does is asked once.
            let joins = batch.len > 0 && batch.continued_by(kind, &head, wb_head);
            let r = head.region as usize;
            let mut pos = 0;
            while pos < run {
                // A slice boundary closes the batch without ending the run.
                let mut cuts = 0u64;
                if left == 0 {
                    if !cursors.is_empty() {
                        tally[switch_dim] += batch.close(&mut rows);
                        flush(&mut tally, clock.core() - slice_start, interval);
                        slice_start = clock.core();
                    }
                    batch.len = 0;
                    cursors.push(SliceCursor::at(&step, pos, track));
                    left = interval;
                    cuts = 1;
                }
                // The record's events up to the boundary: bit `k` of `cuts`
                // is set where event `pos + k` opens a batch. Inside a
                // record an event's core-cycle step changes exactly where
                // its carry does; the first event compares with the core
                // run before, which only the 64-event cap can cut later.
                let end = run.min(pos + left as usize);
                let n = end - pos;
                let carries = clock.advance(n);
                let low = u64::MAX >> (64 - n);
                let first = clock.step() + (carries & 1);
                let joined = ((pos > 0) | joins) & (first == core_gap) & (core_run < MAX_MISS_RUN);
                let mut starts = (carries ^ (carries << 1)) & low & !1;
                if joined {
                    let cap = MAX_MISS_RUN - core_run;
                    if cap < n && starts & ((1 << cap) - 1) == 0 {
                        starts |= 1 << cap;
                    }
                } else {
                    starts |= 1;
                }
                core_run = match starts {
                    0 => core_run + n,
                    _ => n - (63 - starts.leading_zeros() as usize),
                };
                core_gap = clock.step() + (carries >> (n - 1) & 1);
                cuts |= starts;
                track += gap * n as u64;
                left -= n as u64;

                // Close the batch the first cut ends, and every one after
                // it but the last, which stays open for the next record.
                let batch_at = |at: usize, len: usize| Batch {
                    head: Access { addr: head.addr + 64 * (pos + at) as u64, ..head },
                    wb_line: wb_head + (pos + at) as i64,
                    kind,
                    len: len as u64,
                };
                if cuts == 0 {
                    batch.len += n as u64;
                } else {
                    let mut at = cuts.trailing_zeros() as usize;
                    batch.len += at as u64;
                    tally[switch_dim] += batch.close(&mut rows);
                    tally[runs_dim] += cuts.count_ones() as u64;
                    if kind == KIND_DEMAND_WB {
                        let mut rest = cuts & (cuts - 1);
                        while rest != 0 {
                            let next = rest.trailing_zeros() as usize;
                            tally[switch_dim] += batch_at(at, next - at).close(&mut rows);
                            (at, rest) = (next, rest & (rest - 1));
                        }
                    } else {
                        at = 63 - cuts.leading_zeros() as usize;
                    }
                    batch = batch_at(at, n - at);
                }

                // Everything else the piece adds, at once: its demand and
                // write-back events, its writes, and — on one track — its
                // row switches.
                let (lo, hi) = (pos as u64, end as u64 - 1);
                let n = n as u64;
                if kind != KIND_WRITEBACK {
                    tally[r] += n;
                }
                if kind != KIND_DEMAND {
                    tally[regions + r] += n;
                }
                if head.write {
                    tally[write_dim] += n;
                }
                if kind == KIND_DEMAND {
                    tally[switch_dim] += rows.switches(head.addr + 64 * lo, head.addr + 64 * hi);
                } else if kind == KIND_WRITEBACK {
                    let (wb_lo, wb_hi) = (wb_head + lo as i64, wb_head + hi as i64);
                    tally[switch_dim] += rows.switches((wb_lo as u64) << 6, (wb_hi as u64) << 6);
                }
                pos = end;
            }
        }
        if !cursors.is_empty() {
            tally[switch_dim] += batch.close(&mut rows);
            flush(&mut tally, clock.core() - slice_start, interval - left);
        }
        FingerprintScan { dim, fingerprints, cursors }
    }
}

fn minmax_normalize(fp: &[f64], slices: usize, dim: usize) -> Vec<f64> {
    let mut out = vec![0f64; fp.len()];
    for d in 0..dim {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in 0..slices {
            let v = fp[s * dim + d];
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let span = hi - lo;
        if span > 0.0 {
            for s in 0..slices {
                out[s * dim + d] = (fp[s * dim + d] - lo) / span;
            }
        }
    }
    out
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Mean of the member rows, written into the caller's reused `mean`
/// buffer (this runs once per stratum per cluster — it must not
/// allocate).
fn mean_into(fp: &[f64], members: &[usize], dim: usize, mean: &mut [f64]) {
    mean.fill(0.0);
    for &s in members {
        for d in 0..dim {
            mean[d] += fp[s * dim + d];
        }
    }
    for v in mean {
        *v /= members.len() as f64;
    }
}

/// The splitmix64 step: a tiny, seeded, portable PRNG — deterministic by
/// construction (never wall-clock or OS-entropy seeded).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded deterministic k-means: k-means++ initialization followed by
/// Lloyd iterations. Ties in assignment break to the lowest cluster
/// index; an emptied cluster is reseeded from the farthest slice — both
/// rules keep the result a pure function of (fingerprints, seed).
fn kmeans(
    fp: &[f64],
    slices: usize,
    dim: usize,
    k: usize,
    seed: u64,
    iterations: usize,
) -> (Vec<u32>, Vec<f64>) {
    let row = |s: usize| &fp[s * dim..(s + 1) * dim];
    let mut rng = seed;
    let mut centroids: Vec<f64> = Vec::with_capacity(k * dim);
    let first = (splitmix64(&mut rng) % slices as u64) as usize;
    centroids.extend_from_slice(row(first));
    let mut best_d2: Vec<f64> = (0..slices).map(|s| dist2(row(s), row(first))).collect();
    while centroids.len() < k * dim {
        let sum: f64 = best_d2.iter().sum();
        let next = if sum <= 0.0 {
            // All remaining slices coincide with a centroid: take the
            // lowest not-yet-zero-cost index deterministically (any
            // choice yields an empty-cluster reseed later; this keeps
            // the walk stable).
            (centroids.len() / dim) % slices
        } else {
            // Sample proportional to squared distance (k-means++), the
            // random draw taken from the seeded stream.
            let draw = (splitmix64(&mut rng) as f64 / u64::MAX as f64) * sum;
            let mut acc = 0.0;
            let mut chosen = slices - 1;
            for (s, &d) in best_d2.iter().enumerate() {
                acc += d;
                if acc >= draw {
                    chosen = s;
                    break;
                }
            }
            chosen
        };
        centroids.extend_from_slice(row(next));
        let base = centroids.len() - dim;
        for (s, d) in best_d2.iter_mut().enumerate() {
            *d = d.min(dist2(row(s), &centroids[base..]));
        }
    }

    let mut assignments = vec![0u32; slices];
    // Update-step accumulators, hoisted: the Lloyd iterations zero and
    // refill them rather than reallocating per round.
    let mut counts = vec![0u64; k];
    let mut sums = vec![0f64; k * dim];
    for _ in 0..iterations.max(1) {
        // Assignment step (ties to the lowest cluster index).
        let mut changed = false;
        for (s, slot) in assignments.iter_mut().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let d = dist2(row(s), &centroids[c * dim..(c + 1) * dim]);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if *slot != best as u32 {
                *slot = best as u32;
                changed = true;
            }
        }
        // Update step.
        counts.fill(0);
        sums.fill(0.0);
        for s in 0..slices {
            let c = assignments[s] as usize;
            counts[c] += 1;
            for d in 0..dim {
                sums[c * dim + d] += fp[s * dim + d];
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Reseed an emptied cluster from the slice farthest from
                // its current centroid (lowest index on ties).
                let far = (0..slices)
                    .max_by(|&a, &b| {
                        let da = dist2(row(a), &centroids[assignments[a] as usize * dim..][..dim]);
                        let db = dist2(row(b), &centroids[assignments[b] as usize * dim..][..dim]);
                        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal).then(b.cmp(&a))
                    })
                    .unwrap_or(0);
                centroids[c * dim..(c + 1) * dim].copy_from_slice(row(far));
                assignments[far] = c as u32;
                changed = true;
            } else {
                for d in 0..dim {
                    centroids[c * dim + d] = sums[c * dim + d] / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (assignments, centroids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, SystemConfig};
    use crate::miss_stream::Record;
    use crate::workloads::{DgemmParams, KernelKind, KernelParams};

    /// The referee: the fingerprint by its definition, event by event.
    /// Every event is expanded from the records with its core cycles taken
    /// by division, cut into core runs by the rule a stream keyed on
    /// core-cycle gaps was encoded by, and those into slices by a division
    /// and a remainder by `interval`; each stretch is then tallied as the
    /// scan tallied a record before the records were keyed on thread
    /// cycles — f64 read-modify-writes into the slice's row, one
    /// normalizing pass at the end. It shares nothing with
    /// [`FingerprintScan::run`] but the record decoder, whose events
    /// `tests/reference_machine.rs` holds to its own cache walk's.
    fn reference_scan(ms: &MissStream, interval: u64) -> FingerprintScan {
        let regions = ms.regions().regions().len();
        let dim = 2 * regions + 4;
        let total = ms.events();
        let slices = total.div_ceil(interval) as usize;
        let threads = ms.filter_config().2 as u64;

        // Every event: its trigger, kind, write-back line, core cycles and
        // the cursor that resumes at it.
        struct Event {
            a: Access,
            kind: u64,
            wb_line: i64,
            core: u64,
            cursor: SliceCursor,
        }
        let mut events = Vec::new();
        let mut track = 0u64;
        for step in ms.records() {
            let step = step.unwrap();
            let (rec, head) = (step.rec, step.rec.trigger(0));
            for pos in 0..rec.run as usize {
                let cursor = SliceCursor::at(&step, pos, track);
                track += rec.gap;
                events.push(Event {
                    a: Access { addr: head.addr + 64 * pos as u64, ..head },
                    kind: rec.kind,
                    wb_line: rec.wb as i64 + pos as i64,
                    core: track / threads,
                    cursor,
                });
            }
        }
        assert_eq!(events.len() as u64, total);

        // Core runs: an event extends its predecessor's run iff the run
        // is short of 64 events and the event has the run head's kind,
        // region, direction, work and core-cycle gap, on the next trigger
        // line and, unless it is a plain demand, the next write-back line.
        let gap = |i: usize| events[i].core - if i == 0 { 0 } else { events[i - 1].core };
        let mut starts_run = vec![true; events.len()];
        let mut head = 0;
        for i in 1..events.len() {
            let (h, e, n) = (&events[head], &events[i], (i - head) as u64);
            let extends = n < MAX_MISS_RUN as u64
                && e.kind == h.kind
                && e.a.region == h.a.region
                && e.a.write == h.a.write
                && e.a.work == h.a.work
                && e.a.addr == h.a.addr + 64 * n
                && gap(i) == gap(head)
                && (e.kind == KIND_DEMAND || e.wb_line == h.wb_line + n as i64);
            if extends {
                starts_run[i] = false;
            } else {
                head = i;
            }
        }

        // Open-row proxy, as in the scan.
        let mut open = [u64::MAX; ROW_TABLE];
        let mut row_switches = |lo: u64, hi: u64| -> f64 {
            let mut n = 0u64;
            let mut g = lo >> ROW_GRANULE_SHIFT;
            let last = hi >> ROW_GRANULE_SHIFT;
            loop {
                let slot = (g as usize) % ROW_TABLE;
                if open[slot] != g {
                    open[slot] = g;
                    n += 1;
                }
                if g >= last {
                    break;
                }
                g += 1;
            }
            n as f64
        };

        let mut fingerprints = vec![0f64; slices * dim];
        let mut cursors: Vec<SliceCursor> = Vec::with_capacity(slices);
        let mut b = 0usize;
        while b < events.len() {
            let at = b as u64;
            if at.is_multiple_of(interval) {
                cursors.push(events[b].cursor);
            }
            // The stretch of one core run inside one slice.
            let mut e = b + 1;
            while e < events.len() && !starts_run[e] && !(e as u64).is_multiple_of(interval) {
                e += 1;
            }
            let s = (at / interval) as usize;
            let fp = &mut fingerprints[s * dim..(s + 1) * dim];
            let (h, last) = (&events[b], &events[e - 1]);
            let n = (e - b) as f64;
            let r = h.a.region as usize;
            if h.kind == KIND_WRITEBACK {
                fp[regions + r] += n;
            } else {
                fp[r] += n;
                fp[2 * regions + 2] += row_switches(h.a.addr, last.a.addr);
                if h.kind != KIND_DEMAND {
                    fp[regions + r] += n;
                }
            }
            if h.kind != KIND_DEMAND {
                let (wb_lo, wb_hi) = ((h.wb_line as u64) << 6, (last.wb_line as u64) << 6);
                fp[2 * regions + 2] += row_switches(wb_lo, wb_hi);
            }
            fp[2 * regions] += (gap(b) * (e - b) as u64) as f64;
            if h.a.write {
                fp[2 * regions + 1] += n;
            }
            fp[2 * regions + 3] += 1.0;
            b = e;
        }

        // Normalize each slice to rates so short final slices compare
        // fairly with full ones.
        for s in 0..slices {
            let ev = (total - s as u64 * interval).min(interval) as f64;
            for v in &mut fingerprints[s * dim..(s + 1) * dim] {
                *v /= ev;
            }
        }
        FingerprintScan { dim, fingerprints, cursors }
    }

    /// Where the scan of `ms` at `interval` first differs from
    /// [`reference_scan`]'s — dimension, cursors, or a fingerprint by bit
    /// pattern — if anywhere.
    fn scan_mismatch(ms: &MissStream, interval: u64) -> Option<String> {
        let (got, want) = (FingerprintScan::run(ms, interval), reference_scan(ms, interval));
        let bits =
            |s: &FingerprintScan| s.fingerprints.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        if got.dim != want.dim || got.cursors != want.cursors {
            return Some(format!("interval {interval}: dim or cursors differ"));
        }
        let (g, w) = (bits(&got), bits(&want));
        let at = g.iter().zip(&w).position(|(a, b)| a != b);
        (g.len() != w.len() || at.is_some()).then(|| {
            format!(
                "interval {interval}: {} vs {} values, first difference at {at:?}",
                g.len(),
                w.len()
            )
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn the_scan_is_reference_scan_bit_for_bit(seed: u64) {
            use proptest::prelude::*;
            use rand::{Rng, SeedableRng};
            let rng = &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let threads = [1, 3, 4, 6][rng.random_range(0..4)];
            let (t, l1, l2) = crate::miss_stream::few_line_trace(seed, 3, 600);
            let ms = MissStream::build(&mut t.replay(), l1, l2, threads);
            let beyond = ms.events() + rng.random_range(1..100);
            // What the intervals must have met: a run split across a slice
            // boundary, a short final slice, a one-event slice — and, past
            // one thread, core runs that are not the records.
            let mut seen = [false, false, false, threads == 1];
            for interval in (1..64).chain([beyond]) {
                prop_assert_eq!(scan_mismatch(&ms, interval), None);
                let scan = FingerprintScan::run(&ms, interval);
                seen[0] |= scan.cursors.iter().any(|c| c.run_pos > 0);
                let last = ms.events() - (scan.cursors.len() as u64 - 1) * interval;
                seen[1] |= last < interval;
                seen[2] |= interval == 1 || last == 1;
                if interval == beyond {
                    let core_runs = scan.fingerprints[scan.dim - 1] * ms.events() as f64;
                    seen[3] |= core_runs != ms.records().count() as f64;
                }
            }
            prop_assert!(seen == [true; 4], "{} events at {threads} threads too tame: {seen:?}", ms.events());
        }
    }

    #[test]
    fn the_scan_is_reference_scan_on_the_default_kernels() {
        let cfg = SystemConfig::default();
        for kind in KernelKind::ALL {
            let mut stream = KernelParams::default_for(kind).stream();
            let ms = MissStream::build(&mut stream, cfg.l1, cfg.l2, cfg.threads);
            for interval in [32768, 4097, 1000] {
                assert_eq!(scan_mismatch(&ms, interval), None, "{kind:?}");
            }
        }
    }

    #[test]
    fn a_core_run_through_three_records_is_cut_at_64_events_inside_the_third() {
        // At six threads a line read for 6 thread cycles steps the core
        // cycles by one, and so, from a remainder of 0, do five lines that a
        // hit in between makes cost 7: records of their own, but not a core
        // run of their own. The run that starts at line 0 goes on through
        // them and reaches 64 events in the record after.
        let l1 = CacheConfig { capacity: 4096, ways: 4, line_bytes: 64, latency_cycles: 1 };
        let l2 = CacheConfig { capacity: 8192, ways: 8, line_bytes: 64, latency_cycles: 0 };
        let mut rm = crate::trace::RegionMap::new();
        let (v, hot) = (rm.alloc("v", 200 * 64, true), rm.alloc("hot", 64, true));
        let (vb, hb) = (rm.get(v).base, rm.get(hot).base);
        let mut t = crate::trace::Trace::new(rm);
        t.push(hb, hot, false, 6);
        for i in 0..200 {
            if (30..35).contains(&i) {
                t.push(hb, hot, false, 0);
            }
            t.push(vb + i * 64, v, false, 6);
        }
        let ms = MissStream::build(&mut t.replay(), l1, l2, 6);
        assert_eq!(ms.events(), 201);
        let runs: Vec<u64> = ms.records().map(|step| step.unwrap().rec.run).collect();
        assert_eq!(runs, [1, 30, 5, 64, 64, 37]);
        for interval in [1000, 100, 50, 7] {
            assert_eq!(scan_mismatch(&ms, interval), None);
        }
        // Core runs: the hot line, lines 0..64, 64..128, 128..192, the rest.
        let scan = FingerprintScan::run(&ms, 1000);
        assert_eq!(scan.fingerprints[scan.dim - 1] * 201.0, 5.0);
    }

    fn small_stream() -> MissStream {
        let params =
            KernelParams::Dgemm(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 });
        let packed = std::sync::Arc::new(params.build_packed());
        let cfg = SystemConfig::default();
        MissStream::build(&mut packed.replay(), cfg.l1, cfg.l2, cfg.threads)
    }

    #[test]
    fn slices_tile_the_stream_and_weights_sum_to_one() {
        let ms = small_stream();
        let cfg = SimPointConfig { interval: 4096, max_phases: 8, ..Default::default() };
        let sel = SimPointSelection::build(&ms, cfg);
        assert_eq!(sel.slices(), ms.events().div_ceil(4096));
        assert_eq!(sel.events(), ms.events());
        let wsum: f64 = sel.phases().iter().map(|p| p.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9, "weights sum to {wsum}");
        assert!(sel.clusters() <= 8);
        assert!(sel.replayed_events() <= ms.events());
        assert!(sel.est_error() >= 0.0 && sel.est_error() <= 1.0);
    }

    #[test]
    fn same_seed_is_deterministic_and_seeds_differ() {
        let ms = small_stream();
        let cfg = SimPointConfig { interval: 2048, max_phases: 6, ..Default::default() };
        let a = SimPointSelection::build(&ms, cfg);
        let b = SimPointSelection::build(&ms, cfg);
        assert_eq!(a, b, "same seed must select identical representatives");
        // A different seed may legitimately converge to the same optimum
        // on a small stream; determinism per seed is the contract.
        let c = SimPointSelection::build(&ms, SimPointConfig { seed: cfg.seed ^ 0xff, ..cfg });
        assert_eq!(c.slices(), a.slices());
    }

    #[test]
    fn saturated_k_makes_every_slice_its_own_phase() {
        let ms = small_stream();
        let cfg =
            SimPointConfig { interval: 1 << 20, max_phases: usize::MAX, ..Default::default() };
        let sel = SimPointSelection::build(&ms, cfg);
        assert_eq!(sel.clusters() as u64, sel.slices());
        assert_eq!(sel.replayed_events(), ms.events());
        for p in sel.phases() {
            assert_eq!(p.scale(), 1.0);
        }
        assert_eq!(sel.est_error(), 0.0);
    }

    #[test]
    fn cursors_resume_bit_identically_mid_stream() {
        let ms = small_stream();
        let cfg = SimPointConfig { interval: 1000, max_phases: usize::MAX, ..Default::default() };
        let sel = SimPointSelection::build(&ms, cfg);
        let all: Vec<_> = ms.iter().collect();
        for p in sel.phases() {
            let got: Vec<_> = ms.events_from(p.cursor()).take(p.events() as usize).collect();
            let want = &all[p.start as usize..p.end as usize];
            assert_eq!(got.as_slice(), want, "slice [{}, {})", p.start, p.end);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn a_condensed_sample_decodes_every_phase_like_the_full_stream(seed: u64) {
            use crate::miss_stream::MissEvent;
            use proptest::prelude::*;
            use rand::{Rng, SeedableRng};
            let ms = crate::miss_stream::few_line_stream(seed);
            let all: Vec<MissEvent> = ms.iter().collect();
            let rng = &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            // An interval that leaves a short final slice.
            let mut interval = rng.random_range(5..48u64);
            while ms.events().is_multiple_of(interval) {
                interval += 1;
            }
            let slices = ms.events().div_ceil(interval) as usize;
            prop_assert!(slices > 4, "{} events make {slices} slices of {interval}", ms.events());

            // What the slices must have met between them: a phase that
            // starts inside a run, one that ends inside a run, two adjacent
            // phases holding a copy each of the record they share, the
            // short final slice, and every slice its own phase.
            let mut seen = [false; 5];
            let stream_records = ms.records().count();
            let budgets = [usize::MAX, slices, rng.random_range(1..slices), 1];
            for max_phases in budgets {
                let strata = rng.random_range(1..4);
                let cfg = SimPointConfig { interval, max_phases, strata, ..Default::default() };
                let sel = Arc::new(SimPointSelection::build(&ms, cfg));
                let sample = PhaseSample::condense(&ms, Arc::clone(&sel));
                prop_assert_eq!(sample.check(), Ok(()));
                prop_assert_eq!(sample.offsets.len(), sel.phases().len());
                let bytes = &sample.records.bytes;
                let (mut prev_last, mut sample_records) = (None, 0);
                for (k, ph) in sel.phases().iter().enumerate() {
                    let got: Vec<MissEvent> = sample.open(k).take(ph.events() as usize).collect();
                    prop_assert!(
                        got == all[ph.start as usize..ph.end as usize],
                        "phase {k} [{}, {}) of {cfg:?}", ph.start, ph.end
                    );
                    let end = sample.offsets.get(k + 1).copied().unwrap_or(bytes.len());
                    let slice: Vec<Record> = Records::new(&bytes[sample.offsets[k]..end])
                        .map(|step| step.unwrap().rec)
                        .collect();
                    let covered: u64 = slice.iter().map(|rec| rec.run).sum();
                    let run_pos = ph.cursor().run_pos as u64;
                    seen[0] |= run_pos > 0;
                    seen[1] |= covered > run_pos + ph.events();
                    seen[2] |= run_pos > 0
                        && k > 0
                        && sel.phases()[k - 1].end == ph.start
                        && prev_last == Some(slice[0]);
                    seen[3] |= ph.end == ms.events() && ph.events() < interval;
                    prev_last = slice.last().copied();
                    sample_records += slice.len();
                }
                seen[4] |= sel.phases().len() == slices && sample_records >= stream_records;
            }
            prop_assert!(seen == [true; 5], "slices too tame at interval {interval}: {seen:?}");
        }
    }

    #[test]
    fn empty_stream_yields_no_phases() {
        use crate::trace::{RegionMap, Trace};
        let mut rm = RegionMap::new();
        rm.alloc("v", 4096, true);
        let t = Trace::new(rm);
        let cfg = SystemConfig::default();
        let ms = MissStream::build(&mut t.replay(), cfg.l1, cfg.l2, cfg.threads);
        let sel = SimPointSelection::build(&ms, SimPointConfig::default());
        assert_eq!(sel.slices(), 0);
        assert!(sel.phases().is_empty());
    }
}
