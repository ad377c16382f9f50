//! Process-wide memoization of what campaigns replay: cache-filtered miss
//! streams and phase samples.
//!
//! Generating a kernel's reference stream and walking it through L1/L2 is
//! the dominant fixed cost of every harness binary: a default-scale
//! FT-DGEMM trace is tens of millions of references, and the seed harness
//! regenerated it once per binary per figure. The [`TraceCache`] filters
//! each distinct [`FilterKey`] once per process and hands out
//! `Arc<MissStream>` clones, so a campaign running 24 (kernel x strategy)
//! jobs performs exactly 4 generations and 4 filter passes. A generation
//! feeds the walker directly ([`KernelParams::emit_into`]): the trace
//! itself is never held, as the paper's Pin → McSim stack never holds one.
//! With an [`ArtifactStore`] attached the same generation also feeds a
//! [`PackedBuilder`], and the packed trace is written as a `.trace` blob
//! and dropped — the packed form is a persistence format, not a memo level
//! ([`TraceCache::get`] keeps a memo of it for callers that ask for one).
//!
//! Concurrency: the map lock is held only to look up or insert a
//! per-key slot; the (expensive) build itself runs outside the map
//! lock behind the slot's own mutex, so two workers asking for
//! *different* kernels build concurrently while two workers asking for
//! the *same* kernel serialize and share one build.

use crate::config::{CacheConfig, SystemConfig};
use crate::miss_stream::MissStream;
use crate::packed::{PackedBuilder, PackedTrace};
use crate::simpoint::{PhaseSample, SimPointConfig, SimPointSelection};
use crate::store::{ArtifactStore, StoreError, StoreMetrics};
use crate::stream::Tee;
use crate::workloads::KernelParams;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Key of the miss-stream memo level: cache outcomes depend on the
/// workload, the L1/L2 geometry and the thread interleaving — and on
/// nothing else (in particular not the ECC assignment), so one filtered
/// stream serves every policy and every DRAM/stall-factor config variant
/// sharing these values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FilterKey {
    /// The workload (kernel + scale).
    pub params: KernelParams,
    /// L1 geometry the filter ran under.
    pub l1: CacheConfig,
    /// L2 geometry the filter ran under.
    pub l2: CacheConfig,
    /// Thread count (drives the cycle-compression carry).
    pub threads: usize,
}

impl FilterKey {
    /// The key a workload resolves to under a system configuration.
    pub fn new(params: KernelParams, cfg: &SystemConfig) -> Self {
        FilterKey { params, l1: cfg.l1, l2: cfg.l2, threads: cfg.threads.max(1) }
    }
}

/// Memo slot table: each key owns a `OnceLock` so concurrent requesters
/// block on the same in-flight build instead of duplicating it.
type SlotMap<K, V> = Mutex<BTreeMap<K, Arc<OnceLock<Arc<V>>>>>;

/// Shared, lazily-built memo of cache-filtered [`MissStream`]s keyed by
/// [`FilterKey`], so campaigns replay only the DRAM-visible miss tail per
/// (kernel × policy) grid cell, and of [`PhaseSample`]s keyed by that and
/// the [`SimPointConfig`], all a sampled cell replays — plus a memo of
/// packed traces keyed by kernel + scale, which only [`TraceCache::get`]'s
/// own callers fill.
#[derive(Debug, Default)]
pub struct TraceCache {
    // Ordered maps so diagnostics that walk the cache (`resident_bytes`,
    // future dump/report paths) visit workloads deterministically.
    slots: SlotMap<KernelParams, PackedTrace>,
    miss_slots: SlotMap<FilterKey, MissStream>,
    simpoint_slots: SlotMap<(FilterKey, SimPointConfig), PhaseSample>,
    hits: AtomicU64,
    builds: AtomicU64,
    miss_hits: AtomicU64,
    miss_builds: AtomicU64,
    simpoint_hits: AtomicU64,
    simpoint_builds: AtomicU64,
    /// Optional on-disk artifact tier: memo misses try the store before
    /// generating, and generated artifacts are persisted best-effort.
    store: Mutex<Option<Arc<ArtifactStore>>>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// The process-wide cache shared by default by every campaign.
    pub fn global() -> &'static TraceCache {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(TraceCache::new)
    }

    /// An empty cache whose misses fall through to (and populate) an
    /// on-disk [`ArtifactStore`]: a warm store makes a fresh process
    /// skip trace generation and cache filtering entirely.
    pub fn with_store(store: Arc<ArtifactStore>) -> Self {
        let cache = TraceCache::new();
        cache.attach_store(store);
        cache
    }

    /// Attach (or replace) the on-disk artifact tier. Entries already
    /// memoized in memory are unaffected; future memo misses consult the
    /// store first.
    pub fn attach_store(&self, store: Arc<ArtifactStore>) {
        *self.store.lock().unwrap_or_else(|e| e.into_inner()) = Some(store);
    }

    /// The attached artifact store, if any.
    pub fn store(&self) -> Option<Arc<ArtifactStore>> {
        self.store.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Counter snapshot of the attached store (zeros when none is).
    pub fn store_metrics(&self) -> StoreMetrics {
        self.store().map(|s| s.metrics()).unwrap_or_default()
    }

    /// The ladder every memo level climbs: look the key's slot up under
    /// the map lock; serve a filled slot as a hit; otherwise initialise it
    /// — from the attached store when it has the blob, else by counting a
    /// build, building and persisting best-effort — while concurrent
    /// requesters of the same key block on the slot and count as hits.
    #[expect(
        clippy::too_many_arguments,
        reason = "every memo level passes its own slots, counters and closures"
    )]
    fn memo<K: Ord, V>(
        &self,
        slots: &SlotMap<K, V>,
        hits: &AtomicU64,
        builds: &AtomicU64,
        key: K,
        load: impl FnOnce(&ArtifactStore) -> Option<V>,
        build: impl FnOnce() -> V,
        save: impl FnOnce(&ArtifactStore, &V) -> Result<(), StoreError>,
    ) -> Arc<V> {
        let slot = {
            let mut slots = slots.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(slots.entry(key).or_default())
        };
        if let Some(value) = slot.get() {
            hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(value);
        }
        let mut built_here = false;
        let value = slot.get_or_init(|| {
            built_here = true;
            if let Some(value) = self.store().and_then(|store| load(&store)) {
                // Disk hit: nothing was generated, so the build counter
                // stays put (the store counts its own hits).
                return Arc::new(value);
            }
            builds.fetch_add(1, Ordering::Relaxed);
            let value = Arc::new(build());
            if let Some(store) = self.store() {
                // Best-effort persist: the in-memory artifact serves the
                // process either way. The store counts a failed write, so
                // that a campaign over a full or read-only store says so.
                let _ = save(&store, &value);
            }
            value
        });
        if !built_here {
            // Lost the build race (or arrived between the fast-path check
            // and `get_or_init`): this lookup was served from cache.
            hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(value)
    }

    /// The packed trace for a workload: loaded from the store's `.trace`
    /// blob or generated on first request, shared (same allocation,
    /// pointer-equal `Arc`) on every subsequent one. Replay it with
    /// [`PackedTrace::replay`]. Nothing else fills or reads this memo —
    /// [`TraceCache::get_filtered`] never holds a trace — so a packed trace
    /// is resident only for a caller that asked for one here.
    pub fn get(&self, params: KernelParams) -> Arc<PackedTrace> {
        self.memo(
            &self.slots,
            &self.hits,
            &self.builds,
            params,
            |store| store.load_trace(params),
            || params.build_packed(),
            |store, t| store.save_trace(params, t),
        )
    }

    /// The cache-filtered miss stream for a workload under a system
    /// configuration's cache geometry and thread count: filtered on first
    /// request, shared (pointer-equal `Arc`) on every subsequent one.
    /// A disk hit on this tier runs neither the cache filter nor the
    /// trace generation beneath it. Replay the stream with
    /// [`crate::system::Machine::simulate`].
    ///
    /// A filter pass walks a `.trace` blob the store holds, if it holds
    /// one; otherwise it generates the workload straight into the L1 → L2
    /// walker and counts a build ([`TraceCache::builds`]). No packed trace
    /// is built without a store; with one, the generation also feeds a
    /// packed builder whose trace is saved as a `.trace` blob and dropped.
    /// Either way no trace outlives the call, and [`TraceCache::get`]'s
    /// memo is neither read nor filled.
    ///
    /// Config variants differing only in DRAM organization, timing,
    /// energy or `stall_factor` — everything the cache hierarchy cannot
    /// see — resolve to the same [`FilterKey`] and share one stream.
    pub fn get_filtered(&self, params: KernelParams, cfg: &SystemConfig) -> Arc<MissStream> {
        let key = FilterKey::new(params, cfg);
        self.memo(
            &self.miss_slots,
            &self.miss_hits,
            &self.miss_builds,
            key,
            |store| store.load_miss(&key),
            || self.filter(&key),
            |store, ms| store.save_miss(&key, ms),
        )
    }

    /// One filter pass for `key` (see [`TraceCache::get_filtered`]).
    fn filter(&self, key: &FilterKey) -> MissStream {
        let (params, l1, l2, threads) = (key.params, key.l1, key.l2, key.threads);
        let store = self.store();
        if let Some(trace) = store.as_ref().and_then(|store| store.load_trace(params)) {
            return MissStream::build(&mut Arc::new(trace).replay(), l1, l2, threads);
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        let regions = params.regions();
        let Some(store) = store else {
            return MissStream::filter(&regions, l1, l2, threads, |walker| {
                params.emit_into(walker)
            });
        };
        let mut packed = PackedBuilder::new(regions.clone());
        let ms = MissStream::filter(&regions, l1, l2, threads, |walker| {
            params.emit_into(&mut Tee(walker, &mut packed))
        });
        // Best-effort, as every persist (the store counts a failure): the
        // stream serves the process.
        let _ = store.save_trace(params, &packed.finish());
        ms
    }

    /// The phase sample for a workload under a system configuration's
    /// filter geometry and a sampling configuration — everything a
    /// sampled cell replays ([`crate::system::SimInput::Sample`]). First
    /// request: loaded from the store's `.simpoint` blob when there is one,
    /// and then the miss stream is never touched; otherwise the stream
    /// ([`TraceCache::get_filtered`]) is sliced, fingerprinted and
    /// clustered, the representative slices are copied out of it, and the
    /// pair is persisted. Shared (pointer-equal `Arc`) on every later one.
    pub fn get_sampled(
        &self,
        params: KernelParams,
        cfg: &SystemConfig,
        sp: &SimPointConfig,
    ) -> Arc<PhaseSample> {
        let key = FilterKey::new(params, cfg);
        self.memo(
            &self.simpoint_slots,
            &self.simpoint_hits,
            &self.simpoint_builds,
            (key, *sp),
            |store| store.load_sample(&key, sp),
            || {
                let ms = self.get_filtered(params, cfg);
                let selection = Arc::new(SimPointSelection::build(&ms, *sp));
                PhaseSample::condense(&ms, selection)
            },
            |store, sample| store.save_simpoint(&key, sp, sample),
        )
    }

    /// The phase selection of [`TraceCache::get_sampled`]'s sample (one
    /// lookup of it). Its cursors point into the full stream, so it pairs
    /// with [`TraceCache::get_filtered`] for
    /// [`crate::system::SimRequest::sampled`].
    pub fn get_simpoints(
        &self,
        params: KernelParams,
        cfg: &SystemConfig,
        sp: &SimPointConfig,
    ) -> Arc<SimPointSelection> {
        Arc::clone(self.get_sampled(params, cfg, sp).selection())
    }

    /// [`TraceCache::get`] lookups served from its memo (a filter pass
    /// never makes one, so a campaign adds none).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Workloads actually generated: one per filter pass that generates
    /// (into the walker, or the walker and a packed builder) and one per
    /// [`TraceCache::get`] memo miss the store does not serve.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Number of distinct workloads in [`TraceCache::get`]'s memo.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when [`TraceCache::get`] has memoized no trace.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Miss-stream lookups served without running the cache filter.
    pub fn miss_hits(&self) -> u64 {
        self.miss_hits.load(Ordering::Relaxed)
    }

    /// Miss streams actually filtered.
    pub fn miss_builds(&self) -> u64 {
        self.miss_builds.load(Ordering::Relaxed)
    }

    /// Phase-selection lookups served without slicing or clustering.
    pub fn simpoint_hits(&self) -> u64 {
        self.simpoint_hits.load(Ordering::Relaxed)
    }

    /// Phase selections actually built (sliced + clustered).
    pub fn simpoint_builds(&self) -> u64 {
        self.simpoint_builds.load(Ordering::Relaxed)
    }

    /// Total bytes resident in packed traces [`TraceCache::get`] memoized:
    /// 0 unless something called it, since a filter pass holds no trace.
    pub fn resident_bytes(&self) -> u64 {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.values().filter_map(|s| s.get()).map(|t| t.packed_bytes()).sum()
    }

    /// Total bytes resident in cached miss-event records: whole miss
    /// streams, and the slices of phase samples.
    pub fn miss_resident_bytes(&self) -> u64 {
        let streams: u64 = {
            let slots = self.miss_slots.lock().unwrap_or_else(|e| e.into_inner());
            slots.values().filter_map(|s| s.get()).map(|m| m.packed_bytes()).sum()
        };
        let slots = self.simpoint_slots.lock().unwrap_or_else(|e| e.into_inner());
        streams + slots.values().filter_map(|s| s.get()).map(|p| p.packed_bytes()).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{CgParams, DgemmParams};

    fn tiny_dgemm() -> KernelParams {
        KernelParams::Dgemm(DgemmParams { n: 128, nb: 64, abft: true, verify_interval: 2 })
    }

    #[test]
    fn repeat_lookups_are_pointer_equal_and_counted() {
        let cache = TraceCache::new();
        let a = cache.get(tiny_dgemm());
        let b = cache.get(tiny_dgemm());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.resident_bytes() > 0);
        assert_eq!(cache.resident_bytes(), a.packed_bytes());
    }

    #[test]
    fn distinct_scales_get_distinct_traces() {
        let cache = TraceCache::new();
        let small = cache.get(tiny_dgemm());
        let large = cache.get(KernelParams::Dgemm(DgemmParams {
            n: 256,
            nb: 64,
            abft: true,
            verify_interval: 2,
        }));
        assert!(!Arc::ptr_eq(&small, &large));
        assert!(large.len() > small.len());
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn cached_trace_matches_the_generator() {
        use crate::trace::Trace;
        let cache = TraceCache::new();
        let packed = cache.get(tiny_dgemm());
        let direct = Trace::from_source(&mut tiny_dgemm().stream());
        assert_eq!(packed.len(), direct.len() as u64);
        assert_eq!(packed.instructions(), direct.instructions);
        assert_eq!(Trace::from_source(&mut packed.replay()).accesses, direct.accesses);
    }

    #[test]
    fn filtered_lookups_share_one_stream_across_policy_variants() {
        let cache = TraceCache::new();
        let base = SystemConfig::default();
        // A stall-factor variant is invisible to the cache hierarchy and
        // must resolve to the same filtered stream.
        let variant = SystemConfig { stall_factor: base.stall_factor * 2.0, ..base.clone() };
        let a = cache.get_filtered(tiny_dgemm(), &base);
        let b = cache.get_filtered(tiny_dgemm(), &variant);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.miss_builds(), 1);
        assert_eq!(cache.miss_hits(), 1);
        // The filter generated the workload into the walker and kept no
        // trace of it.
        assert_eq!(cache.builds(), 1);
        assert_eq!((cache.len(), cache.resident_bytes()), (0, 0));
        assert!(cache.miss_resident_bytes() > 0);
        assert_eq!(cache.miss_resident_bytes(), a.packed_bytes());
        assert!(a.matches(&base.l1, &base.l2, base.threads));
    }

    #[test]
    fn distinct_geometry_filters_separately() {
        let cache = TraceCache::new();
        let base = SystemConfig::default();
        let mut half_l2 = base.clone();
        half_l2.l2.capacity /= 2;
        let a = cache.get_filtered(tiny_dgemm(), &base);
        let b = cache.get_filtered(tiny_dgemm(), &half_l2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.miss_builds(), 2);
        // No trace is held between the two filter passes: each generates.
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.hits(), 0);
        assert!(cache.is_empty());
    }

    /// The four kernels at small scale.
    fn small_kernels() -> [KernelParams; 4] {
        use crate::workloads::{CholeskyParams, HplParams};
        [
            DgemmParams { n: 192, nb: 64, abft: true, verify_interval: 2 }.into(),
            CholeskyParams { n: 192, nb: 64, abft: true }.into(),
            CgParams { grid: 48, iterations: 2, abft: true, verify_interval: 2 }.into(),
            HplParams { n: 192, nb: 64, abft: true }.into(),
        ]
    }

    #[test]
    fn the_generator_fed_walk_and_the_pulled_walk_produce_one_stream() {
        let dir = std::env::temp_dir().join(format!("abft-two-entries-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let table3 = SystemConfig::default();
        let small_l2 =
            SystemConfig { l2: CacheConfig { capacity: 64 * 1024, ..table3.l2 }, ..table3.clone() };
        for params in small_kernels() {
            let packed = Arc::new(params.build_packed());
            for geometry in [&table3, &small_l2] {
                for threads in [1, 3, 4] {
                    let cfg = SystemConfig { threads, ..geometry.clone() };
                    let what = format!("{} under {:?}, {threads} threads", params.label(), cfg.l2);
                    let (l1, l2) = (cfg.l1, cfg.l2);
                    let pulled = MissStream::build(&mut packed.replay(), l1, l2, threads);
                    let pushed = TraceCache::new().get_filtered(params, &cfg);
                    assert!(pulled.events() > 0, "{what}: no event");
                    assert_eq!(pushed.totals(), pulled.totals(), "{what}: totals");
                    assert!(pushed.raw_words() == pulled.raw_words(), "{what}: records");

                    // With a store the same generation also packs the trace.
                    let _ = std::fs::remove_file(store.trace_path(params));
                    let cache = TraceCache::with_store(Arc::clone(&store));
                    let teed = cache.get_filtered(params, &cfg);
                    assert_eq!(teed.totals(), pulled.totals(), "{what}: totals, teed");
                    assert!(teed.raw_words() == pulled.raw_words(), "{what}: records, teed");
                    assert_eq!((cache.builds(), cache.resident_bytes()), (1, 0), "{what}");
                    let saved = store.load_trace(params).expect("the tee's trace was saved");
                    assert!(saved.words().eq(packed.words()), "{what}: the tee's trace");
                    assert_eq!(
                        (saved.len(), saved.instructions()),
                        (packed.len(), packed.instructions())
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stored_trace_without_its_stream_is_walked_not_regenerated() {
        let dir = std::env::temp_dir().join(format!("abft-trace-only-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let cfg = SystemConfig::default();
        let cold = TraceCache::with_store(Arc::clone(&store));
        let built = cold.get_filtered(tiny_dgemm(), &cfg);
        assert_eq!((cold.builds(), store.metrics().writes), (1, 2));

        // The `.miss` blob alone goes: the `.trace` beside it is walked.
        std::fs::remove_file(store.miss_path(&FilterKey::new(tiny_dgemm(), &cfg))).unwrap();
        let warm = TraceCache::with_store(Arc::clone(&store));
        let walked = warm.get_filtered(tiny_dgemm(), &cfg);
        assert_eq!((warm.builds(), warm.miss_builds(), warm.resident_bytes()), (0, 1, 0));
        assert_eq!(walked.totals(), built.totals());
        assert!(walked.raw_words() == built.raw_words());
        let m = store.metrics();
        assert_eq!((m.hits, m.writes), (1, 3), "the trace loaded, the stream written again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simpoint_selections_memoize_and_persist() {
        let dir =
            std::env::temp_dir().join(format!("abft-simpoint-cache-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let cache = TraceCache::with_store(Arc::clone(&store));
        let cfg = SystemConfig::default();
        let sp = SimPointConfig { interval: 2048, max_phases: 4, ..Default::default() };
        let a = cache.get_simpoints(tiny_dgemm(), &cfg, &sp);
        let b = cache.get_simpoints(tiny_dgemm(), &cfg, &sp);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.simpoint_builds(), 1);
        assert_eq!(cache.simpoint_hits(), 1);
        // A second sampling config is a distinct memo entry.
        let sp2 = SimPointConfig { interval: 4096, ..sp };
        let c = cache.get_simpoints(tiny_dgemm(), &cfg, &sp2);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.simpoint_builds(), 2);
        // A fresh cache over the same warm store loads the selection from
        // disk without slicing or clustering.
        let warm = TraceCache::with_store(Arc::clone(&store));
        let d = warm.get_simpoints(tiny_dgemm(), &cfg, &sp);
        assert_eq!(warm.simpoint_builds(), 0);
        assert_eq!(*d, *a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_warm_sample_lookup_reads_no_trace_and_no_miss_stream() {
        let dir =
            std::env::temp_dir().join(format!("abft-sample-cache-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let cfg = SystemConfig::default();
        let sp = SimPointConfig { interval: 512, max_phases: 3, strata: 2, ..Default::default() };
        let cold = TraceCache::with_store(Arc::clone(&store));
        let built = cold.get_sampled(tiny_dgemm(), &cfg, &sp);
        assert_eq!((cold.builds(), cold.miss_builds(), cold.simpoint_builds()), (1, 1, 1));
        assert_eq!(store.metrics().writes, 3);
        // One lookup, whichever way the sample is asked for.
        assert!(Arc::ptr_eq(&cold.get_simpoints(tiny_dgemm(), &cfg, &sp), built.selection()));
        assert_eq!(cold.simpoint_hits(), 1);
        let stream = cold.get_filtered(tiny_dgemm(), &cfg);
        assert_eq!(cold.miss_resident_bytes(), stream.packed_bytes() + built.packed_bytes());

        // With the other two blobs gone a fresh cache still serves the
        // sample, and holds nothing else.
        std::fs::remove_file(store.trace_path(tiny_dgemm())).unwrap();
        std::fs::remove_file(store.miss_path(&FilterKey::new(tiny_dgemm(), &cfg))).unwrap();
        let before = store.metrics();
        let warm = TraceCache::with_store(Arc::clone(&store));
        let loaded = warm.get_sampled(tiny_dgemm(), &cfg, &sp);
        assert_eq!(*loaded, *built);
        assert_eq!((warm.builds(), warm.miss_builds(), warm.simpoint_builds()), (0, 0, 0));
        let m = store.metrics().since(&before);
        assert_eq!((m.hits, m.misses, m.writes), (1, 0, 0));
        assert_eq!(warm.resident_bytes(), 0);
        assert_eq!(warm.miss_resident_bytes(), loaded.packed_bytes());
        assert!(loaded.packed_bytes() > 0 && loaded.packed_bytes() < stream.packed_bytes() / 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_blob_write_is_counted_and_the_artifact_still_served() {
        let dir =
            std::env::temp_dir().join(format!("abft-write-failure-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        // The store's directory becomes a file: every write under it fails.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        let cache = TraceCache::with_store(Arc::clone(&store));
        let packed = cache.get(tiny_dgemm());
        assert!(!packed.is_empty());
        assert_eq!(cache.builds(), 1);
        let m = store.metrics();
        assert_eq!((m.write_failures, m.writes), (1, 0));
        assert_eq!(m.since(&StoreMetrics::default()).write_failures, 1);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn concurrent_lookups_build_once() {
        let cache = TraceCache::new();
        let key =
            KernelParams::Cg(CgParams { grid: 64, iterations: 2, abft: true, verify_interval: 2 });
        let traces: Vec<Arc<PackedTrace>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| cache.get(key))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 7);
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t));
        }
    }
}
