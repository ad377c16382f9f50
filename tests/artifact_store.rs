//! Artifact-store integration: cross-cache round trips with
//! bit-identical `SimStats`, crash-safety against truncated and
//! corrupted blobs, and the client facade's store plumbing.
//!
//! Every test uses a fresh `TraceCache` per phase — the in-memory memo
//! never carries state across phases, so anything the second phase
//! skips regenerating was genuinely served from disk (the in-process
//! stand-in for a fresh process; `store_gate` in `scripts/ci.sh`
//! re-proves the same property across real processes).

use abft_coop_core::{CampaignClient, CampaignSpec, Strategy};
use abft_memsim::workloads::{CgParams, CholeskyParams, DgemmParams, HplParams, KernelParams};
use abft_memsim::{ArtifactStore, TraceCache};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("abft-it-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny() -> KernelParams {
    KernelParams::Dgemm(DgemmParams { n: 128, nb: 64, abft: true, verify_interval: 2 })
}

fn spec_with_store(dir: &std::path::Path) -> CampaignSpec {
    CampaignSpec::builder()
        .workload(tiny())
        .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
        .threads(1)
        .store(dir)
        .build()
}

#[test]
fn warm_disk_grid_is_bit_identical_with_zero_regenerations() {
    let dir = temp_store("roundtrip");

    let cold = CampaignClient::with_cache(Arc::new(TraceCache::new())).run(&spec_with_store(&dir));
    assert_eq!(cold.metrics.cache_builds, 1);
    assert_eq!(cold.metrics.filter_builds, 1);
    assert!(cold.metrics.store_writes >= 2, "trace + miss blobs persisted");

    let warm = CampaignClient::with_cache(Arc::new(TraceCache::new())).run(&spec_with_store(&dir));
    assert_eq!(warm.metrics.cache_builds, 0, "trace must load from disk, not regenerate");
    assert_eq!(warm.metrics.filter_builds, 0, "miss stream must load from disk, not refilter");
    assert_eq!(warm.metrics.store_misses, 0);
    assert!(warm.metrics.store_hits >= 1);

    assert_eq!(cold.results.len(), warm.results.len());
    for (a, b) in cold.results.iter().zip(&warm.results) {
        assert_eq!(
            a.stats,
            b.stats,
            "{}/{}: warm-disk stats must be bit-identical",
            a.kernel.label(),
            a.strategy.label()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a cold grid over an empty store must do — the counters perfbench's
/// `grid_cold` pins — and a warm one must not.
#[test]
fn a_cold_grid_generates_and_persists_each_kernel_once_and_holds_no_trace() {
    let dir = temp_store("counters");
    let kernels: [KernelParams; 4] = [
        tiny(),
        CholeskyParams { n: 128, nb: 64, abft: true }.into(),
        CgParams { grid: 32, iterations: 2, abft: true, verify_interval: 2 }.into(),
        HplParams { n: 128, nb: 64, abft: true }.into(),
    ];
    let spec = CampaignSpec::builder()
        .workloads(kernels)
        .strategy(Strategy::PartialChipkillSecded)
        .threads(1)
        .store(&dir)
        .build();

    let cache = Arc::new(TraceCache::new());
    let cold = CampaignClient::with_cache(Arc::clone(&cache)).run(&spec);
    let m = &cold.metrics;
    assert_eq!((m.cache_builds, m.filter_builds), (4, 4), "one build, one filter per kernel");
    assert_eq!((m.store_writes, m.write_failures), (8, 0), "a .trace and a .miss per kernel");
    assert_eq!(m.cache_hits, 0, "a campaign never looks a trace up");
    assert_eq!((cache.len(), cache.resident_bytes()), (0, 0), "no packed trace is held");

    let warm = CampaignClient::with_cache(Arc::new(TraceCache::new())).run(&spec);
    let m = &warm.metrics;
    assert_eq!((m.cache_builds, m.filter_builds, m.store_writes), (0, 0, 0));
    assert_eq!((m.store_hits, m.store_misses), (4, 0), "the .miss blobs and nothing else");
    for (a, b) in cold.results.iter().zip(&warm.results) {
        assert_eq!(a.stats, b.stats, "{}: warm-disk stats must be bit-identical", a.kernel.label());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_blobs_are_evicted_and_regenerated() {
    let dir = temp_store("truncate");
    let params =
        KernelParams::Cg(CgParams { grid: 96, iterations: 2, abft: true, verify_interval: 2 });

    let cold_cache = TraceCache::new();
    cold_cache.attach_store(Arc::new(ArtifactStore::open(&dir).expect("open store")));
    let reference = cold_cache.get(params);

    // Crash mid-write stand-in: chop every stored blob in half.
    let mut mutilated = 0;
    for entry in std::fs::read_dir(&dir).expect("store dir") {
        let path = entry.expect("dir entry").path();
        let blob = std::fs::read(&path).expect("read blob");
        std::fs::write(&path, &blob[..blob.len() / 2]).expect("truncate blob");
        mutilated += 1;
    }
    assert!(mutilated >= 1, "cold run must have persisted blobs");

    let warm_cache = TraceCache::new();
    let store = Arc::new(ArtifactStore::open(&dir).expect("open store"));
    warm_cache.attach_store(Arc::clone(&store));
    let regenerated = warm_cache.get(params);
    assert_eq!(warm_cache.builds(), 1, "truncated blob must force regeneration");
    let m = store.metrics();
    assert!(m.evictions >= 1, "truncated blob must be evicted, not trusted");
    assert_eq!(reference.len(), regenerated.len());
    assert_eq!(reference.instructions(), regenerated.instructions());

    // The regeneration rewrote the blob; a third cache now loads clean.
    let third = TraceCache::with_store(Arc::new(ArtifactStore::open(&dir).expect("open store")));
    let reloaded = third.get(params);
    assert_eq!(third.builds(), 0, "rewritten blob must load");
    assert_eq!(reloaded.len(), reference.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_payload_bytes_fail_the_checksum_and_regenerate() {
    let dir = temp_store("corrupt");
    let cold = CampaignClient::with_cache(Arc::new(TraceCache::new())).run(&spec_with_store(&dir));

    // Flip one byte in the middle of every blob.
    for entry in std::fs::read_dir(&dir).expect("store dir") {
        let path = entry.expect("dir entry").path();
        let mut blob = std::fs::read(&path).expect("read blob");
        let mid = blob.len() / 2;
        blob[mid] ^= 0x40;
        std::fs::write(&path, &blob).expect("rewrite blob");
    }

    let warm = CampaignClient::with_cache(Arc::new(TraceCache::new())).run(&spec_with_store(&dir));
    assert_eq!(warm.metrics.store_hits, 0, "no corrupt blob may be trusted");
    assert!(warm.metrics.store_evictions >= 1);
    assert_eq!(warm.metrics.cache_builds, 1, "grid must regenerate and still succeed");
    for (a, b) in cold.results.iter().zip(&warm.results) {
        assert_eq!(a.stats, b.stats, "regenerated stats must match the original run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
