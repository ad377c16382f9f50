//! The phase-sampling contract: replaying only the weighted
//! representative slices of a miss stream (SimPoint-style) must land
//! within a small, stated error of the exact filtered replay — for every
//! kernel and every ECC strategy — while the unified `SimRequest` entry
//! point stays bit-identical across its dispatch paths (the
//! monomorphized default policy vs an equivalent `dyn` policy) on the
//! exact paths.

use abft_coop::abft_ecc::EccScheme;
use abft_coop::abft_memsim::dram::AccessKind;
use abft_coop::abft_memsim::system::Machine;
use abft_coop::abft_memsim::workloads::{CholeskyParams, HplParams};
use abft_coop::abft_memsim::{
    ArtifactStore, EccAssignment, FilterKey, MemoryController, MissStream, PhaseSample, RegionMap,
    SimPointSelection, Trace,
};
use abft_coop::prelude::Strategy;
use abft_coop::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn small_grid() -> Vec<KernelParams> {
    vec![
        KernelParams::Dgemm(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 }),
        KernelParams::Cholesky(CholeskyParams { n: 256, nb: 64, abft: true }),
        KernelParams::Cg(CgParams { grid: 96, iterations: 3, abft: true, verify_interval: 2 }),
        KernelParams::Hpl(HplParams { n: 256, nb: 64, abft: true }),
    ]
}

fn filter(packed: &Arc<PackedTrace>, cfg: &SystemConfig) -> MissStream {
    MissStream::build(&mut packed.replay(), cfg.l1, cfg.l2, cfg.threads)
}

/// Small-n sampling config: slices short enough that every kernel in the
/// grid yields a meaningful number of them, phase budget small enough
/// that clustering actually compresses.
fn sampling() -> SimPointConfig {
    SimPointConfig { interval: 4096, max_phases: 8, ..SimPointConfig::default() }
}

fn rel_err(sampled: f64, exact: f64) -> f64 {
    if exact == 0.0 {
        sampled.abs()
    } else {
        (sampled - exact).abs() / exact.abs()
    }
}

#[test]
fn sampled_replay_tracks_exact_replay_for_every_kernel_and_strategy() {
    let cfg = SystemConfig::default();
    for params in small_grid() {
        let packed = Arc::new(params.build_packed());
        let ms = filter(&packed, &cfg);
        let sel = SimPointSelection::build(&ms, sampling());
        assert!(
            (sel.clusters() as u64) < sel.slices() || sel.slices() <= sampling().max_phases as u64,
            "{}: clustering must compress ({} phases / {} slices)",
            params.label(),
            sel.clusters(),
            sel.slices()
        );
        for s in Strategy::ALL {
            let exact = run_cell(SimInput::MissStream(&ms), &cfg, s);
            let sampled =
                run_cell(SimInput::SampledMissStream { stream: &ms, selection: &sel }, &cfg, s);
            let tag = format!("{} / {}", params.label(), s.label());

            // The paper-facing quantities: time and energy, within 2%.
            assert!(
                rel_err(sampled.cycles as f64, exact.cycles as f64) <= 0.02,
                "{tag}: cycles {} vs {}",
                sampled.cycles,
                exact.cycles
            );
            assert!(
                rel_err(sampled.mem_dynamic_j(), exact.mem_dynamic_j()) <= 0.02,
                "{tag}: dynamic J {} vs {}",
                sampled.mem_dynamic_j(),
                exact.mem_dynamic_j()
            );
            assert!(
                rel_err(sampled.mem_total_j(), exact.mem_total_j()) <= 0.02,
                "{tag}: total J {} vs {}",
                sampled.mem_total_j(),
                exact.mem_total_j()
            );

            // DRAM traffic estimates, within 2%.
            assert!(
                rel_err(sampled.dram_reads as f64, exact.dram_reads as f64) <= 0.02,
                "{tag}: reads {} vs {}",
                sampled.dram_reads,
                exact.dram_reads
            );
            assert!(
                rel_err(sampled.dram_writes as f64, exact.dram_writes as f64) <= 0.02,
                "{tag}: writes {} vs {}",
                sampled.dram_writes,
                exact.dram_writes
            );
            let scheme_sum: u64 = sampled.per_scheme.iter().sum();
            assert!(
                rel_err(scheme_sum as f64, (exact.dram_reads + exact.dram_writes) as f64) <= 0.02,
                "{tag}: per-scheme sum {scheme_sum}"
            );

            // Stream-derived counters are exact, not estimated.
            assert_eq!(sampled.instructions, exact.instructions, "{tag}");
            assert_eq!(sampled.l1_hit_rate.to_bits(), exact.l1_hit_rate.to_bits(), "{tag}");
            assert_eq!(sampled.l2_hit_rate.to_bits(), exact.l2_hit_rate.to_bits(), "{tag}");

            // The selection's own error estimate is an honest budget.
            assert!(sel.est_error() >= 0.0 && sel.est_error() <= 1.0, "{tag}");
        }
    }
}

#[test]
fn a_phase_sample_replays_bit_for_bit_like_the_full_stream() {
    // The sample holds only the representative slices' records, yet every
    // statistic — estimated or exact — must equal what the selection
    // replays out of the whole stream: condensed in memory, and again
    // after a trip through the store.
    let cfg = SystemConfig::default();
    let dir = std::env::temp_dir().join(format!("abft-it-sample-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("open store");
    // Finer than `sampling()`: on the smallest kernel that keeps every
    // slice, and a sample that is the whole stream proves little.
    let sp = SimPointConfig { interval: 512, max_phases: 4, strata: 2, ..sampling() };
    for params in small_grid() {
        let packed = Arc::new(params.build_packed());
        let ms = filter(&packed, &cfg);
        let sel = Arc::new(SimPointSelection::build(&ms, sp));
        let sample = PhaseSample::condense(&ms, Arc::clone(&sel));
        assert!(
            sample.packed_bytes() < ms.packed_bytes(),
            "{}: {} phases of {} slices are not the stream",
            params.label(),
            sel.phases().len(),
            sel.slices()
        );
        let key = FilterKey::new(params, &cfg);
        store.save_simpoint(&key, &sp, &sample).expect("save sample");
        let loaded = store.load_sample(&key, &sp).expect("the blob just written loads");
        assert_eq!(loaded, sample, "{}", params.label());
        for s in Strategy::ALL {
            let full =
                run_cell(SimInput::SampledMissStream { stream: &ms, selection: &sel }, &cfg, s);
            let tag = format!("{} / {}", params.label(), s.label());
            assert_eq!(run_cell(SimInput::Sample(&sample), &cfg, s), full, "{tag}: in memory");
            assert_eq!(run_cell(SimInput::Sample(&loaded), &cfg, s), full, "{tag}: from the store");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturated_phase_budget_reproduces_exact_dram_counts() {
    // One phase per slice (k == slices): every event replays with scale
    // 1, so integer DRAM counters must come out exact and the error
    // estimate must be zero.
    let cfg = SystemConfig::default();
    let params =
        KernelParams::Dgemm(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 });
    let packed = Arc::new(params.build_packed());
    let ms = filter(&packed, &cfg);
    let sp = SimPointConfig { interval: 4096, max_phases: usize::MAX, ..SimPointConfig::default() };
    let sel = SimPointSelection::build(&ms, sp);
    assert_eq!(sel.clusters() as u64, sel.slices());
    assert_eq!(sel.replayed_events(), ms.events());
    assert_eq!(sel.est_error(), 0.0);
    let exact = run_cell(SimInput::MissStream(&ms), &cfg, Strategy::PartialChipkillSecded);
    let sampled = run_cell(
        SimInput::SampledMissStream { stream: &ms, selection: &sel },
        &cfg,
        Strategy::PartialChipkillSecded,
    );
    assert_eq!(sampled.dram_reads, exact.dram_reads);
    assert_eq!(sampled.dram_writes, exact.dram_writes);
    assert_eq!(sampled.per_scheme, exact.per_scheme);
    assert_eq!(sampled.cycles, exact.cycles);
}

#[test]
fn selection_and_sampled_replay_are_deterministic() {
    let cfg = SystemConfig::default();
    let params =
        KernelParams::Cg(CgParams { grid: 96, iterations: 3, abft: true, verify_interval: 2 });
    let packed = Arc::new(params.build_packed());
    let ms = filter(&packed, &cfg);
    let a = SimPointSelection::build(&ms, sampling());
    let b = SimPointSelection::build(&ms, sampling());
    assert_eq!(a, b, "same stream + same config must cluster identically");
    let s1 = run_cell(
        SimInput::SampledMissStream { stream: &ms, selection: &a },
        &cfg,
        Strategy::WholeChipkill,
    );
    let s2 = run_cell(
        SimInput::SampledMissStream { stream: &ms, selection: &b },
        &cfg,
        Strategy::WholeChipkill,
    );
    assert_eq!(s1, s2, "sampled replay is deterministic");
    // A different seed may pick different representatives...
    let other = SimPointSelection::build(&ms, SimPointConfig { seed: 1234, ..sampling() });
    // ...but still a valid selection over the same stream.
    assert!(other.matches(&ms));
    assert_eq!(other.slices(), a.slices());
}

// ----- SimRequest dispatch bit-identity ------------------------------
//
// `Machine::simulate` monomorphizes the drive loops per policy type:
// with no policy the default range-register lookup inlines into the
// replay loop, with a caller policy the request keeps one `dyn` layer.
// These proofs pin the two dispatch paths to bit-identical behaviour —
// a hand-written policy that consults the programmed range registers
// must reproduce the default path exactly, on every input form.

/// A controller programmed from `assign` by hand: what `simulate` sets up
/// for itself when the request carries no policy.
fn programmed(cfg: &SystemConfig, regions: &RegionMap, assign: &EccAssignment) -> MemoryController {
    let mut m = Machine::new(cfg.clone());
    m.program_ecc(regions, assign);
    m.controller
}

/// The default protection policy, spelled as an explicit closure over a
/// controller the caller programmed: a plain register scan per request.
fn range_lookup_policy(mc: &MemoryController) -> impl FnMut(u64) -> AccessKind + '_ {
    |paddr| AccessKind::Scheme(mc.scheme_for(paddr))
}

#[test]
fn default_dispatch_is_bit_identical_to_a_dyn_range_lookup_policy() {
    let cfg = SystemConfig::default();
    let params =
        KernelParams::Dgemm(DgemmParams { n: 192, nb: 64, abft: true, verify_interval: 2 });
    let trace = Trace::from_source(&mut params.stream());
    let regions = abft_region_ids(&trace.regions);
    let m = Machine::new(cfg.clone());
    for s in [Strategy::WholeChipkill, Strategy::PartialChipkillSecded, Strategy::NoEcc] {
        let assign = s.assignment(&regions);
        // The dyn path programs nothing, so the equivalent policy scans a
        // controller programmed by hand.
        let mc = programmed(&cfg, &trace.regions, &assign);

        let fast = m.simulate(SimRequest::source(&mut trace.replay(), assign.clone()));
        let slow = m.simulate(
            SimRequest::source(&mut trace.replay(), assign.clone())
                .with_policy(&mut range_lookup_policy(&mc)),
        );
        assert_eq!(fast, slow, "trace path / {}", s.label());

        let fast_src = m.simulate(SimRequest::source(&mut params.stream(), assign.clone()));
        let slow_src = m.simulate(
            SimRequest::source(&mut params.stream(), assign.clone())
                .with_policy(&mut range_lookup_policy(&mc)),
        );
        assert_eq!(fast_src, slow_src, "source path / {}", s.label());
    }
}

#[test]
fn default_dispatch_matches_dyn_policy_on_the_miss_stream_path() {
    let cfg = SystemConfig::default();
    let params =
        KernelParams::Cg(CgParams { grid: 96, iterations: 2, abft: true, verify_interval: 2 });
    let packed = Arc::new(params.build_packed());
    let ms = filter(&packed, &cfg);
    let assign = EccAssignment::uniform(abft_coop::abft_ecc::EccScheme::Chipkill);
    let m = Machine::new(cfg.clone());
    let fast = m.simulate(SimRequest::miss_stream(&ms, assign.clone()));
    let mc = programmed(&cfg, ms.regions(), &assign);
    let slow = m.simulate(
        SimRequest::miss_stream(&ms, assign.clone()).with_policy(&mut range_lookup_policy(&mc)),
    );
    assert_eq!(fast, slow);
}

/// An address-keyed stateless policy: deterministic, and distinct from
/// anything the range registers could express, so the custom-policy code
/// path is genuinely exercised.
fn page_parity_policy(paddr: u64) -> AccessKind {
    if (paddr >> 12) & 1 == 0 {
        AccessKind::Scheme(EccScheme::Chipkill)
    } else {
        AccessKind::FineSecded
    }
}

#[test]
fn custom_policy_is_deterministic_and_identical_across_trace_and_source() {
    let cfg = SystemConfig::default();
    let params =
        KernelParams::Dgemm(DgemmParams { n: 192, nb: 64, abft: true, verify_interval: 2 });
    let trace = Trace::from_source(&mut params.stream());
    // Every request carries ECC under this policy, so the chips are powered.
    let assign = EccAssignment::uniform(EccScheme::Chipkill);

    // A materialized trace and the equivalent generator stream are the
    // same access sequence, so a stateless policy must produce
    // bit-identical stats on both.
    let mut p = page_parity_policy;
    let via_trace = Machine::new(cfg.clone())
        .simulate(SimRequest::source(&mut trace.replay(), assign.clone()).with_policy(&mut p));
    let mut p = page_parity_policy;
    let via_source = Machine::new(cfg.clone())
        .simulate(SimRequest::source(&mut params.stream(), assign.clone()).with_policy(&mut p));
    assert_eq!(via_trace, via_source, "trace vs source under one policy");

    // And the filtered-replay policy path is deterministic.
    let packed = Arc::new(params.build_packed());
    let ms = filter(&packed, &cfg);
    let run = |aa: &EccAssignment| {
        let mut p = page_parity_policy;
        Machine::new(cfg.clone())
            .simulate(SimRequest::miss_stream(&ms, aa.clone()).with_policy(&mut p))
    };
    assert_eq!(run(&assign), run(&assign), "miss-stream policy path is deterministic");
}

// ----- structural properties of the selection ------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn slices_tile_the_stream_and_weights_sum_to_one(
        interval_pow in 8u32..14,
        max_phases in 1usize..32,
        seed: u64,
    ) {
        let cfg = SystemConfig::default();
        let params = KernelParams::Dgemm(DgemmParams {
            n: 128, nb: 64, abft: true, verify_interval: 2,
        });
        let packed = Arc::new(params.build_packed());
        let ms = MissStream::build(&mut packed.replay(), cfg.l1, cfg.l2, cfg.threads);
        let interval = 1u64 << interval_pow;
        let sel = SimPointSelection::build(&ms, SimPointConfig {
            interval, max_phases, seed, ..SimPointConfig::default()
        });

        // Slice arithmetic tiles the stream exactly.
        prop_assert_eq!(sel.events(), ms.events());
        prop_assert_eq!(sel.slices(), ms.events().div_ceil(interval));
        prop_assert_eq!(sel.assignments().len() as u64, sel.slices());

        // Every phase is one whole slice (the last may be short).
        let mut replayed = 0u64;
        for ph in sel.phases() {
            prop_assert_eq!(ph.start % interval, 0);
            prop_assert!(ph.end > ph.start);
            prop_assert!(ph.end <= sel.events());
            prop_assert!(ph.end - ph.start <= interval);
            prop_assert!(ph.weight > 0.0);
            replayed += ph.end - ph.start;
        }
        prop_assert_eq!(replayed, sel.replayed_events());

        // Cluster weights partition the event mass.
        let total: f64 = sel.phases().iter().map(|p| p.weight).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "weights sum to {}", total);
        prop_assert!(sel.clusters() as u64 <= (max_phases as u64).min(sel.slices()));
        // The replay budget: at most `strata` whole slices per cluster,
        // whatever the stream's length (31.2 M events at paper scale).
        prop_assert!(sel.phases().len() <= sel.clusters() * SimPointConfig::default().strata);

        // Per-slice fingerprints: equal dimensionality, event-rate
        // normalized (finite, non-negative).
        let dim = sel.fingerprint(0).len();
        for s in 0..sel.slices() as usize {
            let fp = sel.fingerprint(s);
            prop_assert_eq!(fp.len(), dim);
            prop_assert!(fp.iter().all(|v| v.is_finite() && *v >= 0.0));
        }
    }
}

/// Every selection and sample the grid builds under three sampling configs
/// passes its own check: a debug build asserts it where each is built, and
/// every build applies it when the store loads one back.
#[test]
fn selections_audit_clean() {
    let cfg = SystemConfig::default();
    let dir = std::env::temp_dir().join(format!("abft-it-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("open store");
    for params in small_grid() {
        let packed = Arc::new(params.build_packed());
        let ms = filter(&packed, &cfg);
        let key = FilterKey::new(params, &cfg);
        for sp in [
            sampling(),
            SimPointConfig::default(),
            SimPointConfig { interval: 1024, max_phases: 3, ..SimPointConfig::default() },
        ] {
            let sample = PhaseSample::condense(&ms, Arc::new(SimPointSelection::build(&ms, sp)));
            store.save_simpoint(&key, &sp, &sample).expect("save sample");
            let loaded = store.load_sample(&key, &sp);
            assert_eq!(loaded.as_ref(), Some(&sample), "{} under {sp:?}", params.label());
        }
    }
    assert_eq!(store.metrics().evictions, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
