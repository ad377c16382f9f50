//! Cross-crate integration: the six-strategy basic test on every kernel
//! (reduced dimensions) and the policy layer consuming measured profiles.

use abft_coop::abft_memsim::workloads::{CholeskyParams, HplParams};
use abft_coop::prelude::*;

fn small_cg() -> CgParams {
    CgParams { grid: 192, iterations: 4, abft: true, verify_interval: 2 }
}

fn small_tests() -> Vec<BasicTest> {
    // Reduced-dimension grid; traces come from the process-wide cache, so
    // the tests in this file share one generation per workload.
    let spec = CampaignSpec::builder()
        .workload(DgemmParams { n: 384, nb: 64, abft: true, verify_interval: 4 })
        .workload(CholeskyParams { n: 512, nb: 64, abft: true })
        .workload(small_cg())
        .workload(HplParams { n: 512, nb: 64, abft: true })
        .build();
    CampaignClient::local().run(&spec).basic_tests()
}

fn small_cg_test() -> BasicTest {
    let spec = CampaignSpec::builder().workload(small_cg()).build();
    CampaignClient::local().run(&spec).basic_test(KernelKind::Cg)
}

#[test]
fn strategy_ordering_invariants_hold_for_every_kernel() {
    for bt in small_tests() {
        let label = bt.kernel.label();
        // Energy ordering: No-ECC <= partials <= their whole baselines.
        for s in Strategy::PARTIAL {
            assert!(bt.mem_energy_norm(s) >= 1.0 - 1e-9, "{label}/{s}: cheaper than no-ECC?");
            assert!(bt.partial_mem_saving(s) > 0.0, "{label}/{s}: relaxing ECC must save energy");
        }
        // W_CK is the most expensive strategy everywhere.
        for s in Strategy::ALL {
            assert!(
                bt.mem_energy_norm(Strategy::WholeChipkill) >= bt.mem_energy_norm(s) - 1e-9,
                "{label}: {s} out-costs W_CK"
            );
        }
        // Performance: nothing beats No-ECC; partial >= whole per family.
        for s in Strategy::ALL {
            assert!(bt.ipc_norm(s) <= 1.0 + 1e-9, "{label}/{s}");
        }
        assert!(
            bt.ipc_norm(Strategy::PartialChipkillNoEcc)
                >= bt.ipc_norm(Strategy::WholeChipkill) - 1e-9,
            "{label}: relaxing chipkill cannot slow the machine"
        );
        // SECDED sits between none and chipkill in energy.
        assert!(
            bt.mem_energy_norm(Strategy::WholeSecded)
                <= bt.mem_energy_norm(Strategy::WholeChipkill) + 1e-9,
            "{label}"
        );
    }
}

#[test]
fn table4_ordering_holds_at_reduced_scale() {
    let tests = small_tests();
    let ratios: Vec<f64> =
        tests.iter().map(|bt| bt.row(Strategy::WholeChipkill).stats.abft_ref_ratio()).collect();
    // DGEMM has by far the largest ratio; CG by far the smallest.
    assert!(ratios[0] > 10.0 * ratios[2], "DGEMM {} vs CG {}", ratios[0], ratios[2]);
    assert!(ratios[1] > ratios[2], "Cholesky above CG");
    assert!(ratios[3] > ratios[2], "HPL above CG");
}

#[test]
fn measured_profiles_drive_the_policy_sensibly() {
    let bt = small_cg_test();
    let profiles = profiles_from_basic_test(&bt);
    assert_eq!(profiles.len(), 3);
    for p in &profiles {
        assert!(p.saved_watts >= 0.0);
        // Relaxing ECC cannot meaningfully slow the machine; tiny
        // inversions (<0.5%) can appear from request-interleaving noise
        // in the bank/row model.
        assert!(p.tau_ase >= p.tau_are - 5e-3, "strong ECC cannot be faster than relaxed: {:?}", p);
        let inputs = PolicyInputs {
            tau_ase: p.tau_ase,
            tau_are: p.tau_are,
            t_c_seconds: 0.8,
            e_c_joules: 120.0,
            p_ase_watts: 60.0,
            p_are_watts: 60.0 - p.saved_watts,
        };
        // Desktop-scale MTTF (hours): ARE must win whenever the strategy
        // shows both a real energy saving and a real performance gain.
        // (Equation 8 takes the stricter threshold, so a strategy with
        // zero measured performance gain legitimately stays ASE — the
        // paper's "guarantee no performance loss" clause.)
        let d = decide(&inputs, 6.0 * 3600.0);
        if p.saved_watts > 0.5 && p.tau_ase - p.tau_are > 5e-3 {
            assert!(d.use_are, "{:?}", p.strategy);
        }
        // Pathological error storm: ASE.
        let d = decide(&inputs, 1e-3);
        assert!(!d.use_are);
    }
}

#[test]
fn weak_and_strong_scaling_consume_measured_profiles() {
    let bt = small_cg_test();
    let scaling_cfg = ScalingConfig::default();
    for prof in profiles_from_basic_test(&bt) {
        let weak = weak_scaling(&prof, &scaling_cfg);
        assert_eq!(weak.len(), 6);
        for p in &weak {
            assert!(p.benefit_kj >= 0.0 && p.recovery_kj >= 0.0);
        }
        let strong = strong_scaling(&prof, &scaling_cfg);
        for w in strong.windows(2) {
            assert!(w[1].recovery_kj <= w[0].recovery_kj + 1e-12);
        }
    }
}
