//! Capacity-planning view: should a datacenter relax ECC under ABFT?
//! Applies the paper's Equations (2)-(8) across system scales and error
//! rates, printing the ARE/ASE decision and the projected savings.
//!
//! Run with: `cargo run --release --example datacenter_policy`

use abft_coop::abft_faultsim::models;
use abft_coop::prelude::*;

fn main() {
    println!("== ARE vs ASE: the Equation (7)/(8) decision across deployment scales ==\n");

    // Measured-class inputs (see the fig08/fig09 harnesses for the real
    // measurement path).
    let inputs = PolicyInputs {
        tau_ase: 0.18,
        tau_are: 0.04,
        t_c_seconds: 0.8,
        e_c_joules: 120.0,
        p_ase_watts: 58.0,
        p_are_watts: 49.0,
    };

    println!("node memory: 8 GB; ABFT-relaxed share: 16 MB/process under No-ECC\n");
    println!("{:>9}  {:>13}  {:>13}  {:>8}", "nodes", "MTTF_hetero", "threshold", "decision");
    for nodes in [1u64, 100, 3200, 51200, 819200] {
        let regions = [
            models::EccRegionTerm {
                fr_fit_per_mbit: abft_coop::abft_faultsim::fit_per_mbit(EccScheme::None),
                mbit: 16.0 * 8.0,
                age_factor: 1.0,
            },
            models::EccRegionTerm {
                fr_fit_per_mbit: abft_coop::abft_faultsim::fit_per_mbit(EccScheme::Chipkill),
                mbit: (8.0 * 1024.0 - 16.0) * 8.0,
                age_factor: 1.0,
            },
        ];
        let mttf = models::mttf_hetero_seconds(&regions, nodes);
        let d = decide(&inputs, mttf);
        println!(
            "{:>9}  {:>11.1} s  {:>11.1} s  {}",
            nodes,
            d.mttf_hetero_s,
            d.mttf_thr_s,
            if d.use_are { "ARE (relax ECC)" } else { "ASE (keep strong ECC)" }
        );
    }

    println!("\nWeak-scaling projection for the ARE fleet (FT-CG class):");
    let profile = abft_coop::abft_analysis::StrategyProfile {
        strategy: Strategy::PartialChipkillSecded,
        saved_watts: 9.0,
        tau_are: 0.04,
        tau_ase: 0.18,
    };
    let cfg = ScalingConfig::default();
    for p in weak_scaling(&profile, &cfg) {
        println!(
            "  {:>7} procs: benefit {:>12.1} kJ, ABFT recovery {:>9.3} kJ ({:.1} errors)",
            p.procs, p.benefit_kj, p.recovery_kj, p.errors
        );
    }
}
