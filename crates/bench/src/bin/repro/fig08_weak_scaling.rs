//! Figure 8: weak-scaling comparison of energy benefit and ABFT recovery
//! cost (FT-CG, 3000x3000-class per process, 100 -> 819,200 processes).

use crate::run_grid;
use abft_analysis::{profiles_from_basic_test, weak_scaling, ScalingConfig};
use abft_coop_core::report::{Report, TextTable};
use abft_coop_core::CampaignSpec;
use abft_memsim::workloads::KernelKind;

pub fn run(out: &mut Report) {
    eprintln!("[measuring single-process FT-CG profile ...]");
    let bt = run_grid(&CampaignSpec::basic([KernelKind::Cg])).basic_test(KernelKind::Cg);
    let cfg = ScalingConfig::default();
    let mut t = TextTable::new(&[
        "Strategy",
        "Processes",
        "Energy benefit (kJ)",
        "Recovery cost (kJ)",
        "Errors",
    ]);
    for prof in profiles_from_basic_test(&bt) {
        for p in weak_scaling(&prof, &cfg) {
            t.row(&[
                prof.strategy.label().to_string(),
                p.procs.to_string(),
                format!("{:.3e}", p.benefit_kj),
                format!("{:.3e}", p.recovery_kj),
                format!("{:.2e}", p.errors),
            ]);
        }
    }
    out.table(&t);
}
