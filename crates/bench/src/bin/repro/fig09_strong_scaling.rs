//! Figure 9: strong-scaling comparison of energy benefit and ABFT
//! recovery cost (100 x 12K x 12K FT-CG base, strong scaled to 3,200
//! processes).

use crate::run_grid;
use abft_analysis::{profiles_from_basic_test, strong_scaling, ScalingConfig};
use abft_coop_core::report::{Report, TextTable};
use abft_coop_core::CampaignSpec;
use abft_memsim::workloads::KernelKind;

pub fn run(out: &mut Report) {
    eprintln!("[measuring single-process FT-CG profile ...]");
    let bt = run_grid(&CampaignSpec::basic([KernelKind::Cg])).basic_test(KernelKind::Cg);
    let cfg = ScalingConfig::default();
    let mut t =
        TextTable::new(&["Strategy", "Processes", "Energy benefit (kJ)", "Recovery cost (kJ)"]);
    for prof in profiles_from_basic_test(&bt) {
        for p in strong_scaling(&prof, &cfg) {
            t.row(&[
                prof.strategy.label().to_string(),
                p.procs.to_string(),
                format!("{:.3e}", p.benefit_kj),
                format!("{:.3e}", p.recovery_kj),
            ]);
        }
    }
    out.table(&t);
}
