//! Monte-Carlo fault campaign: ARE vs ASE outcome distributions over a
//! field-realistic error-pattern mix (the statistical form of Section 4's
//! discussion).

use abft_coop::studies::monte_carlo_config;
use abft_coop_core::report::{pct, Report, TextTable};
use abft_faultsim::run_fault_campaign_with_progress;

pub fn run(out: &mut Report) {
    for errors_per_run in [0.1, 0.5, 2.0, 10.0] {
        let cfg = monte_carlo_config(errors_per_run);
        let r = run_fault_campaign_with_progress(&cfg, |p| {
            if p.trials_done % 5000 == 0 || p.trials_done == p.trials_total {
                eprintln!(
                    "[mc e/r={errors_per_run}] {}/{} trials, {} errors sampled",
                    p.trials_done, p.trials_total, p.errors_sampled
                );
            }
        });
        writeln!(
            out,
            "\nerrors/run = {errors_per_run}  (cases [both, only-ABFT, only-ECC, neither] = {:?})",
            r.case_counts
        );
        let mut t =
            TextTable::new(&["config", "mean recovery (J)", "p99 recovery (J)", "runs restarted"]);
        for (label, s) in [
            ("ARE (relaxed ECC)", &r.are),
            ("ASE cooperative", &r.ase_coop),
            ("ASE traditional", &r.ase_blind),
        ] {
            t.row(&[
                label.to_string(),
                format!("{:.2}", s.mean_energy_j),
                format!("{:.2}", s.p99_energy_j),
                pct(s.restart_fraction),
            ]);
        }
        write!(out, "{}", t.render());
    }
}
