//! The Section 1 motivation quantified: ABFT vs optimal (Young/Daly)
//! periodic checkpointing across system MTTFs.

use abft_analysis::checkpoint::sweep;
use abft_coop_core::report::{pct, Report, TextTable};

pub fn run(out: &mut Report) {
    let mttfs = [900.0, 1800.0, 3600.0, 4.0 * 3600.0, 24.0 * 3600.0];
    let mut t =
        TextTable::new(&["system MTTF", "Daly interval", "checkpoint overhead", "ABFT overhead"]);
    // 2-minute checkpoint writes, 5-minute restarts, a 3% ABFT tax (the
    // basic tests' measured band) and 1-second ABFT recoveries.
    for r in sweep(120.0, 300.0, 0.03, 1.0, &mttfs) {
        t.row(&[
            format!("{:.1} h", r.mttf_s / 3600.0),
            format!("{:.0} s", r.interval_s),
            pct(r.checkpoint_overhead),
            pct(r.abft_overhead),
        ]);
        let key = format!("checkpoint_over_abft/{}h", r.mttf_s / 3600.0);
        out.quantity(key, r.checkpoint_overhead / r.abft_overhead);
    }
    write!(out, "{}", t.render());
}
