//! The Section 1 motivation quantified: ABFT vs optimal (Young/Daly)
//! periodic checkpointing across system MTTFs.

use abft_coop::studies::checkpoint_sweep;
use abft_coop_core::report::{pct, Report, TextTable};

pub fn run(out: &mut Report) {
    let mttfs = [900.0, 1800.0, 3600.0, 4.0 * 3600.0, 24.0 * 3600.0];
    let mut t =
        TextTable::new(&["system MTTF", "Daly interval", "checkpoint overhead", "ABFT overhead"]);
    for r in checkpoint_sweep(&mttfs) {
        t.row(&[
            format!("{:.1} h", r.mttf_s / 3600.0),
            format!("{:.0} s", r.interval_s),
            pct(r.checkpoint_overhead),
            pct(r.abft_overhead),
        ]);
    }
    write!(out, "{}", t.render());
}
