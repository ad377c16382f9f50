//! Ablation (DESIGN.md 7.3): FT-DGEMM verification interval vs overhead
//! and error-exposure latency — the knob trading Figure 3's overhead
//! against the window in which relaxed-ECC errors stay uncorrected.

use abft_coop::studies::verify_interval_runs;
use abft_coop_core::report::{pct, Report, TextTable};

pub fn run(out: &mut Report) {
    let mut t = TextTable::new(&[
        "interval (panels)",
        "FT overhead",
        "verify share",
        "panels-to-repair (worst case)",
    ]);
    let mut previous = (f64::INFINITY, f64::INFINITY);
    for interval in [1usize, 2, 4, 8, 16] {
        let (clean, struck) = verify_interval_runs(interval);
        let (overhead, share) = (clean.overhead_ratio(), clean.verify_share());
        assert!(overhead < previous.0 && share < previous.1, "interval {interval}");
        previous = (overhead, share);
        // Worst-case exposure: the strike lands right after panel 0; the
        // repair comes at the first verification boundary (panel
        // interval - 1).
        assert!(struck.corrections >= 1, "interval {interval}");
        let exposure = interval - 1;
        t.row(&[interval.to_string(), pct(overhead), pct(share), format!("{exposure}")]);
    }
    write!(out, "{}", t.render());
}
