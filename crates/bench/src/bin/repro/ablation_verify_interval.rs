//! Ablation (DESIGN.md 7.3): FT-DGEMM verification interval vs overhead
//! and error-exposure latency — the knob trading Figure 3's overhead
//! against the window in which relaxed-ECC errors stay uncorrected.

use abft_coop_core::report::{pct, Report, TextTable};
use abft_kernels::dgemm::{ft_dgemm, ft_dgemm_with, FtDgemmOptions};
use abft_kernels::VerifyMode;
use abft_linalg::gen::random_matrix;

pub fn run(out: &mut Report) {
    // FT-DGEMM n = 384, panel 24, clean and with a strike right after
    // panel 0.
    let (a, b) = (random_matrix(384, 384, 1), random_matrix(384, 384, 2));
    let mut t = TextTable::new(&[
        "interval (panels)",
        "FT overhead",
        "verify share",
        "panels-to-repair (worst case)",
    ]);
    let mut previous = (f64::INFINITY, f64::INFINITY);
    for interval in [1usize, 2, 4, 8, 16] {
        let opts = FtDgemmOptions { panel: 24, verify_interval: interval, mode: VerifyMode::Full };
        let clean = ft_dgemm(&a, &b, &opts).stats;
        let struck = ft_dgemm_with(&a, &b, &opts, |p, cf| {
            if p == 0 {
                cf[(7, 9)] += 1e5;
            }
        })
        .stats;
        let (overhead, share) = (clean.overhead_ratio(), clean.verify_share());
        assert!(overhead < previous.0 && share < previous.1, "interval {interval}");
        previous = (overhead, share);
        // Worst-case exposure: the strike lands right after panel 0; the
        // repair comes at the first verification boundary (panel
        // interval - 1).
        assert!(struck.corrections >= 1, "interval {interval}");
        let exposure = interval - 1;
        t.row(&[interval.to_string(), pct(overhead), pct(share), format!("{exposure}")]);
        out.quantity(format!("interval_verify_share/{interval}"), share);
    }
    write!(out, "{}", t.render());
}
