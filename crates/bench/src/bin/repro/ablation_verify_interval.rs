//! Ablation (DESIGN.md 7.3): FT-DGEMM verification interval vs overhead
//! and error-exposure latency — the knob trading Figure 3's overhead
//! against the window in which relaxed-ECC errors stay uncorrected.

use abft_coop_core::report::{pct, Report, TextTable};
use abft_kernels::dgemm::{ft_dgemm, ft_dgemm_with, FtDgemmOptions};
use abft_kernels::VerifyMode;
use abft_linalg::gen::random_matrix;

pub fn run(out: &mut Report) {
    let n = 384;
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
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
        let (overhead, share) = (clean.overhead_ratio(), clean.verify_share());
        assert!(overhead < previous.0 && share < previous.1, "interval {interval}");
        previous = (overhead, share);
        // Worst-case exposure: inject right after panel 0; the repair
        // lands at the first verification boundary (panel interval - 1).
        let r = ft_dgemm_with(&a, &b, &opts, |p, cf| {
            if p == 0 {
                cf[(7, 9)] += 1e5;
            }
        });
        assert!(r.stats.corrections >= 1, "interval {interval}");
        let exposure = interval - 1;
        t.row(&[interval.to_string(), pct(overhead), pct(share), format!("{exposure}")]);
    }
    write!(out, "{}", t.render());
    writeln!(out, "\nShorter intervals buy a smaller exposure window (fewer chances for");
    writeln!(out, "Case-3 accumulation) at a steeper verification bill — the trade the");
    writeln!(out, "paper's hardware-assisted verification dissolves.");
}
