//! ABFT overhead instrumentation: the Figure 3 breakdown (checksum vs
//! verification share of the fault-tolerance overhead) and the Table 1
//! comparison of full vs hardware-assisted (simplified) verification.

use crate::cg::{ft_pcg, FtCgOptions};
use crate::cholesky::{ft_cholesky, FtCholeskyOptions};
use crate::dgemm::{ft_dgemm, FtDgemmOptions};
use crate::verify::{FtStats, VerifyMode};
use abft_linalg::gen::{random_matrix, random_spd};
use abft_linalg::poisson_2d;

/// The three fail-continue kernels Figure 3 profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailContinueKernel {
    /// FT-DGEMM.
    Dgemm,
    /// FT-Cholesky.
    Cholesky,
    /// FT-Pred-CG.
    PredCg,
}

impl FailContinueKernel {
    /// All three, in the paper's order.
    pub const ALL: [FailContinueKernel; 3] =
        [FailContinueKernel::Dgemm, FailContinueKernel::Cholesky, FailContinueKernel::PredCg];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            FailContinueKernel::Dgemm => "FT-DGEMM",
            FailContinueKernel::Cholesky => "FT-Cholesky",
            FailContinueKernel::PredCg => "FT-Pred-CG",
        }
    }
}

/// Problem scale for the overhead measurements (one task per the paper;
/// dimensions scaled so that running the real kernels stays cheap).
#[derive(Debug, Clone, Copy)]
pub struct OverheadScale {
    /// Matrix dimension for DGEMM/Cholesky.
    pub n: usize,
    /// Grid edge for CG.
    pub grid: usize,
    /// CG iterations (via max_iter on an unconverging tolerance).
    pub cg_iters: usize,
}

impl Default for OverheadScale {
    fn default() -> Self {
        OverheadScale { n: 384, grid: 96, cg_iters: 120 }
    }
}

/// Run one kernel with the given verification mode and return its counted
/// phases. The paper's worst-case scenario uses an aggressive verification
/// interval (every step / small interval).
pub fn measure(kernel: FailContinueKernel, scale: &OverheadScale, mode: VerifyMode) -> FtStats {
    match kernel {
        FailContinueKernel::Dgemm => {
            let a = random_matrix(scale.n, scale.n, 11);
            let b = random_matrix(scale.n, scale.n, 12);
            ft_dgemm(&a, &b, &FtDgemmOptions { panel: 16, verify_interval: 2, mode }).stats
        }
        #[expect(clippy::expect_used, reason = "random_spd input is SPD by construction")]
        FailContinueKernel::Cholesky => {
            let a = random_spd(scale.n, 13);
            ft_cholesky(
                &a,
                &FtCholeskyOptions { block: 32, verify_interval: 2, mode, multi_error: false },
            )
            .expect("SPD input factors")
            .stats
        }
        FailContinueKernel::PredCg => {
            let a = poisson_2d(scale.grid, scale.grid);
            let n = a.rows();
            let b: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
            ft_pcg(
                &a,
                &b,
                &vec![0.0; n],
                &FtCgOptions {
                    tol: 1e-30, // run the full iteration budget
                    max_iter: scale.cg_iters,
                    verify_interval: 5,
                    mode,
                },
            )
            .stats
        }
    }
}

/// The Table 1 experiment: relative improvement of the run's roofline time
/// with simplified (hardware-assisted) verification over full
/// verification, without any ECC relaxing.
pub fn simplified_verification_improvement(full: &FtStats, assisted: &FtStats) -> f64 {
    1.0 - assisted.cycles() / full.cycles()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cost;
    use abft_coop_runtime::SysfsChannel;

    fn small() -> OverheadScale {
        OverheadScale { n: 192, grid: 48, cg_iters: 60 }
    }

    fn assisted() -> VerifyMode {
        VerifyMode::HardwareAssisted(SysfsChannel::new())
    }

    #[test]
    fn verification_dominates_the_overhead() {
        // Figure 3: "the verification is responsible for a large part of
        // the overhead" for all three fail-continue kernels.
        for k in FailContinueKernel::ALL {
            let s = measure(k, &small(), VerifyMode::Full);
            assert!(s.verify_share() > 0.3, "{}: verify share {}", k.label(), s.verify_share());
            assert!(s.verifications > 0);
        }
    }

    #[test]
    fn assisted_verification_is_cheaper() {
        // Table 1's mechanism: polling the (empty) error channel is far
        // cheaper than recomputing checksums.
        for k in FailContinueKernel::ALL {
            let full = measure(k, &small(), VerifyMode::Full);
            let gain =
                simplified_verification_improvement(&full, &measure(k, &small(), assisted()));
            assert!(gain > 0.0, "{}: expected speedup, got {gain}", k.label());
        }
    }

    #[test]
    fn two_runs_count_the_same() {
        for k in FailContinueKernel::ALL {
            for mode in [VerifyMode::Full, assisted()] {
                assert_eq!(measure(k, &small(), mode.clone()), measure(k, &small(), mode));
            }
        }
    }

    #[test]
    fn the_assisted_run_differs_from_the_full_run_in_verify_only() {
        // Table 1's premise: same kernel, same checksums, another way to
        // examine them.
        for k in FailContinueKernel::ALL {
            let full = measure(k, &small(), VerifyMode::Full);
            let polled = measure(k, &small(), assisted());
            assert_eq!(polled.compute, full.compute, "{}", k.label());
            assert_eq!(polled.checksum, full.checksum, "{}", k.label());
            assert_eq!(polled.verifications, full.verifications, "{}", k.label());
            // A clean run: one 64-byte poll per examination, nothing else.
            assert_eq!(polled.verify, Cost { flops: 0, words: 8 * full.verifications });
            assert!(full.verify.words > polled.verify.words);
        }
    }

    #[test]
    fn ft_dgemm_counts_match_their_closed_forms() {
        let (m, k, n) = (40, 24, 56);
        let a = random_matrix(m, k, 1);
        let b = random_matrix(k, n, 2);
        let opts = FtDgemmOptions { panel: 10, verify_interval: 2, mode: VerifyMode::Full };
        let s = ft_dgemm(&a, &b, &opts).stats;
        let (m, k, n) = (m as u64, k as u64, n as u64);
        let panels = 3; // 10 + 10 + 4
        assert_eq!(s.verifications, 2); // after panel 2, and the last
        assert_eq!(s.compute.flops, 2 * m * n * k);
        assert_eq!(s.compute.words, m * k + k * n + panels * 2 * m * n);
        // e^T A and B e, and the absolute sums beside them: one addition per
        // element each; then the magnitudes (e^T |A|) |B| and |A| (|B| e).
        let encode = 2 * (m * k + k * n) + 2 * (k * n + m * k);
        assert_eq!(s.compute.flops + s.checksum.flops - encode, 2 * (m + 1) * (n + 1) * k);
        // Column sums and row sums of the m x n product, each with its
        // absolute sum, per examination.
        assert_eq!(s.verify.flops, s.verifications * 4 * m * n);
        assert_eq!(s.verify.words, s.verifications * (2 * m * n + 2 * (m + n)));
    }

    #[test]
    fn ft_cholesky_compute_is_a_third_of_n_cubed() {
        let n = 384.0_f64;
        let s = measure(FailContinueKernel::Cholesky, &OverheadScale::default(), VerifyMode::Full);
        let flops = s.compute.flops as f64;
        assert!((flops / (n * n * n / 3.0) - 1.0).abs() < 0.01, "{flops}");
    }

    #[test]
    fn ft_cg_counts_follow_nnz_and_n() {
        let scale = small();
        let s = measure(FailContinueKernel::PredCg, &scale, VerifyMode::Full);
        let n = (scale.grid * scale.grid) as u64;
        let nnz = poisson_2d(scale.grid, scale.grid).nnz() as u64;
        let iters = scale.cg_iters as u64;
        assert_eq!(s.verifications, iters / 5);
        // Line 1, then per iteration an SpMV, three dots, three vector
        // updates and the Jacobi solve.
        assert_eq!(s.compute.flops, (2 * nnz + 5 * n) + iters * (2 * nnz + 13 * n));
        assert_eq!(s.compute.words, (nnz + 10 * n) + iters * (nnz + 20 * n));
        // Set-up (three SpMVs and |A| e, r0, z0, 1/d, four vector sums with
        // their absolute sums), then per iteration three dots against p in
        // one sweep for S_q and its magnitude, and the summed Jacobi solve
        // for S_p.
        assert_eq!(s.checksum.flops, (8 * nnz + 20 * n) + iters * 11 * n);
        assert_eq!(s.checksum.words, (4 * nnz + 20 * n + 12) + iters * (6 * n + 1));
        // Per examination five vector sums with their absolute sums, the
        // r + A x = b SpMV and its comparison sweep.
        assert_eq!(s.verify.flops, s.verifications * (2 * nnz + 22 * n));
        assert_eq!(s.verify.words, s.verifications * (nnz + 10 * n + 15));
    }

    /// Bosilca et al.'s form, on the counts: with the panel width and the
    /// examination period fixed, the number of examinations grows with n.
    #[test]
    fn dgemm_maintenance_falls_as_one_over_n_and_verification_does_not() {
        let ratios = |n: usize| {
            let scale = OverheadScale { n, ..small() };
            let s = measure(FailContinueKernel::Dgemm, &scale, VerifyMode::Full);
            let c = s.compute.cycles();
            (s.checksum.cycles() / c, s.verify.cycles() / c)
        };
        let (chk96, ver96) = ratios(96);
        let (chk192, ver192) = ratios(192);
        let (chk384, ver384) = ratios(384);
        // Encoding and the checksum row / column are O(n^2) beside O(n^3).
        assert!((chk192 / chk96 - 0.5).abs() < 0.02, "{chk96} {chk192}");
        assert!((chk384 / chk192 - 0.5).abs() < 0.02, "{chk192} {chk384}");
        // n / (panel * interval) sweeps of O(n^2) each are O(n^3) too.
        assert!((ver192 / ver96 - 1.0).abs() < 0.02, "{ver96} {ver192}");
        assert!((ver384 / ver192 - 1.0).abs() < 0.02, "{ver192} {ver384}");
    }

    /// FT-Cholesky checksums every b x b block, so both its maintenance and
    /// its verification are a fixed fraction (~ 1 / b) of the compute.
    #[test]
    fn cholesky_overhead_is_set_by_the_block_size_not_by_n() {
        let ratio = |n: usize| {
            let scale = OverheadScale { n, ..small() };
            measure(FailContinueKernel::Cholesky, &scale, VerifyMode::Full).overhead_ratio()
        };
        let (r192, r384) = (ratio(192), ratio(384));
        assert!(r384 / r192 > 0.8, "{r192} {r384}");
    }
}
