//! FT-QR: fault-tolerant Householder QR for fail-continue errors — the
//! fourth dense factorization of the ABFT family (the paper's related
//! work, Du et al. \[14\]).
//!
//! Column checksums `c = e^T A` and `wc = w^T A` (row-weighted) are
//! maintained through every reflector: applying `H = I - tau v v^T` from
//! the left transforms a checksum covector as
//!
//! ```text
//!   c' = c - tau (e^T v) (v^T A)
//! ```
//!
//! where `v^T A` is exactly the row the update computes anyway. A
//! checksum violation in column `j` gives the mismatch pair `(d, wd)`;
//! `wd / d` locates the corrupted row (within the still-active region)
//! and `d` its magnitude. Stored reflector entries (below the diagonal of
//! finished columns) are outside this encoding, like FT-LU's `L`.

use crate::checksum::math_val;
use crate::cost;
use crate::verify::{due, FtStats, VerifyMode};
use abft_linalg::qr::QrFactors;
use abft_linalg::Matrix;

/// FT-QR options.
#[derive(Debug, Clone)]
pub struct FtQrOptions {
    /// Verify every `verify_interval` columns.
    pub verify_interval: usize,
    /// Verification strategy.
    pub mode: VerifyMode,
}

impl Default for FtQrOptions {
    fn default() -> Self {
        // Factorization kernels examine "at each step" (Section 2.1): a
        // corruption repaired in the same step is removed exactly; one
        // that survives into later reflectors is still *detected* (the
        // checksum mismatch is invariant under the transformations) but
        // its propagated component cannot be unwound by a point repair.
        FtQrOptions { verify_interval: 1, mode: VerifyMode::Full }
    }
}

/// Result of an FT-QR run.
#[derive(Debug, Clone)]
pub struct FtQrResult {
    /// The packed factors.
    pub factors: QrFactors,
    /// Fault-tolerance accounting.
    pub stats: FtStats,
}

/// Run FT-QR with a fault hook `inject(column, working)` fired after each
/// reflector application.
pub fn ft_qr_with<F>(a: &Matrix, opts: &FtQrOptions, mut inject: F) -> FtQrResult
where
    F: FnMut(usize, &mut Matrix),
{
    let (m, n) = a.shape();
    let mut stats = FtStats::default();

    // Encode column checksums (plain + row-weighted).
    let mut c = vec![0.0; n];
    let mut wc = vec![0.0; n];
    for j in 0..n {
        for i in 0..m {
            c[j] += a[(i, j)];
            wc[j] += (i + 1) as f64 * a[(i, j)];
        }
    }
    stats.checksum += cost::col_sums(m, n, 2);

    let factors = abft_linalg::qr::householder_qr_with(a, |j, tau, w| {
        // --- checksum maintenance for the reflector just applied --------
        // Covector transform, never reading the protected data's sums:
        //   c' = c - tau (e^T v) (v^T A_old),
        // and the reflector identity H v = -v gives
        //   v^T A_old = -(v^T A_new),
        // so  c' = c + tau (e^T v) (v^T A_new) — all quantities available
        // from the post-update state. Cost O(m (n - j)), the same order as
        // the reflector update itself.
        if tau != 0.0 {
            // v: implicit 1 at row j, stored below the diagonal.
            let mut e_v = 1.0;
            let mut w_v = (j + 1) as f64;
            for i in j + 1..m {
                let vi = w[(i, j)];
                e_v += vi;
                w_v += (i + 1) as f64 * vi;
            }
            // Finished column j: its mathematical content is beta e_1, so
            // v^T A_new for it is just beta.
            let beta = w[(j, j)];
            c[j] += tau * e_v * beta;
            wc[j] += tau * w_v * beta;
            // Trailing columns.
            for col in j + 1..n {
                let mut z = w[(j, col)];
                for i in j + 1..m {
                    z += w[(i, j)] * w[(i, col)];
                }
                c[col] += tau * e_v * z;
                wc[col] += tau * w_v * z;
            }
            // The two sums of v, then v^T A_new over the trailing columns.
            stats.checksum += cost::col_sums(m - j, 1, 2) + cost::gemm(1, n - j - 1, m - j);
        }

        inject(j, w);

        if due(j, n, opts.verify_interval) {
            stats.verifications += 1;
            if let VerifyMode::Full = opts.mode {
                stats.verify += cost::col_sums(m, n, 2);
                for col in 0..n {
                    let frozen = (j + 1).min(n);
                    let mut s = 0.0;
                    let mut ws = 0.0;
                    for i in 0..m {
                        let v = math_val(w, i, col, frozen);
                        s += v;
                        ws += (i + 1) as f64 * v;
                    }
                    let scale = s.abs().max(c[col].abs()).max(1.0) * m as f64;
                    let d = s - c[col];
                    if d.abs() <= 1e-8 * scale {
                        continue;
                    }
                    let wd = ws - wc[col];
                    let pos = wd / d;
                    let row = pos.round();
                    if (pos - row).abs() < 1e-3 && row >= 1.0 && row <= m as f64 {
                        let i = row as usize - 1;
                        if col < frozen && i > col {
                            // A stored reflector entry: outside the
                            // encoding.
                            stats.uncorrectable += 1;
                            continue;
                        }
                        w[(i, col)] -= d;
                        stats.corrections += 1;
                    } else {
                        stats.uncorrectable += 1;
                    }
                }
            }
        }
    });
    FtQrResult { factors, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_linalg::blas3::matmul;
    use abft_linalg::gen::{random_matrix, random_vector};

    #[test]
    fn clean_run_factors_correctly() {
        let a = random_matrix(32, 32, 81);
        let r = ft_qr_with(&a, &FtQrOptions::default(), |_, _| {});
        assert_eq!(r.stats.corrections, 0);
        assert_eq!(r.stats.uncorrectable, 0);
        let rec = matmul(&r.factors.q(), &r.factors.r());
        assert!(rec.approx_eq(&a, 1e-9, 1e-9));
    }

    #[test]
    fn stale_corruption_is_still_detected_across_intervals() {
        // Inject at column 5, verify only at column 7. The checksum
        // mismatch is invariant under the intervening reflectors (the
        // covector maintenance tracks the corrupted data exactly), so the
        // error is still detected and located two steps later. The point
        // repair removes the located component; the propagated residual is
        // why the factorization kernels default to per-step examination.
        let n = 24;
        let a = random_matrix(n, n, 87);
        let r =
            ft_qr_with(&a, &FtQrOptions { verify_interval: 8, ..Default::default() }, |j, w| {
                if j == 5 {
                    w[(18, 20)] += 25.0;
                }
            });
        assert_eq!(r.stats.corrections, 1, "stale error detected and located");
        assert_eq!(r.stats.uncorrectable, 0);
    }

    #[test]
    fn trailing_matrix_error_is_corrected() {
        let n = 32;
        let a = random_matrix(n, n, 82);
        let x_true = random_vector(n, 83);
        let b = a.matvec(&x_true);
        let r =
            ft_qr_with(&a, &FtQrOptions { verify_interval: 4, ..Default::default() }, |j, w| {
                if j == 7 {
                    // Strike the still-active trailing region.
                    w[(20, 25)] += 40.0;
                }
            });
        assert_eq!(r.stats.corrections, 1);
        assert_eq!(r.stats.uncorrectable, 0);
        let x = r.factors.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-7, "x[{i}]");
        }
    }

    #[test]
    fn frozen_r_row_error_is_corrected() {
        let n = 32;
        let a = random_matrix(n, n, 84);
        let x_true = random_vector(n, 85);
        let b = a.matvec(&x_true);
        let r =
            ft_qr_with(&a, &FtQrOptions { verify_interval: 4, ..Default::default() }, |j, w| {
                if j == 11 {
                    // An R entry: row 3 (frozen), column 20 (to its right).
                    w[(3, 20)] -= 9.0;
                }
            });
        assert_eq!(r.stats.corrections, 1);
        let x = r.factors.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn multiple_columns_hit_all_corrected() {
        let n = 40;
        let a = random_matrix(n, n, 86);
        let r =
            ft_qr_with(&a, &FtQrOptions { verify_interval: 2, ..Default::default() }, |j, w| {
                if j == 5 {
                    w[(30, 10)] += 3.0;
                    w[(15, 33)] -= 7.0;
                }
            });
        assert_eq!(r.stats.corrections, 2);
        assert_eq!(r.stats.uncorrectable, 0);
    }
}
