//! FT-LU: fault-tolerant LU factorization for **fail-continue** (soft)
//! errors — the online-correction LU of Davies & Chen \[9\], which the
//! paper cites alongside its four headline kernels.
//!
//! Encoding: `A^c = [A | A e | A w]` with two row-checksum columns (plain
//! and column-weighted). Every elimination and row swap is row-linear and
//! is applied across the full encoded width, so at any step each row `i`
//! of the *mathematical* matrix (factored columns read as zero below the
//! diagonal) satisfies
//!
//! ```text
//!   sum_j M[i][j]        = chk1[i]
//!   sum_j (j+1) M[i][j]  = chk2[i]
//! ```
//!
//! A violated row yields the mismatch pair `(d, wd)`; `wd / d` names the
//! corrupted column and `d` the magnitude — one error per row per
//! examination is corrected in place. Errors that land in the stored `L`
//! multipliers are outside the right-factor encoding (as in \[9\], the left
//! factor is protected by other means — here, FT-HPL's broadcast-archive
//! mechanism) and are reported as uncorrectable.

use crate::checksum::math_val;
use crate::cost;
use crate::verify::{due, FtStats, VerifyMode};
use abft_linalg::cholesky::FactorError;
use abft_linalg::lu::panel_factor;
use abft_linalg::Matrix;

/// FT-LU options.
#[derive(Debug, Clone)]
pub struct FtLuOptions {
    /// Panel width.
    pub block: usize,
    /// Verify every `verify_interval` panels.
    pub verify_interval: usize,
    /// Verification strategy.
    pub mode: VerifyMode,
}

impl Default for FtLuOptions {
    fn default() -> Self {
        FtLuOptions { block: 32, verify_interval: 1, mode: VerifyMode::Full }
    }
}

/// Result of an FT-LU run.
#[derive(Debug, Clone)]
pub struct FtLuResult {
    /// Packed LU factors (the first `n` columns).
    pub lu: Matrix,
    /// Pivot rows.
    pub pivots: Vec<usize>,
    /// Fault-tolerance accounting.
    pub stats: FtStats,
}

impl FtLuResult {
    /// Solve `A x = b` with the produced factors.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let f = abft_linalg::LuFactors { lu: self.lu.clone(), pivots: self.pivots.clone() };
        f.solve(b)
    }
}

/// Verify all row checksums against the mathematical matrix; correct one
/// error per row. `factored` = columns already holding L multipliers.
fn verify_rows(ext: &mut Matrix, n: usize, factored: usize, stats: &mut FtStats) {
    stats.verify += cost::col_sums(n, n, 2);
    for i in 0..n {
        let mut s = 0.0;
        let mut ws = 0.0;
        for j in 0..n {
            let v = math_val(ext, i, j, factored);
            s += v;
            ws += (j + 1) as f64 * v;
        }
        let (c1, c2) = (ext[(i, n)], ext[(i, n + 1)]);
        let scale = s.abs().max(c1.abs()).max(1.0) * n as f64;
        let d = s - c1;
        if d.abs() <= 1e-8 * scale {
            continue;
        }
        let wd = ws - c2;
        let pos = wd / d;
        let col = pos.round();
        if (pos - col).abs() < 1e-3 && col >= 1.0 && col <= n as f64 {
            let j = col as usize - 1;
            if j < factored && i > j {
                // The located entry is an L multiplier: outside the
                // right-factor encoding.
                stats.uncorrectable += 1;
                continue;
            }
            ext[(i, j)] -= d;
            stats.corrections += 1;
        } else {
            stats.uncorrectable += 1;
        }
    }
}

/// Run FT-LU with a fail-continue fault hook: `inject(step, ext)` fires
/// after each panel's trailing update (the encoded matrix has `n + 2`
/// columns; inject into the first `n`).
pub fn ft_lu_with<F>(
    a: &Matrix,
    opts: &FtLuOptions,
    mut inject: F,
) -> Result<FtLuResult, FactorError>
where
    F: FnMut(usize, &mut Matrix),
{
    let n = a.rows();
    assert!(a.is_square(), "LU factors a square system");
    assert!(opts.block > 0, "panel width must be positive");
    assert!(n.is_multiple_of(opts.block), "dimension must be a multiple of the panel width");
    let nb = opts.block;
    let nt = n / nb;

    let mut stats = FtStats::default();
    // Encode [A | Ae | Aw].
    let mut ext = Matrix::zeros(n, n + 2);
    ext.set_submatrix(0, 0, a);
    for i in 0..n {
        let mut s = 0.0;
        let mut ws = 0.0;
        for j in 0..n {
            let v = a[(i, j)];
            s += v;
            ws += (j + 1) as f64 * v;
        }
        ext[(i, n)] = s;
        ext[(i, n + 1)] = ws;
    }
    stats.checksum += cost::col_sums(n, n, 2);

    let total_cols = n + 2;
    let mut pivots = vec![0usize; n];

    for kt in 0..nt {
        let k = kt * nb;
        // The panel's eliminations span the encoded width: the two
        // checksum columns ride inside every row operation.
        panel_factor(&mut ext, k, nb, total_cols, &mut pivots)?;
        for j in k..k + nb {
            let data = cost::eliminate(n - j - 1, n - j - 1);
            stats.compute += data;
            stats.checksum += cost::eliminate(n - j - 1, total_cols - j - 1) - data;
        }

        inject(kt, &mut ext);

        if due(kt, nt, opts.verify_interval) {
            stats.verifications += 1;
            if let VerifyMode::Full = opts.mode {
                verify_rows(&mut ext, n, k + nb, &mut stats);
            }
        }
    }

    Ok(FtLuResult { lu: ext.submatrix(0, 0, n, n), pivots, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_linalg::gen::{random_diag_dominant, random_vector};

    #[test]
    fn clean_run_solves_correctly() {
        let n = 64;
        let a = random_diag_dominant(n, 41);
        let x_true = random_vector(n, 42);
        let b = a.matvec(&x_true);
        let r =
            ft_lu_with(&a, &FtLuOptions { block: 16, ..Default::default() }, |_, _| {}).unwrap();
        assert_eq!(r.stats.corrections, 0);
        assert_eq!(r.stats.uncorrectable, 0);
        let x = r.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn checksums_stay_clean_through_pivoting() {
        // Heavy pivoting (random matrix) must not trip the verification.
        let a = abft_linalg::gen::random_matrix(48, 48, 43);
        let r =
            ft_lu_with(&a, &FtLuOptions { block: 12, ..Default::default() }, |_, _| {}).unwrap();
        assert_eq!(r.stats.corrections, 0, "round-off must stay below tolerance");
        assert_eq!(r.stats.uncorrectable, 0);
    }

    #[test]
    fn trailing_matrix_error_is_corrected_online() {
        let n = 64;
        let a = random_diag_dominant(n, 44);
        let x_true = random_vector(n, 45);
        let b = a.matvec(&x_true);
        let r = ft_lu_with(
            &a,
            &FtLuOptions { block: 16, verify_interval: 1, ..Default::default() },
            |kt, ext| {
                if kt == 1 {
                    // Trailing matrix (not yet factored).
                    ext[(50, 55)] += 300.0;
                }
            },
        )
        .unwrap();
        assert_eq!(r.stats.corrections, 1);
        let x = r.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-7, "x[{i}]");
        }
    }

    #[test]
    fn u_factor_error_is_corrected_online() {
        let n = 64;
        let a = random_diag_dominant(n, 46);
        let x_true = random_vector(n, 47);
        let b = a.matvec(&x_true);
        let r = ft_lu_with(
            &a,
            &FtLuOptions { block: 16, verify_interval: 1, ..Default::default() },
            |kt, ext| {
                if kt == 2 {
                    // U entry: row 5 (factored), column 40 (to its right).
                    ext[(5, 40)] -= 77.0;
                }
            },
        )
        .unwrap();
        assert_eq!(r.stats.corrections, 1);
        let x = r.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn multiple_rows_hit_in_one_interval_all_corrected() {
        let n = 64;
        let a = random_diag_dominant(n, 48);
        let x_true = random_vector(n, 49);
        let b = a.matvec(&x_true);
        let r = ft_lu_with(
            &a,
            &FtLuOptions { block: 16, verify_interval: 1, ..Default::default() },
            |kt, ext| {
                if kt == 0 {
                    ext[(20, 30)] += 5.0;
                    ext[(33, 60)] -= 2.5;
                    ext[(60, 18)] += 9.0;
                }
            },
        )
        .unwrap();
        assert_eq!(r.stats.corrections, 3);
        let x = r.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn l_multiplier_error_is_flagged_uncorrectable() {
        // A mismatch pair (δ, δ (j + 1)) in row i > j locates column j,
        // which is factored: the named entry is an L multiplier, outside
        // the right-factor encoding, so the row is flagged and left alone.
        // The strike lands after the last panel, so no later row operation
        // spreads it to other rows.
        let n = 48;
        let a = random_diag_dominant(n, 50);
        let opts = FtLuOptions { block: 16, verify_interval: 1, ..Default::default() };
        let clean = ft_lu_with(&a, &opts, |_, _| {}).unwrap();
        let (i, j, delta) = (40, 10, 3.0);
        let r = ft_lu_with(&a, &opts, |kt, ext| {
            if kt == 2 {
                ext[(i, n)] += delta;
                ext[(i, n + 1)] += delta * (j + 1) as f64;
            }
        })
        .unwrap();
        assert_eq!((r.stats.corrections, r.stats.uncorrectable), (0, 1));
        assert_eq!(r.lu, clean.lu, "a flagged row is not repaired");
    }
}
