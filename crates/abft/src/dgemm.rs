//! FT-DGEMM: fault-tolerant general matrix multiplication for
//! fail-continue errors (Section 2.1, after Wu et al. \[39\]).
//!
//! The inputs are encoded as
//! `A^c = [A; e^T A]` and `B^c = [B, B e]`, so the product
//! `C^f = A^c B^c` carries both a column-checksum row (`e^T C`) and a
//! row-checksum column (`C e`). Every few k-panels the algorithm examines
//! the checksums, locating an error by the intersection of the violated
//! column and row and repairing it in place.
//!
//! The detection rule's magnitudes are computed once at encode, as two
//! vector products: column `j` of `C` and its checksum round by at most
//! `gamma_(m+k) g_j`, `g_j = sum_l (sum_i |a_il|) |b_lj|`, and row `i` by
//! `gamma_(n+k) h_i`, `h_i = sum_l |a_il| (sum_j |b_lj|)`. Both hold for
//! any summation order and for every partial product, so mid-run too.

use crate::checksum::{restore, significant, Sums};
use crate::cost;
use crate::verify::{due, FtStats, VerifyMode};
use abft_linalg::{gemm, Matrix, Trans};

/// FT-DGEMM options.
#[derive(Debug, Clone)]
pub struct FtDgemmOptions {
    /// k-panel width for the outer-product accumulation.
    pub panel: usize,
    /// Verify every `verify_interval` panels.
    pub verify_interval: usize,
    /// Verification strategy.
    pub mode: VerifyMode,
}

impl Default for FtDgemmOptions {
    fn default() -> Self {
        FtDgemmOptions { panel: 64, verify_interval: 4, mode: VerifyMode::Full }
    }
}

/// Result of an FT-DGEMM run.
#[derive(Debug, Clone)]
pub struct FtDgemmResult {
    /// The product `C` (checksum row/column stripped).
    pub c: Matrix,
    /// Fault-tolerance accounting.
    pub stats: FtStats,
}

/// Encode `A^c = [A; e^T A]`.
pub fn encode_a(a: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let mut ac = Matrix::zeros(m + 1, k);
    for j in 0..k {
        let src = a.col(j);
        let dst = ac.col_mut(j);
        dst[..m].copy_from_slice(src);
        dst[m] = src.iter().sum();
    }
    ac
}

/// Encode `B^c = [B, B e]`.
pub fn encode_b(b: &Matrix) -> Matrix {
    let (k, n) = b.shape();
    let mut bc = Matrix::zeros(k, n + 1);
    let mut row_sums = vec![0.0; k];
    for j in 0..n {
        let src = b.col(j);
        bc.col_mut(j).copy_from_slice(src);
        for (s, &v) in row_sums.iter_mut().zip(src) {
            *s += v;
        }
    }
    bc.col_mut(n).copy_from_slice(&row_sums);
    bc
}

/// The full-checksum product with the rounding magnitudes of its checks.
struct Product {
    /// `(m+1) x (n+1)`: `C`, its checksum row and its checksum column.
    cf: Matrix,
    m: usize,
    n: usize,
    k: usize,
    /// `g_j`: column `j`'s magnitude (module doc).
    g: Vec<f64>,
    /// `h_i`: row `i`'s magnitude.
    h: Vec<f64>,
}

impl Product {
    /// The zero product of `A (m x k)` and `B (k x n)` with the magnitudes
    /// of its checks: `g = (e^T |A|) |B|`, `h = |A| (|B| e)`.
    fn new(a: &Matrix, b: &Matrix) -> Self {
        let ((m, k), n) = (a.shape(), b.cols());
        let a_abs: Vec<f64> = (0..k).map(|l| a.col(l).iter().map(|v| v.abs()).sum()).collect();
        let mut b_abs = vec![0.0; k];
        let mut g = vec![0.0; n];
        for (j, gj) in g.iter_mut().enumerate() {
            for (l, (&v, s)) in b.col(j).iter().zip(b_abs.iter_mut()).enumerate() {
                *gj += a_abs[l] * v.abs();
                *s += v.abs();
            }
        }
        let mut h = vec![0.0; m];
        for (l, &s) in b_abs.iter().enumerate() {
            for (hi, &v) in h.iter_mut().zip(a.col(l)) {
                *hi += v.abs() * s;
            }
        }
        Product { cf: Matrix::zeros(m + 1, n + 1), m, n, k, g, h }
    }

    /// Column `j`'s mismatch with its checksum, if significant, and the
    /// magnitude it was judged on: the larger of `g_j` and the column's
    /// absolute sum, taken in the same pass (a struck element rounds the
    /// recomputed sum by its own size).
    fn col_delta(&self, j: usize, stats: &mut FtStats) -> Option<(f64, f64)> {
        stats.verify += cost::col_sums(self.m, 1, 1) + cost::abs_sums(self.m, 1);
        let col = self.cf.col(j);
        let s = Sums::of(&col[..self.m]);
        let (d, mag) = (s.plain - col[self.m], self.g[j].max(s.abs));
        significant(d, mag, self.m + self.k).then_some((d, mag))
    }

    /// Row `i`'s mismatch with its checksum and its magnitude, as
    /// [`Product::col_delta`].
    fn row_delta(&self, i: usize, stats: &mut FtStats) -> Option<(f64, f64)> {
        stats.verify += cost::col_sums(self.n, 1, 1) + cost::abs_sums(self.n, 1);
        let (mut sum, mut abs) = (0.0, 0.0);
        for j in 0..self.n {
            sum += self.cf[(i, j)];
            abs += self.cf[(i, j)].abs();
        }
        let (d, mag) = (sum - self.cf[(i, self.n)], self.h[i].max(abs));
        significant(d, mag, self.n + self.k).then_some((d, mag))
    }

    /// Whether violated column `(dj, mj)` and row `(di, mi)` name the same
    /// element: their mismatches agree up to both bounds, or both are
    /// non-finite (a NaN or an infinity poisons exactly its own row and
    /// column sums).
    fn agree(&self, (dj, mj): (f64, f64), (di, mi): (f64, f64)) -> bool {
        if dj.is_finite() && di.is_finite() {
            !significant(dj - di, mj + mi, self.m + self.n + self.k)
        } else {
            !dj.is_finite() && !di.is_finite()
        }
    }

    /// Repair the element `(i, j)` a row/column intersection or a report
    /// names: the column checksum minus the column's other elements.
    fn repair(&mut self, i: usize, j: usize, stats: &mut FtStats) {
        let m = self.m;
        let col = self.cf.col_mut(j);
        let plain = col[m];
        restore(&mut col[..m], i, plain);
        stats.verify += cost::col_sums(m, 1, 1);
        stats.corrections += 1;
    }

    /// One verification pass: locate violated columns and rows, correct
    /// single errors at their intersections.
    fn verify_and_correct(&mut self, stats: &mut FtStats) {
        let (m, n) = (self.m, self.n);
        let bad_cols: Vec<(usize, (f64, f64))> =
            (0..n).filter_map(|j| Some((j, self.col_delta(j, stats)?))).collect();
        let bad_rows: Vec<(usize, (f64, f64))> =
            (0..m).filter_map(|i| Some((i, self.row_delta(i, stats)?))).collect();
        // Greedy intersection matching: a single error at (i, j) produces
        // one violated row i and one violated column j with equal deltas.
        let mut used_rows = vec![false; bad_rows.len()];
        for &(j, dj) in &bad_cols {
            let hit = bad_rows
                .iter()
                .enumerate()
                .find(|&(ri, &(_, di))| !used_rows[ri] && self.agree(dj, di));
            if let Some((ri, &(i, _))) = hit {
                used_rows[ri] = true;
                self.repair(i, j, stats);
            } else {
                // Column violated with no matching row: the error sits in
                // the checksum row itself (harmless to C) or is a
                // multi-error pattern — rebuild the column checksum from
                // the data.
                self.cf[(m, j)] = self.cf.col(j)[..m].iter().sum();
                stats.verify += cost::col_sums(m, 1, 1);
                stats.uncorrectable += 1;
            }
        }
        for (ri, &(i, _)) in bad_rows.iter().enumerate() {
            if !used_rows[ri] {
                // Row violated alone: repair the row-checksum entry.
                let mut sum = 0.0;
                for j in 0..n {
                    sum += self.cf[(i, j)];
                }
                self.cf[(i, n)] = sum;
                stats.verify += cost::col_sums(n, 1, 1);
                stats.uncorrectable += 1;
            }
        }
    }

    /// Hardware-assisted repair: the OS report pins the corrupted cache
    /// line; in each column it covers, the column checksum tells whether
    /// the column holds an error, and the *row* checksum whose mismatch
    /// agrees names its row within the line — a handful of O(n) sums
    /// instead of a full verification sweep.
    fn assisted_repair(&mut self, reports: &[abft_coop_runtime::ErrorReport], stats: &mut FtStats) {
        let (m, n) = (self.m, self.n);
        for rep in reports {
            // The line's elements, column-major, grouped by column.
            let covered: Vec<(usize, usize)> = (rep.element..rep.element + 8)
                .map(|e| (e % (m + 1), e / (m + 1)))
                .filter(|&(i, j)| i < m && j < n)
                .collect();
            for (j, rows) in covered.chunk_by(|a, b| a.1 == b.1).map(|c| (c[0].1, c)) {
                let Some(dj) = self.col_delta(j, stats) else {
                    continue;
                };
                let named = rows
                    .iter()
                    .map(|&(i, _)| i)
                    .find(|&i| self.row_delta(i, stats).is_some_and(|di| self.agree(dj, di)));
                match named {
                    Some(i) => self.repair(i, j, stats),
                    None => stats.uncorrectable += 1,
                }
            }
        }
    }
}

/// Run FT-DGEMM: `C = A * B` with fail-continue protection.
///
/// `inject` fires after each k-panel accumulation with mutable access to
/// the encoded product — the BIFIT hook for corrupting `C^f` mid-run.
pub fn ft_dgemm_with<F>(
    a: &Matrix,
    b: &Matrix,
    opts: &FtDgemmOptions,
    mut inject: F,
) -> FtDgemmResult
where
    F: FnMut(usize, &mut Matrix),
{
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(b.rows(), k, "inner dimension mismatch");
    assert!(opts.panel > 0, "panel width must be positive");

    let ac = encode_a(a);
    let bc = encode_b(b);
    let mut stats = FtStats::default();
    stats.checksum += cost::col_sums(m, k, 1) + cost::col_sums(n, k, 1);
    // The magnitudes: the absolute column sums of A and row sums of B ride
    // the encode sweeps; then two vector products.
    let mut prod = Product::new(a, b);
    stats.checksum +=
        cost::abs_sums(m, k) + cost::abs_sums(n, k) + cost::gemm(1, n, k) + cost::gemm(m, 1, k);

    let panels = k.div_ceil(opts.panel);
    for p in 0..panels {
        let k0 = p * opts.panel;
        let kw = opts.panel.min(k - k0);
        let ap = ac.submatrix(0, k0, m + 1, kw);
        let bp = bc.submatrix(k0, 0, kw, n + 1);
        gemm(1.0, &ap, Trans::No, &bp, Trans::No, 1.0, &mut prod.cf);
        // The checksum row and column ride inside the panel product.
        stats.compute += cost::gemm(m, n, kw);
        stats.checksum += cost::gemm(m + 1, n + 1, kw) - cost::gemm(m, n, kw);

        inject(p, &mut prod.cf);

        if due(p, panels, opts.verify_interval) {
            stats.verifications += 1;
            match &opts.mode {
                VerifyMode::Full => prod.verify_and_correct(&mut stats),
                VerifyMode::HardwareAssisted(ch) => {
                    let reports = ch.poll();
                    stats.verify += cost::poll();
                    prod.assisted_repair(&reports, &mut stats);
                }
            }
        }
    }
    FtDgemmResult { c: prod.cf.submatrix(0, 0, m, n), stats }
}

/// FT-DGEMM without fault injection.
///
/// # Examples
/// ```
/// use abft_kernels::dgemm::{ft_dgemm, FtDgemmOptions};
/// use abft_linalg::gen::random_matrix;
///
/// let a = random_matrix(32, 32, 1);
/// let b = random_matrix(32, 32, 2);
/// let r = ft_dgemm(&a, &b, &FtDgemmOptions { panel: 8, ..Default::default() });
/// assert!(r.c.approx_eq(&abft_linalg::matmul(&a, &b), 1e-10, 1e-10));
/// ```
pub fn ft_dgemm(a: &Matrix, b: &Matrix, opts: &FtDgemmOptions) -> FtDgemmResult {
    ft_dgemm_with(a, b, opts, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_linalg::gen::random_matrix;
    use abft_linalg::matmul;

    #[test]
    fn clean_run_matches_plain_gemm() {
        let a = random_matrix(48, 48, 1);
        let b = random_matrix(48, 48, 2);
        let r = ft_dgemm(&a, &b, &FtDgemmOptions { panel: 16, ..Default::default() });
        assert!(r.c.approx_eq(&matmul(&a, &b), 1e-10, 1e-10));
        assert_eq!(r.stats.corrections, 0);
        assert!(r.stats.verifications >= 1);
    }

    #[test]
    fn encoded_matrices_have_checksum_structure() {
        let a = random_matrix(10, 6, 3);
        let ac = encode_a(&a);
        assert_eq!(ac.shape(), (11, 6));
        for j in 0..6 {
            let s: f64 = a.col(j).iter().sum();
            assert!((ac[(10, j)] - s).abs() < 1e-12);
        }
        let b = random_matrix(6, 9, 4);
        let bc = encode_b(&b);
        assert_eq!(bc.shape(), (6, 10));
        for i in 0..6 {
            let s: f64 = (0..9).map(|j| b[(i, j)]).sum();
            assert!((bc[(i, 9)] - s).abs() < 1e-12);
        }
    }

    #[test]
    fn single_injected_error_is_corrected() {
        let a = random_matrix(40, 40, 5);
        let b = random_matrix(40, 40, 6);
        let expect = matmul(&a, &b);
        let r = ft_dgemm_with(
            &a,
            &b,
            &FtDgemmOptions { panel: 10, verify_interval: 2, mode: VerifyMode::Full },
            |p, cf| {
                if p == 1 {
                    cf[(13, 27)] += 1e4;
                }
            },
        );
        assert_eq!(r.stats.corrections, 1);
        assert!(r.c.approx_eq(&expect, 1e-9, 1e-9), "error must be repaired");
    }

    #[test]
    fn multiple_errors_in_distinct_rows_and_columns_corrected() {
        let a = random_matrix(32, 32, 7);
        let b = random_matrix(32, 32, 8);
        let expect = matmul(&a, &b);
        let r = ft_dgemm_with(
            &a,
            &b,
            &FtDgemmOptions { panel: 8, verify_interval: 1, mode: VerifyMode::Full },
            |p, cf| {
                if p == 0 {
                    cf[(3, 5)] -= 77.0;
                    cf[(20, 11)] += 0.5;
                }
            },
        );
        assert_eq!(r.stats.corrections, 2);
        assert!(r.c.approx_eq(&expect, 1e-9, 1e-9));
    }

    #[test]
    fn checksum_row_corruption_is_repaired_without_touching_c() {
        let a = random_matrix(24, 24, 9);
        let b = random_matrix(24, 24, 10);
        let expect = matmul(&a, &b);
        let r = ft_dgemm_with(
            &a,
            &b,
            &FtDgemmOptions { panel: 6, verify_interval: 1, mode: VerifyMode::Full },
            |p, cf| {
                if p == 0 {
                    let m = 24;
                    cf[(m, 4)] += 9.0; // corrupt the checksum row itself
                }
            },
        );
        assert!(r.c.approx_eq(&expect, 1e-9, 1e-9));
        assert_eq!(r.stats.corrections, 0);
        assert!(r.stats.uncorrectable >= 1, "flagged, repaired as checksum rebuild");
    }

    #[test]
    fn error_injected_every_interval_still_converges() {
        let a = random_matrix(30, 30, 11);
        let b = random_matrix(30, 30, 12);
        let expect = matmul(&a, &b);
        let mut hits = 0;
        let r = ft_dgemm_with(
            &a,
            &b,
            &FtDgemmOptions { panel: 5, verify_interval: 1, mode: VerifyMode::Full },
            |_, cf| {
                hits += 1;
                cf[(hits % 30, (hits * 7) % 30)] += 3.0;
            },
        );
        assert!(r.c.approx_eq(&expect, 1e-9, 1e-9));
        assert_eq!(r.stats.corrections as usize, hits);
    }
}
