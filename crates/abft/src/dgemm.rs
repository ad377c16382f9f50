//! FT-DGEMM: fault-tolerant general matrix multiplication for
//! fail-continue errors (Section 2.1, after Wu et al. \[39\]).
//!
//! The inputs are encoded as
//! `A^c = [A; e^T A]` and `B^c = [B, B e]`, so the product
//! `C^f = A^c B^c` carries both a column-checksum row (`e^T C`) and a
//! row-checksum column (`C e`). Every few k-panels the algorithm examines
//! the checksums, locating an error by the intersection of the violated
//! column and row and repairing it in place.

use crate::checksum::CHECK_RTOL;
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

/// One verification pass over the full-checksum product: locate violated
/// columns and rows, correct single errors at their intersections.
/// `m x n` is the logical (unencoded) size of `C`; `cf` is `(m+1) x (n+1)`.
fn verify_and_correct(cf: &mut Matrix, m: usize, n: usize, stats: &mut FtStats) {
    stats.verify += cost::col_sums(m, n, 1) + cost::col_sums(n, m, 1);
    // Column checksums: e^T C vs row m.
    let mut bad_cols: Vec<(usize, f64)> = Vec::new();
    for j in 0..n {
        let col = cf.col(j);
        let sum: f64 = col[..m].iter().sum();
        let scale = sum.abs().max(col[m].abs()).max(1.0);
        let d = sum - col[m];
        if d.abs() > CHECK_RTOL * scale * m as f64 {
            bad_cols.push((j, d));
        }
    }
    // Row checksums: C e vs column n.
    let mut bad_rows: Vec<(usize, f64)> = Vec::new();
    for i in 0..m {
        let mut sum = 0.0;
        for j in 0..n {
            sum += cf[(i, j)];
        }
        let scale = sum.abs().max(cf[(i, n)].abs()).max(1.0);
        let d = sum - cf[(i, n)];
        if d.abs() > CHECK_RTOL * scale * n as f64 {
            bad_rows.push((i, d));
        }
    }
    if bad_cols.is_empty() && bad_rows.is_empty() {
        return;
    }
    // Greedy intersection matching: a single error at (i, j) produces one
    // violated row i and one violated column j with equal deltas.
    let mut used_rows = vec![false; bad_rows.len()];
    for &(j, dj) in &bad_cols {
        let mut matched = false;
        for (ri, &(i, di)) in bad_rows.iter().enumerate() {
            if used_rows[ri] {
                continue;
            }
            let scale = dj.abs().max(di.abs()).max(1.0);
            if (dj - di).abs() <= 1e-6 * scale {
                cf[(i, j)] -= dj;
                stats.corrections += 1;
                used_rows[ri] = true;
                matched = true;
                break;
            }
        }
        if !matched {
            // Column violated with no matching row: the error sits in the
            // checksum row itself (harmless to C) or is a multi-error
            // pattern — rebuild the column checksum from the data.
            let sum: f64 = cf.col(j)[..m].iter().sum();
            cf[(m, j)] = sum;
            stats.verify += cost::col_sums(m, 1, 1);
            stats.uncorrectable += 1;
        }
    }
    for (ri, &(i, _)) in bad_rows.iter().enumerate() {
        if !used_rows[ri] {
            // Row violated alone: repair the row-checksum entry.
            let mut sum = 0.0;
            for j in 0..n {
                sum += cf[(i, j)];
            }
            cf[(i, n)] = sum;
            stats.verify += cost::col_sums(n, 1, 1);
            stats.uncorrectable += 1;
        }
    }
}

/// Hardware-assisted repair: the OS report pins the corrupted cache line;
/// the column checksum of each covered column gives the error magnitude,
/// and the *row* checksum mismatch locates the row within the line — a
/// handful of O(n) sums instead of a full verification sweep.
fn assisted_repair(
    cf: &mut Matrix,
    m: usize,
    n: usize,
    reports: &[abft_coop_runtime::ErrorReport],
    stats: &mut FtStats,
) {
    for rep in reports {
        for e in rep.element..rep.element + 8 {
            let (i, j) = (e % (m + 1), e / (m + 1)); // column-major layout
            if i >= m || j >= n {
                continue;
            }
            // Column mismatch: the candidate error magnitude.
            let col = cf.col(j);
            let csum: f64 = col[..m].iter().sum();
            stats.verify += cost::col_sums(m, 1, 1);
            let dj = csum - col[m];
            if dj.abs() <= CHECK_RTOL * csum.abs().max(1.0) * m as f64 {
                continue;
            }
            // Row mismatch for this candidate row must agree.
            let mut rsum = 0.0;
            for c in 0..n {
                rsum += cf[(i, c)];
            }
            stats.verify += cost::col_sums(n, 1, 1);
            let di = rsum - cf[(i, n)];
            if (di - dj).abs() <= 1e-6 * dj.abs().max(di.abs()).max(1.0) {
                cf[(i, j)] -= dj;
                stats.corrections += 1;
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

    let mut cf = Matrix::zeros(m + 1, n + 1);
    let panels = k.div_ceil(opts.panel);
    for p in 0..panels {
        let k0 = p * opts.panel;
        let kw = opts.panel.min(k - k0);
        let ap = ac.submatrix(0, k0, m + 1, kw);
        let bp = bc.submatrix(k0, 0, kw, n + 1);
        gemm(1.0, &ap, Trans::No, &bp, Trans::No, 1.0, &mut cf);
        // The checksum row and column ride inside the panel product.
        stats.compute += cost::gemm(m, n, kw);
        stats.checksum += cost::gemm(m + 1, n + 1, kw) - cost::gemm(m, n, kw);

        inject(p, &mut cf);

        if due(p, panels, opts.verify_interval) {
            stats.verifications += 1;
            match &opts.mode {
                VerifyMode::Full => verify_and_correct(&mut cf, m, n, &mut stats),
                VerifyMode::HardwareAssisted(ch) => {
                    let reports = ch.poll();
                    stats.verify += cost::poll();
                    assisted_repair(&mut cf, m, n, &reports, &mut stats);
                }
            }
        }
    }
    FtDgemmResult { c: cf.submatrix(0, 0, m, n), stats }
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
