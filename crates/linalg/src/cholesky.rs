//! Blocked right-looking Cholesky factorization, the regular algorithm the
//! paper's FT-Cholesky (Section 2.1) wraps.
//!
//! The iteration factors the leading `b x b` block `A11 = L11 L11^T`, solves
//! the panel `L21 = A21 L11^{-T}`, updates the trailing matrix
//! `A22 -= L21 L21^T`, and recurses on `A22` — the classic
//! LAPACK/ScaLAPACK `DPOTRF` structure.

use crate::blas3::{syrk_lower, trsm_right_lower_trans};
use crate::matrix::Matrix;

/// Error type for factorizations.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// A pivot was non-positive at the given global index — the input was
    /// not positive definite (or an undetected error corrupted it).
    NotPositiveDefinite { index: usize, value: f64 },
    /// Exact zero pivot in LU even after pivoting.
    Singular { index: usize },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::NotPositiveDefinite { index, value } => {
                write!(f, "matrix not positive definite: pivot {index} = {value:e}")
            }
            FactorError::Singular { index } => write!(f, "singular matrix at column {index}"),
        }
    }
}

impl std::error::Error for FactorError {}

/// Unblocked Cholesky of a whole (diagonal-block) matrix, in place on the
/// lower triangle, strict upper triangle zeroed; `offset` is the block's
/// global index, reported in a [`FactorError::NotPositiveDefinite`].
pub fn potf2(a: &mut Matrix, offset: usize) -> Result<(), FactorError> {
    let n = a.rows();
    for j in 0..n {
        let mut d = a[(j, j)];
        for p in 0..j {
            d -= a[(j, p)] * a[(j, p)];
        }
        if d <= 0.0 {
            return Err(FactorError::NotPositiveDefinite { index: offset + j, value: d });
        }
        let d = d.sqrt();
        a[(j, j)] = d;
        for i in j + 1..n {
            let mut s = a[(i, j)];
            for p in 0..j {
                s -= a[(i, p)] * a[(j, p)];
            }
            a[(i, j)] = s / d;
        }
    }
    // Zero the strictly-upper part of the block so the output is clean L.
    for j in 1..n {
        for i in 0..j {
            a[(i, j)] = 0.0;
        }
    }
    Ok(())
}

/// Blocked right-looking Cholesky: factor `A = L L^T` in place.
///
/// On success the lower triangle of `a` holds `L` and the strict upper
/// triangle is zeroed. `block` is the panel width `b` from the paper.
pub fn cholesky_blocked(a: &mut Matrix, block: usize) -> Result<(), FactorError> {
    assert!(a.is_square(), "Cholesky needs a square matrix");
    assert!(block > 0, "block size must be positive");
    let n = a.rows();
    let mut k = 0;
    while k < n {
        let b = block.min(n - k);
        // (1) factor A11 = L11 L11^T
        let mut a11 = a.submatrix(k, k, b, b);
        potf2(&mut a11, k)?;
        a.set_submatrix(k, k, &a11);

        let rest = n - k - b;
        if rest > 0 {
            // (2) L21 = A21 * L11^{-T}
            let mut a21 = a.submatrix(k + b, k, rest, b);
            trsm_right_lower_trans(&a11, &mut a21);
            a.set_submatrix(k + b, k, &a21);

            // (3) A22 -= L21 L21^T (lower triangle only)
            let mut a22 = a.submatrix(k + b, k + b, rest, rest);
            syrk_lower(-1.0, &a21, 1.0, &mut a22);
            a.set_submatrix(k + b, k + b, &a22);
        }
        k += b;
    }
    // Clean the strict upper triangle (the factorization is in-place; the
    // upper half still holds stale A entries).
    for j in 1..n {
        for i in 0..j {
            a[(i, j)] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{gemm, Trans};
    use crate::gen::random_spd;

    fn check_factor(n: usize, block: usize, seed: u64) {
        let a = random_spd(n, seed);
        let mut l = a.clone();
        cholesky_blocked(&mut l, block).expect("SPD must factor");
        let mut rec = Matrix::zeros(n, n);
        gemm(1.0, &l, Trans::No, &l, Trans::Yes, 0.0, &mut rec);
        assert!(rec.approx_eq(&a, 1e-10, 1e-10), "L L^T must reconstruct A (n={n}, block={block})");
    }

    #[test]
    fn factor_various_blockings() {
        check_factor(1, 1, 1);
        check_factor(10, 3, 2); // block does not divide n
        check_factor(32, 8, 3);
        check_factor(64, 64, 4); // single block
        check_factor(50, 7, 5);
    }

    #[test]
    fn upper_triangle_zeroed() {
        let mut a = random_spd(12, 6);
        cholesky_blocked(&mut a, 4).unwrap();
        for j in 1..12 {
            for i in 0..j {
                assert_eq!(a[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = Matrix::identity(4);
        a[(2, 2)] = -1.0;
        let err = cholesky_blocked(&mut a, 2).unwrap_err();
        match err {
            FactorError::NotPositiveDefinite { index, .. } => assert_eq!(index, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
