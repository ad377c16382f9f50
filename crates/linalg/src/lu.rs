//! Blocked LU factorization with partial pivoting — the computational core
//! of High Performance Linpack (HPL), which FT-HPL (Section 2.1) extends
//! with row checksums.

use crate::blas3::{gemm, trsm_left_lower_unit, Trans};
use crate::cholesky::FactorError;
use crate::matrix::Matrix;

/// Result of an LU factorization: the matrix holds `L` (unit lower, below
/// the diagonal) and `U` (upper, including the diagonal) in place, and
/// `pivots[k]` records the row swapped into position `k` at step `k`.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// In-place packed factors.
    pub lu: Matrix,
    /// Pivot row chosen at each elimination step (LAPACK `ipiv`, 0-based).
    pub pivots: Vec<usize>,
}

/// Unblocked panel factorization with partial pivoting of columns
/// `k..k + nb` of `a`, in place. Pivot `j` is searched in rows `j..`, the
/// interchange spans the *whole* rows of `a` (and is recorded in
/// `pivots[j]`), and the elimination updates columns `j + 1..cols`:
/// `k + nb` for the panel of a blocked LU, the full encoded width for a
/// checksum-extended matrix whose extra columns ride along.
pub fn panel_factor(
    a: &mut Matrix,
    k: usize,
    nb: usize,
    cols: usize,
    pivots: &mut [usize],
) -> Result<(), FactorError> {
    let n = a.rows();
    for j in k..k + nb {
        // Find pivot in column j, rows j..n.
        let mut p = j;
        let mut pmax = a[(j, j)].abs();
        for i in j + 1..n {
            let v = a[(i, j)].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax == 0.0 {
            return Err(FactorError::Singular { index: j });
        }
        pivots[j] = p;
        if p != j {
            a.swap_rows(p, j);
        }
        // Scale multipliers and apply rank-1 update within the panel.
        let piv = a[(j, j)];
        for i in j + 1..n {
            a[(i, j)] /= piv;
        }
        for c in j + 1..cols {
            let ujc = a[(j, c)];
            if ujc == 0.0 {
                continue;
            }
            for i in j + 1..n {
                let lij = a[(i, j)];
                a[(i, c)] -= lij * ujc;
            }
        }
    }
    Ok(())
}

/// Blocked right-looking LU with partial pivoting.
pub fn lu_blocked(mut a: Matrix, block: usize) -> Result<LuFactors, FactorError> {
    assert!(a.is_square(), "LU needs a square matrix");
    assert!(block > 0, "block size must be positive");
    let n = a.rows();
    let mut pivots = vec![0usize; n];
    let mut k = 0;
    while k < n {
        let nb = block.min(n - k);
        panel_factor(&mut a, k, nb, k + nb, &mut pivots)?;

        let rest = n - k - nb;
        if rest > 0 {
            // U12 = L11^{-1} A12 (unit lower triangular solve).
            let l11 = a.submatrix(k, k, nb, nb);
            let mut a12 = a.submatrix(k, k + nb, nb, rest);
            trsm_left_lower_unit(&l11, &mut a12);
            a.set_submatrix(k, k + nb, &a12);

            // A22 -= L21 * U12.
            let l21 = a.submatrix(k + nb, k, rest, nb);
            let mut a22 = a.submatrix(k + nb, k + nb, rest, rest);
            gemm(-1.0, &l21, Trans::No, &a12, Trans::No, 1.0, &mut a22);
            a.set_submatrix(k + nb, k + nb, &a22);
        }
        k += nb;
    }
    Ok(LuFactors { lu: a, pivots })
}

impl LuFactors {
    /// Apply the recorded row interchanges to a right-hand side.
    pub fn apply_pivots(&self, b: &mut [f64]) {
        for (k, &p) in self.pivots.iter().enumerate() {
            if p != k {
                b.swap(k, p);
            }
        }
    }

    /// Solve `A x = b` using the packed factors (`P A = L U`).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut x = b.to_vec();
        self.apply_pivots(&mut x);
        // The packed factors solve in place: unit-L forward substitution
        // reads the strict lower triangle, U back substitution the rest.
        crate::blas2::trsv_lower(&self.lu, &mut x, true);
        crate::blas2::trsv_upper(&self.lu, &mut x, false);
        x
    }

    /// Extract the unit-lower-triangular `L` factor.
    pub fn l(&self) -> Matrix {
        let n = self.lu.rows();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                self.lu[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// Extract the upper-triangular `U` factor.
    pub fn u(&self) -> Matrix {
        self.lu.triu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_diag_dominant, random_matrix, random_vector};

    fn check_lu(n: usize, block: usize, seed: u64) {
        let a = random_matrix(n, n, seed);
        let f = lu_blocked(a.clone(), block).expect("random dense should factor");
        let mut pa = a;
        for (k, &p) in f.pivots.iter().enumerate() {
            pa.swap_rows(k, p);
        }
        assert!(
            crate::blas3::matmul(&f.l(), &f.u()).approx_eq(&pa, 1e-10, 1e-10),
            "L U must equal P A (n={n}, block={block})"
        );
    }

    #[test]
    fn factor_various_blockings() {
        check_lu(1, 1, 1);
        check_lu(13, 4, 2);
        check_lu(32, 8, 3);
        check_lu(40, 40, 4);
        check_lu(33, 5, 5);
    }

    #[test]
    fn solve_round_trip() {
        let n = 30;
        let a = random_diag_dominant(n, 6);
        let x_true = random_vector(n, 7);
        let b = a.matvec(&x_true);
        let f = lu_blocked(a, 8).unwrap();
        let x = f.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let f = lu_blocked(a, 1).unwrap();
        assert_eq!(f.pivots[0], 1);
        let x = f.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::zeros(3, 3);
        assert!(matches!(lu_blocked(a, 1), Err(FactorError::Singular { index: 0 })));
    }
}
