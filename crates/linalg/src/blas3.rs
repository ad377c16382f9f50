//! Level-3 BLAS kernels: a column-at-a-time GEMM plus the SYRK/TRSM
//! building blocks the blocked factorizations are made of.

use crate::matrix::Matrix;

/// Transposition flag for [`gemm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// General matrix multiply: `C = alpha * op(A) * op(B) + beta * C`.
///
/// `op(A)` is `m x k`, `op(B)` is `k x n`, `C` is `m x n`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm(alpha: f64, a: &Matrix, ta: Trans, b: &Matrix, tb: Trans, beta: f64, c: &mut Matrix) {
    let (m, ka) = match ta {
        Trans::No => (a.rows(), a.cols()),
        Trans::Yes => (a.cols(), a.rows()),
    };
    let (kb, n) = match tb {
        Trans::No => (b.rows(), b.cols()),
        Trans::Yes => (b.cols(), b.rows()),
    };
    assert_eq!(ka, kb, "gemm inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    let k = ka;
    if m == 0 || n == 0 {
        return;
    }

    // Hot path: both operands as stored. One column of C at a time; the
    // inner loop is a column-major axpy (jki order), which streams A's
    // columns contiguously.
    match (ta, tb) {
        (Trans::No, Trans::No) => {
            let a_data = a.as_slice();
            let b_data = b.as_slice();
            for (j, c_col) in c.as_mut_slice().chunks_mut(m).enumerate() {
                if beta != 1.0 {
                    if beta == 0.0 {
                        c_col.fill(0.0);
                    } else {
                        for x in c_col.iter_mut() {
                            *x *= beta;
                        }
                    }
                }
                for l in 0..k {
                    let blj = alpha * b_data[j * k + l];
                    if blj == 0.0 {
                        continue;
                    }
                    let a_col = &a_data[l * m..l * m + m];
                    for (ci, &ail) in c_col.iter_mut().zip(a_col) {
                        *ci += ail * blj;
                    }
                }
            }
        }
        (Trans::Yes, Trans::No) => {
            // C[i,j] = sum_l A[l,i] * B[l,j]: dot of two contiguous columns.
            let a_data = a.as_slice();
            let b_data = b.as_slice();
            for (j, c_col) in c.as_mut_slice().chunks_mut(m).enumerate() {
                let b_col = &b_data[j * k..j * k + k];
                for (i, ci) in c_col.iter_mut().enumerate() {
                    let a_col = &a_data[i * k..i * k + k];
                    let s: f64 = a_col.iter().zip(b_col).map(|(x, y)| x * y).sum();
                    *ci = alpha * s + beta * *ci;
                }
            }
        }
        (Trans::No, Trans::Yes) => {
            let a_data = a.as_slice();
            for (j, c_col) in c.as_mut_slice().chunks_mut(m).enumerate() {
                if beta != 1.0 {
                    if beta == 0.0 {
                        c_col.fill(0.0);
                    } else {
                        for x in c_col.iter_mut() {
                            *x *= beta;
                        }
                    }
                }
                for l in 0..k {
                    let blj = alpha * b[(j, l)];
                    if blj == 0.0 {
                        continue;
                    }
                    let a_col = &a_data[l * m..l * m + m];
                    for (ci, &ail) in c_col.iter_mut().zip(a_col) {
                        *ci += ail * blj;
                    }
                }
            }
        }
        (Trans::Yes, Trans::Yes) => {
            for (j, c_col) in c.as_mut_slice().chunks_mut(m).enumerate() {
                for (i, ci) in c_col.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for l in 0..k {
                        s += a[(l, i)] * b[(j, l)];
                    }
                    *ci = alpha * s + beta * *ci;
                }
            }
        }
    }
}

/// Convenience: `C = A * B` freshly allocated.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(1.0, a, Trans::No, b, Trans::No, 0.0, &mut c);
    c
}

/// Symmetric rank-k update on the lower triangle:
/// `C := alpha * A * A^T + beta * C` with only `i >= j` entries written.
///
/// `A` is `n x k`, `C` is `n x n`.
pub fn syrk_lower(alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
    let n = a.rows();
    let k = a.cols();
    assert_eq!(c.shape(), (n, n), "syrk output must be n x n");
    // One column of C's lower triangle at a time.
    let a_data = a.as_slice();
    for (j, c_col) in c.as_mut_slice().chunks_mut(n).enumerate() {
        for (i, ci) in c_col.iter_mut().enumerate().skip(j) {
            let mut s = 0.0;
            for l in 0..k {
                s += a_data[l * n + i] * a_data[l * n + j];
            }
            *ci = alpha * s + beta * *ci;
        }
    }
}

/// Solve `X * op(L)^T = B` in place where `L` is lower triangular with a
/// non-unit diagonal: the ScaLAPACK `DTRSM('R','L','T','N')` used to form
/// `L21 = A21 * L11^{-T}` in the blocked Cholesky.
///
/// `B` is `m x n`, `L` is `n x n`. On return `B` holds `X`.
pub fn trsm_right_lower_trans(l: &Matrix, b: &mut Matrix) {
    let n = l.rows();
    assert!(l.is_square(), "L must be square");
    assert_eq!(b.cols(), n, "trsm dimension mismatch");
    let m = b.rows();
    // X * L^T = B  =>  column j of X: X[:,j] = (B[:,j] - sum_{p<j} X[:,p] L[j,p]) / L[j,j]
    for j in 0..n {
        let ljj = l[(j, j)];
        assert!(ljj != 0.0, "singular triangular factor in trsm");
        for p in 0..j {
            let ljp = l[(j, p)];
            if ljp == 0.0 {
                continue;
            }
            for i in 0..m {
                let xp = b[(i, p)];
                b[(i, j)] -= xp * ljp;
            }
        }
        for i in 0..m {
            b[(i, j)] /= ljj;
        }
    }
}

/// Solve `L * X = B` in place with **unit** lower-triangular `L`
/// (the LU panel update `DTRSM('L','L','N','U')`).
pub fn trsm_left_lower_unit(l: &Matrix, b: &mut Matrix) {
    let n = l.rows();
    assert!(l.is_square(), "L must be square");
    assert_eq!(b.rows(), n, "trsm dimension mismatch");
    for j in 0..b.cols() {
        for i in 0..n {
            let mut s = b[(i, j)];
            for p in 0..i {
                s -= l[(i, p)] * b[(p, j)];
            }
            b[(i, j)] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_matrix;

    fn naive_mm(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for l in 0..a.cols() {
                    s += a[(i, l)] * b[(l, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn gemm_matches_naive() {
        let a = random_matrix(37, 23, 1);
        let b = random_matrix(23, 41, 2);
        let c = matmul(&a, &b);
        assert!(c.approx_eq(&naive_mm(&a, &b), 1e-12, 1e-12));
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = random_matrix(8, 8, 3);
        let b = random_matrix(8, 8, 4);
        let mut c = random_matrix(8, 8, 5);
        let expect = naive_mm(&a, &b).scale_clone(2.0).add(&c.scale_clone(0.5));
        gemm(2.0, &a, Trans::No, &b, Trans::No, 0.5, &mut c);
        assert!(c.approx_eq(&expect, 1e-12, 1e-12));
    }

    impl Matrix {
        fn scale_clone(&self, alpha: f64) -> Matrix {
            Matrix::from_fn(self.rows(), self.cols(), |i, j| alpha * self[(i, j)])
        }
    }

    #[test]
    fn gemm_transpose_variants() {
        let a = random_matrix(13, 9, 6);
        let b = random_matrix(9, 11, 7);
        let reference = naive_mm(&a, &b);

        let mut c = Matrix::zeros(13, 11);
        gemm(1.0, &a.transpose(), Trans::Yes, &b, Trans::No, 0.0, &mut c);
        assert!(c.approx_eq(&reference, 1e-12, 1e-12));

        let mut c = Matrix::zeros(13, 11);
        gemm(1.0, &a, Trans::No, &b.transpose(), Trans::Yes, 0.0, &mut c);
        assert!(c.approx_eq(&reference, 1e-12, 1e-12));

        let mut c = Matrix::zeros(13, 11);
        gemm(1.0, &a.transpose(), Trans::Yes, &b.transpose(), Trans::Yes, 0.0, &mut c);
        assert!(c.approx_eq(&reference, 1e-12, 1e-12));
    }

    #[test]
    fn syrk_matches_gemm() {
        let a = random_matrix(17, 5, 8);
        let mut c = Matrix::zeros(17, 17);
        syrk_lower(1.0, &a, 0.0, &mut c);
        let full = naive_mm(&a, &a.transpose());
        for j in 0..17 {
            for i in j..17 {
                assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-12);
            }
            for i in 0..j {
                assert_eq!(c[(i, j)], 0.0, "upper triangle must be untouched");
            }
        }
    }

    #[test]
    fn trsm_right_lower_trans_solves() {
        let l = random_matrix(6, 6, 9).tril();
        let l = {
            let mut l = l;
            for i in 0..6 {
                l[(i, i)] += 6.0; // well conditioned
            }
            l
        };
        let x_true = random_matrix(4, 6, 10);
        let b = naive_mm(&x_true, &l.transpose());
        let mut x = b.clone();
        trsm_right_lower_trans(&l, &mut x);
        assert!(x.approx_eq(&x_true, 1e-10, 1e-10));
    }

    #[test]
    fn trsm_left_lower_unit_solves() {
        let mut lu = random_matrix(6, 6, 11).tril();
        for i in 0..6 {
            lu[(i, i)] = 1.0;
        }
        let x_true = random_matrix(6, 3, 12);
        let b = naive_mm(&lu, &x_true);
        let mut x = b.clone();
        trsm_left_lower_unit(&lu, &mut x);
        assert!(x.approx_eq(&x_true, 1e-10, 1e-10));
    }

    #[test]
    fn gemm_empty_inner_dim_scales_only() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 3);
        let mut c = Matrix::identity(3);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 2.0, &mut c);
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(c[(0, 1)], 0.0);
    }
}
