//! Level-2 BLAS kernels: dense matrix-vector products and the packed
//! triangular solves of the LU `solve` path.

use crate::matrix::Matrix;

/// `y = alpha * A x + beta * y`.
pub fn gemv(alpha: f64, a: &Matrix, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), a.cols(), "gemv x dimension mismatch");
    assert_eq!(y.len(), a.rows(), "gemv y dimension mismatch");
    if beta != 1.0 {
        for yi in y.iter_mut() {
            *yi *= beta;
        }
    }
    for (j, &xj) in x.iter().enumerate() {
        let axj = alpha * xj;
        if axj == 0.0 {
            continue;
        }
        for (yi, &aij) in y.iter_mut().zip(a.col(j)) {
            *yi += aij * axj;
        }
    }
}

/// Solve `L x = b` in place for lower-triangular `L` (forward
/// substitution); `unit` treats the diagonal as ones.
pub fn trsv_lower(l: &Matrix, x: &mut [f64], unit: bool) {
    let n = l.rows();
    assert!(l.is_square(), "triangular solve needs a square matrix");
    assert_eq!(x.len(), n, "trsv dimension mismatch");
    for i in 0..n {
        let mut s = x[i];
        for p in 0..i {
            s -= l[(i, p)] * x[p];
        }
        x[i] = if unit { s } else { s / l[(i, i)] };
    }
}

/// Solve `U x = b` in place for upper-triangular `U` (back substitution).
pub fn trsv_upper(u: &Matrix, x: &mut [f64], unit: bool) {
    let n = u.rows();
    assert!(u.is_square(), "triangular solve needs a square matrix");
    assert_eq!(x.len(), n, "trsv dimension mismatch");
    for i in (0..n).rev() {
        let mut s = x[i];
        for p in i + 1..n {
            s -= u[(i, p)] * x[p];
        }
        x[i] = if unit { s } else { s / u[(i, i)] };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_matrix, random_vector};

    #[test]
    fn gemv_matches_matvec() {
        let a = random_matrix(9, 7, 1);
        let x = random_vector(7, 2);
        let mut y = vec![0.0; 9];
        gemv(1.0, &a, &x, 0.0, &mut y);
        let reference = a.matvec(&x);
        for (u, v) in y.iter().zip(&reference) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn gemv_alpha_beta() {
        let a = random_matrix(4, 4, 3);
        let x = random_vector(4, 4);
        let mut y = vec![1.0; 4];
        gemv(2.0, &a, &x, 0.5, &mut y);
        let reference = a.matvec(&x);
        for (i, yi) in y.iter().enumerate() {
            assert!((yi - (2.0 * reference[i] + 0.5)).abs() < 1e-14);
        }
    }

    #[test]
    fn triangular_solves_round_trip() {
        let mut l = random_matrix(8, 8, 7).tril();
        for i in 0..8 {
            l[(i, i)] += 8.0;
        }
        let x_true = random_vector(8, 8);
        let b = l.matvec(&x_true);
        let mut x = b.clone();
        trsv_lower(&l, &mut x, false);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-10);
        }
        let u = l.transpose();
        let b = u.matvec(&x_true);
        let mut x = b.clone();
        trsv_upper(&u, &mut x, false);
        for (p, v) in x.iter().zip(&x_true) {
            assert!((p - v).abs() < 1e-10);
        }
    }

    #[test]
    fn unit_triangular_solve() {
        let mut l = random_matrix(5, 5, 9).tril();
        for i in 0..5 {
            l[(i, i)] = 1.0;
        }
        let x_true = random_vector(5, 10);
        let b = l.matvec(&x_true);
        let mut x = b.clone();
        trsv_lower(&l, &mut x, true);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-12);
        }
    }
}
