//! Preconditioned conjugate gradient, matching the paper's Figure 1
//! pseudocode line by line, over a generic SPD operator.

use crate::blas1::{axpy, dot, nrm2, xpby};
use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;

/// An SPD linear operator `y = A x`.
pub trait LinearOperator {
    /// Problem dimension.
    fn dim(&self) -> usize;
    /// Stored entries one application reads (what its cost scales with).
    fn nnz(&self) -> usize;
    /// Apply the operator into `y`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// `|A| e`: each row's sum of absolute entries, what the rounding of
    /// one application scales with.
    fn abs_row_sums(&self) -> Vec<f64>;
    /// Apply and allocate.
    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.apply(x, &mut y);
        y
    }
}

impl LinearOperator for Matrix {
    fn dim(&self) -> usize {
        self.rows()
    }
    fn nnz(&self) -> usize {
        self.rows() * self.cols()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        crate::blas2::gemv(1.0, self, x, 1.0, y);
    }
    fn abs_row_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.rows()];
        for j in 0..self.cols() {
            for (s, v) in sums.iter_mut().zip(self.col(j)) {
                *s += v.abs();
            }
        }
        sums
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        self.rows()
    }
    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_into(x, y);
    }
    fn abs_row_sums(&self) -> Vec<f64> {
        CsrMatrix::abs_row_sums(self)
    }
}

/// A preconditioner solving `M z = r` (line 7 of Figure 1).
pub trait Preconditioner {
    /// Apply `z = M^{-1} r`.
    fn solve(&self, r: &[f64], z: &mut [f64]);
}

/// Jacobi (diagonal) preconditioner `M = diag(A)`.
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Build from a diagonal; every entry must be nonzero.
    pub fn new(diag: &[f64]) -> Self {
        assert!(diag.iter().all(|&d| d != 0.0), "Jacobi needs a nonzero diagonal");
        Self { inv_diag: diag.iter().map(|d| 1.0 / d).collect() }
    }

    /// Build from the diagonal of a CSR operator.
    pub fn from_csr(a: &CsrMatrix) -> Self {
        Self::new(&a.diagonal())
    }
}

impl Preconditioner for JacobiPrecond {
    fn solve(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, &ri), &di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Mutable CG iteration state — exposed so FT-CG can examine and *correct*
/// the vectors the paper protects with relaxed ECC (`r, p, q, x` and `b`).
#[derive(Debug, Clone)]
pub struct CgState {
    /// Current iterate `x^(i)`.
    pub x: Vec<f64>,
    /// Residual `r^(i) = b - A x^(i)`.
    pub r: Vec<f64>,
    /// Preconditioned residual `z^(i)`.
    pub z: Vec<f64>,
    /// Search direction `p^(i)`.
    pub p: Vec<f64>,
    /// Operator application `q^(i) = A p^(i)`.
    pub q: Vec<f64>,
    /// `rho_i = r^T z`.
    pub rho: f64,
    /// The step length `alpha` used by the latest iteration.
    pub alpha: f64,
    /// The direction-update coefficient `beta` of the latest iteration.
    pub beta: f64,
    /// Iteration counter.
    pub iter: usize,
}

/// Termination report for [`pcg`].
#[derive(Debug, Clone, PartialEq)]
pub struct CgResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final residual norm `||b - A x||_2`.
    pub residual_norm: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Control flow returned by the per-iteration observer.
pub enum CgControl {
    /// Keep iterating.
    Continue,
    /// Stop now (used by fault-injection drivers).
    Abort,
}

/// Preconditioned CG (Figure 1) with a per-iteration observer hook.
///
/// The observer runs at the end of each iteration (after line 10) and may
/// mutate the full state — this is exactly where FT-CG performs its
/// periodic invariant verification and correction.
pub fn pcg_with<O, P, F>(
    a: &O,
    m: &P,
    b: &[f64],
    x0: &[f64],
    tol: f64,
    max_iter: usize,
    mut observer: F,
) -> CgResult
where
    O: LinearOperator + ?Sized,
    P: Preconditioner + ?Sized,
    F: FnMut(&mut CgState) -> CgControl,
{
    let n = a.dim();
    assert_eq!(b.len(), n, "rhs dimension mismatch");
    assert_eq!(x0.len(), n, "x0 dimension mismatch");

    // Line 1: r0 = b - A x0; z0 = M^{-1} r0; p0 = z0; rho0 = r0^T z0.
    let mut st = CgState {
        x: x0.to_vec(),
        r: vec![0.0; n],
        z: vec![0.0; n],
        p: vec![0.0; n],
        q: vec![0.0; n],
        rho: 0.0,
        alpha: 0.0,
        beta: 0.0,
        iter: 0,
    };
    a.apply(&st.x, &mut st.r);
    for (ri, &bi) in st.r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    m.solve(&st.r, &mut st.z);
    st.p.copy_from_slice(&st.z);
    st.rho = dot(&st.r, &st.z);

    let b_norm = nrm2(b).max(f64::MIN_POSITIVE);
    let mut converged = nrm2(&st.r) / b_norm <= tol;

    while !converged && st.iter < max_iter {
        // Line 3: q = A p.
        a.apply(&st.p, &mut st.q);
        // Line 4: alpha = rho / (p^T q).
        let pq = dot(&st.p, &st.q);
        if pq <= 0.0 {
            // Operator not SPD along p (or corrupted); bail out.
            break;
        }
        let alpha = st.rho / pq;
        // Line 5: x += alpha p.
        axpy(alpha, &st.p, &mut st.x);
        // Line 6: r -= alpha q.
        axpy(-alpha, &st.q, &mut st.r);
        // Line 7: solve M z = r.
        m.solve(&st.r, &mut st.z);
        // Line 8: rho_{i+1} = r^T z.
        let rho_next = dot(&st.r, &st.z);
        // Line 9: beta = rho_{i+1} / rho_i.
        let beta = rho_next / st.rho;
        st.rho = rho_next;
        // Line 10: p = z + beta p.
        xpby(&st.z, beta, &mut st.p);
        st.alpha = alpha;
        st.beta = beta;
        st.iter += 1;

        // Line 11: convergence check (+ observer hook).
        if let CgControl::Abort = observer(&mut st) {
            break;
        }
        converged = nrm2(&st.r) / b_norm <= tol;
    }

    // Recompute the true residual for the report (st.r may be recursive).
    let mut true_r = a.apply_vec(&st.x);
    for (ri, &bi) in true_r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    CgResult { residual_norm: nrm2(&true_r), converged, iterations: st.iter, x: st.x }
}

/// Preconditioned CG without an observer.
///
/// # Examples
/// ```
/// use abft_linalg::{pcg, poisson_2d, JacobiPrecond};
///
/// let a = poisson_2d(16, 16);
/// let b = vec![1.0; a.rows()];
/// let r = pcg(&a, &JacobiPrecond::from_csr(&a), &b, &vec![0.0; a.rows()], 1e-10, 500);
/// assert!(r.converged);
/// ```
pub fn pcg<O, P>(a: &O, m: &P, b: &[f64], x0: &[f64], tol: f64, max_iter: usize) -> CgResult
where
    O: LinearOperator + ?Sized,
    P: Preconditioner + ?Sized,
{
    pcg_with(a, m, b, x0, tol, max_iter, |_| CgControl::Continue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_spd, random_vector};
    use crate::sparse::poisson_2d;

    /// Identity preconditioner (plain CG).
    struct IdentityPrecond;

    impl Preconditioner for IdentityPrecond {
        fn solve(&self, r: &[f64], z: &mut [f64]) {
            z.copy_from_slice(r);
        }
    }

    #[test]
    fn cg_solves_dense_spd() {
        let n = 40;
        let a = random_spd(n, 1);
        let x_true = random_vector(n, 2);
        let b = a.matvec(&x_true);
        let res = pcg(&a, &IdentityPrecond, &b, &vec![0.0; n], 1e-12, 500);
        assert!(res.converged, "CG must converge on SPD");
        for (xi, ti) in res.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-6);
        }
    }

    #[test]
    fn jacobi_accelerates_poisson() {
        let a = poisson_2d(20, 20);
        let b = vec![1.0; a.rows()];
        let x0 = vec![0.0; a.rows()];
        let plain = pcg(&a, &IdentityPrecond, &b, &x0, 1e-10, 2000);
        let jac = pcg(&a, &JacobiPrecond::from_csr(&a), &b, &x0, 1e-10, 2000);
        assert!(plain.converged && jac.converged);
        // For the uniform-diagonal Poisson operator Jacobi == scaled identity,
        // so iteration counts match; mainly assert correctness of both paths.
        let mut r = vec![0.0; a.rows()];
        a.spmv_into(&jac.x, &mut r);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn observer_sees_every_iteration_and_can_abort() {
        let a = poisson_2d(8, 8);
        let b = vec![1.0; a.rows()];
        let mut count = 0;
        let res = pcg_with(&a, &IdentityPrecond, &b, &vec![0.0; a.rows()], 1e-12, 100, |st| {
            count += 1;
            assert_eq!(st.iter, count);
            if count == 3 {
                CgControl::Abort
            } else {
                CgControl::Continue
            }
        });
        assert_eq!(res.iterations, 3);
        assert!(!res.converged);
    }

    #[test]
    fn converged_immediately_for_exact_start() {
        let a = random_spd(10, 3);
        let x_true = random_vector(10, 4);
        let b = a.matvec(&x_true);
        let res = pcg(&a, &IdentityPrecond, &b, &x_true, 1e-8, 10);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn orthogonality_invariant_holds_during_iteration() {
        // The FT-CG detection invariant (Equation 1): r + A x = b.
        let a = poisson_2d(10, 10);
        let b: Vec<f64> = (0..100).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let mut ax = vec![0.0; 100];
        pcg_with(&a, &IdentityPrecond, &b, &vec![0.0; 100], 1e-12, 50, |st| {
            a.spmv_into(&st.x, &mut ax);
            for i in 0..100 {
                assert!((st.r[i] + ax[i] - b[i]).abs() < 1e-8, "invariant at iter {}", st.iter);
            }
            CgControl::Continue
        });
    }
}
