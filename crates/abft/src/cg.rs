//! FT-CG / FT-Pred-CG: Online-ABFT for the preconditioned conjugate
//! gradient method (Section 2.1, after Chen \[8\]).
//!
//! Unlike the checksum kernels, FT-CG exploits algorithm-inherent
//! invariants (the paper's Equations (1)): at any iteration
//! `r + A x = b`, and `q = A p` whenever `q` is live. Two layers run at
//! every examination point:
//!
//! 1. **Incrementally maintained scalar checksums.** Plain and weighted
//!    sums of `r, p, q, x` are carried through the Figure 1 updates
//!    without ever reading the (possibly corrupted) vectors:
//!    `S_q = (e^T A) p_prev` (a dot with the precomputed operator column
//!    sums), `S_x += alpha S_p`, `S_r -= alpha S_q`,
//!    `S_p = S_z + beta S_p` with `S_z` derived from the verified `r`.
//!    A mismatch names the corrupted vector, and the
//!    `(delta, weighted delta)` pair pins the corrupted element.
//! 2. **The residual invariant.** `||b - A x - r||` is checked with one
//!    extra matrix-vector product (this is why FT-CG's error-correction
//!    cost "is comparable to compute a matrix-vector multiplication");
//!    anything the checksums could not repair is corrected by
//!    recomputation (`r := b - A x`, `q := A p`).

use crate::checksum::{vector_sums, Violation};
use crate::cost;
use crate::verify::{due, FtStats, VerifyMode};
use abft_linalg::blas1::dot;
use abft_linalg::{CgControl, CgState, CsrMatrix, JacobiPrecond, LinearOperator, Preconditioner};

/// FT-CG options.
#[derive(Debug, Clone)]
pub struct FtCgOptions {
    /// Convergence tolerance on the relative residual.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Examine invariants every `verify_interval` iterations.
    pub verify_interval: usize,
    /// Verification strategy.
    pub mode: VerifyMode,
}

impl Default for FtCgOptions {
    fn default() -> Self {
        FtCgOptions { tol: 1e-10, max_iter: 2000, verify_interval: 5, mode: VerifyMode::Full }
    }
}

/// Result of an FT-CG run.
#[derive(Debug, Clone)]
pub struct FtCgResult {
    /// The solution iterate.
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final true residual norm.
    pub residual_norm: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Fault-tolerance accounting.
    pub stats: FtStats,
}

/// Relative tolerance for the scalar-checksum comparison.
const SUM_RTOL: f64 = 1e-7;

/// Plain and weighted sums of one tracked vector.
#[derive(Debug, Clone, Copy, Default)]
struct Sums {
    s: f64,
    ws: f64,
}

impl Sums {
    fn of(v: &[f64]) -> Self {
        let (s, ws) = vector_sums(v);
        Sums { s, ws }
    }
}

/// Verify one vector against its maintained sums, repairing a single
/// corrupted element. `Ok(true)` = repaired, `Ok(false)` = clean,
/// `Err(())` = mismatch the sums could not localize.
fn check_vector(v: &mut [f64], maintained: Sums, stats: &mut FtStats) -> Result<bool, ()> {
    let (s, ws) = vector_sums(v);
    stats.verify += cost::col_sums(v.len(), 1, 2);
    let scale = s.abs().max(maintained.s.abs()).max(1.0);
    let d = s - maintained.s;
    if d.abs() <= SUM_RTOL * scale * (v.len() as f64).sqrt() {
        return Ok(false);
    }
    let viol = Violation { index: 0, delta: d, weighted_delta: ws - maintained.ws };
    match viol.locate(v.len()) {
        Some(i) => {
            v[i] -= d;
            stats.corrections += 1;
            Ok(true)
        }
        None => Err(()),
    }
}

/// The incremental checksum carrier.
struct Carrier {
    /// `A e` (= `(e^T A)^T` for the symmetric operators CG admits).
    a_e: Vec<f64>,
    /// `A w` with `w = (1, 2, ..., n)`.
    a_w: Vec<f64>,
    /// Jacobi inverse diagonal (for `S_z` from `r`).
    inv_diag: Vec<f64>,
    r: Sums,
    p: Sums,
    q: Sums,
    x: Sums,
    /// Copy of `p` at the end of the previous iteration (the `p` that this
    /// iteration's `q = A p` consumed).
    p_prev: Vec<f64>,
}

impl Carrier {
    /// Advance the maintained sums across one CG iteration, *without*
    /// reading the updated vectors.
    fn advance(&mut self, alpha: f64) {
        self.q = Sums { s: dot(&self.a_e, &self.p_prev), ws: dot(&self.a_w, &self.p_prev) };
        self.x = Sums { s: self.x.s + alpha * self.p.s, ws: self.x.ws + alpha * self.p.ws };
        self.r = Sums { s: self.r.s - alpha * self.q.s, ws: self.r.ws - alpha * self.q.ws };
    }

    /// Complete the p-sum recurrence: `S_p = S_z + beta S_p` with the z
    /// sums derived elementwise from the residual exactly as line 7
    /// computes `z = M^{-1} r`. Must run on the same `r` value CG used
    /// (i.e. before any injected corruption of this observer round), so a
    /// propagated error stays consistent with `p` while an independent
    /// `r` strike is still caught by the maintained `S_r`.
    fn refresh_p_from(&mut self, r: &[f64], beta: f64) {
        let mut sz = 0.0;
        let mut wsz = 0.0;
        for (i, (&ri, &di)) in r.iter().zip(&self.inv_diag).enumerate() {
            let zi = ri * di;
            sz += zi;
            wsz += (i + 1) as f64 * zi;
        }
        self.p = Sums { s: sz + beta * self.p.s, ws: wsz + beta * self.p.ws };
    }

    /// Re-derive every sum from vectors known to be consistent (after a
    /// repair-by-recomputation).
    fn rebaseline(&mut self, st: &CgState) {
        self.r = Sums::of(&st.r);
        self.p = Sums::of(&st.p);
        self.q = Sums::of(&st.q);
        self.x = Sums::of(&st.x);
    }
}

/// Run FT-Pred-CG on a CSR operator with Jacobi preconditioning.
///
/// `inject(iter, state)` fires at the end of each iteration before
/// verification (the BIFIT hook).
pub fn ft_pcg_with<F>(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &FtCgOptions,
    inject: F,
) -> FtCgResult
where
    F: FnMut(usize, &mut CgState),
{
    let diag = a.diagonal();
    ft_pcg_operator_with(a, &diag, b, x0, opts, inject)
}

/// Run FT-Pred-CG on any symmetric positive-definite [`LinearOperator`]
/// (dense matrices included) with Jacobi preconditioning from the supplied
/// diagonal.
///
/// The operator must be symmetric — the checksum carrier exploits
/// `e^T A = (A e)^T` to maintain `S_q` without forming `A^T`.
pub fn ft_pcg_operator_with<O, F>(
    a: &O,
    diag: &[f64],
    b: &[f64],
    x0: &[f64],
    opts: &FtCgOptions,
    mut inject: F,
) -> FtCgResult
where
    O: LinearOperator + ?Sized,
    F: FnMut(usize, &mut CgState),
{
    let n = a.dim();
    assert_eq!(diag.len(), n, "diagonal dimension mismatch");
    let m = JacobiPrecond::new(diag);
    let mut stats = FtStats::default();
    let apply = cost::spmv(a.nnz(), n);
    let sums = cost::col_sums(n, 1, 2);
    // Figure 1, lines 3-11: q = A p; p . q, r . z and the convergence norm;
    // the x, r and p updates; the Jacobi solve.
    let iteration = apply + cost::dot(n) * 3 + cost::axpy(n) * 3 + cost::diag_solve(n);
    // Carrying the sums across it: two dots against p for S_q; the plain
    // and weighted sums of z = M^{-1} r, formed and summed in one sweep.
    let maintenance = cost::dot(n) * 2 + cost::weighted_dot(n);

    // --- checksum setup -------------------------------------------------
    let ones = vec![1.0; n];
    let wvec: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    let inv_diag: Vec<f64> = diag.iter().map(|d| 1.0 / d).collect();
    // Initial state mirrors pcg's line 1: r0 = b - A x0, p0 = z0.
    let mut r0 = a.apply_vec(x0);
    for (ri, &bi) in r0.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let mut z0 = vec![0.0; n];
    m.solve(&r0, &mut z0);
    let mut carrier = Carrier {
        a_e: a.apply_vec(&ones),
        a_w: a.apply_vec(&wvec),
        inv_diag,
        r: Sums::of(&r0),
        p: Sums::of(&z0),
        q: Sums::default(),
        x: Sums::of(x0),
        p_prev: z0,
    };
    let b_sums = Sums::of(b);
    // r0 and z0 as line 1 computes them, A e and A w, the inverse
    // diagonal, and the sums of r0, z0, x0 and b.
    stats.checksum += apply * 3 + cost::axpy(n) + cost::diag_solve(n) + cost::scal(n) + sums * 4;

    // Line 1: r0 = b - A x0, z0 = M^{-1} r0, rho0 = r0 . z0.
    stats.compute += apply + cost::axpy(n) + cost::diag_solve(n) + cost::dot(n);
    let mut result = abft_linalg::pcg_with(a, &m, b, x0, opts.tol, opts.max_iter, |st| {
        stats.compute += iteration;

        // --- checksum maintenance ---------------------------------------
        carrier.advance(st.alpha);
        carrier.refresh_p_from(&st.r, st.beta);
        stats.checksum += maintenance;

        inject(st.iter, st);

        if due(st.iter - 1, opts.max_iter, opts.verify_interval) {
            stats.verifications += 1;
            match &opts.mode {
                VerifyMode::Full => {
                    let mut need_recompute = false;
                    // Order matters: x and q validate against their own
                    // sums; r is verified next; p is completed from the
                    // verified r.
                    if check_vector(&mut st.x, carrier.x, &mut stats).is_err() {
                        need_recompute = true;
                    }
                    if check_vector(&mut st.q, carrier.q, &mut stats).is_err() {
                        need_recompute = true;
                    }
                    if check_vector(&mut st.r, carrier.r, &mut stats).is_err() {
                        need_recompute = true;
                    }
                    // b is read-only: verify against its static sums.
                    // (b is owned by the caller; corruption of b is
                    // detected and reported, not repaired here.) The max
                    // |b| scale of the backstop below rides this sweep.
                    let (sb, _) = vector_sums(b);
                    stats.verify += sums;
                    if (sb - b_sums.s).abs() > SUM_RTOL * sb.abs().max(1.0) * (n as f64).sqrt() {
                        stats.uncorrectable += 1;
                    }
                    if check_vector(&mut st.p, carrier.p, &mut stats).is_err() {
                        need_recompute = true;
                    }

                    // Equation (1) backstop: r + A x =? b, one SpMV.
                    let ax = a.apply_vec(&st.x);
                    stats.verify += apply + cost::axpy(n);
                    let scale = b.iter().fold(1.0_f64, |mm, &v| mm.max(v.abs()));
                    let mut worst: f64 = 0.0;
                    for i in 0..n {
                        worst = worst.max((st.r[i] + ax[i] - b[i]).abs());
                    }
                    if need_recompute || worst > 1e-6 * scale {
                        // Correct by recomputation, and restart the Krylov
                        // direction from the repaired residual: a corrupted
                        // history breaks conjugacy, and CG can stagnate on
                        // a stale `p` even with a consistent (r, x) pair.
                        for i in 0..n {
                            st.r[i] = b[i] - ax[i];
                        }
                        let mut z = vec![0.0; n];
                        m.solve(&st.r, &mut z);
                        st.p.copy_from_slice(&z);
                        a.apply(&st.p, &mut st.q);
                        st.rho = dot(&st.r, &z);
                        st.z = z;
                        stats.corrections += 1;
                        carrier.rebaseline(st);
                        stats.verify +=
                            cost::axpy(n) + cost::diag_solve(n) + apply + cost::dot(n) + sums * 4;
                    }
                }
                VerifyMode::HardwareAssisted(ch) => {
                    // Repair only the OS-reported locations: rebuild each
                    // named element from the maintained sums.
                    let reports = ch.poll();
                    stats.verify += cost::poll();
                    for rep in reports {
                        let (vec, maintained): (&mut Vec<f64>, Sums) = match rep.name.as_str() {
                            "vector_r" => (&mut st.r, carrier.r),
                            "vector_p" => (&mut st.p, carrier.p),
                            "vector_q" => (&mut st.q, carrier.q),
                            "vector_x" => (&mut st.x, carrier.x),
                            _ => continue,
                        };
                        let (s, ws) = vector_sums(vec);
                        stats.verify += sums;
                        let d = s - maintained.s;
                        if d.abs() <= SUM_RTOL * s.abs().max(1.0) {
                            continue;
                        }
                        // The report pins the corrupted cache line; the sum
                        // delta repairs the element within it: the one whose
                        // repair restores the weighted sum too.
                        let lo = rep.element;
                        let hi = (rep.element + 8).min(vec.len());
                        let wd = ws - maintained.ws;
                        for (e, v) in vec.iter_mut().enumerate().take(hi).skip(lo) {
                            if ((e + 1) as f64 * d - wd).abs() <= 1e-6 * wd.abs().max(1.0) {
                                *v -= d;
                                stats.corrections += 1;
                                break;
                            }
                        }
                    }
                }
            }
        }
        // Remember p for next iteration's S_q. Not counted: the algorithm
        // takes S_q at line 3 from the live p; the copy exists because
        // this observer runs after line 10 has overwritten it.
        carrier.p_prev.copy_from_slice(&st.p);
        CgControl::Continue
    });

    FtCgResult {
        x: std::mem::take(&mut result.x),
        iterations: result.iterations,
        residual_norm: result.residual_norm,
        converged: result.converged,
        stats,
    }
}

/// FT-PCG without fault injection.
pub fn ft_pcg(a: &CsrMatrix, b: &[f64], x0: &[f64], opts: &FtCgOptions) -> FtCgResult {
    ft_pcg_with(a, b, x0, opts, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_faultsim::injector::inject_vector_bit;
    use abft_linalg::poisson_2d;

    fn setup(g: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = poisson_2d(g, g);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        (a, b, vec![0.0; n])
    }

    #[test]
    fn clean_run_converges_like_plain_cg() {
        let (a, b, x0) = setup(24);
        let r = ft_pcg(&a, &b, &x0, &FtCgOptions::default());
        assert!(r.converged, "residual {}", r.residual_norm);
        assert_eq!(r.stats.corrections, 0);
        assert_eq!(r.stats.uncorrectable, 0);
        let plain = abft_linalg::pcg(&a, &JacobiPrecond::from_csr(&a), &b, &x0, 1e-10, 2000);
        assert_eq!(r.iterations, plain.iterations, "FT layer must not change the math");
    }

    #[test]
    fn generic_operator_path_matches_csr_entry_point() {
        // `ft_pcg` is sugar over `ft_pcg_operator_with` with the CSR
        // diagonal; driving the generic entry point directly must be
        // bit-identical.
        let (a, b, x0) = setup(16);
        let opts = FtCgOptions::default();
        let via_csr = ft_pcg(&a, &b, &x0, &opts);
        let via_operator = ft_pcg_operator_with(&a, &a.diagonal(), &b, &x0, &opts, |_, _| {});
        assert!(via_operator.converged);
        assert_eq!(via_operator.iterations, via_csr.iterations);
        assert_eq!(via_operator.residual_norm.to_bits(), via_csr.residual_norm.to_bits());
        assert_eq!(via_operator.x, via_csr.x);
    }

    #[test]
    fn single_element_corruption_in_x_is_repaired() {
        let (a, b, x0) = setup(24);
        let r = ft_pcg_with(
            &a,
            &b,
            &x0,
            &FtCgOptions { verify_interval: 3, ..Default::default() },
            |it, st| {
                if it == 6 {
                    inject_vector_bit(&mut st.x, 100, 55);
                }
            },
        );
        assert!(r.converged, "must converge despite the flip");
        assert!(r.stats.corrections >= 1);
    }

    #[test]
    fn stale_corruption_between_verifications_is_still_caught() {
        // Inject at iteration 4; the next verification is at 6. The
        // incrementally-maintained sums must not absorb the corruption.
        let (a, b, x0) = setup(24);
        let r = ft_pcg_with(
            &a,
            &b,
            &x0,
            &FtCgOptions { verify_interval: 3, ..Default::default() },
            |it, st| {
                if it == 4 {
                    st.x[33] += 1000.0;
                }
            },
        );
        assert!(r.converged);
        assert!(r.stats.corrections >= 1, "stale error must be detected at iter 6");
    }

    #[test]
    fn multi_error_in_r_repaired_by_invariant_recomputation() {
        let (a, b, x0) = setup(24);
        let r = ft_pcg_with(
            &a,
            &b,
            &x0,
            &FtCgOptions { verify_interval: 2, ..Default::default() },
            |it, st| {
                if it == 4 {
                    st.r[7] += 100.0;
                    st.r[300] -= 3.0; // two errors: scalar checksum cannot fix
                }
            },
        );
        assert!(r.converged);
        assert!(r.stats.corrections >= 1, "invariant recomputation repaired r");
    }

    #[test]
    fn corruption_in_p_is_repaired() {
        let (a, b, x0) = setup(20);
        let r = ft_pcg_with(
            &a,
            &b,
            &x0,
            &FtCgOptions { verify_interval: 2, ..Default::default() },
            |it, st| {
                if it == 2 {
                    st.p[50] *= 64.0;
                }
            },
        );
        assert!(r.converged);
        assert!(r.stats.corrections >= 1);
    }

    #[test]
    fn corruption_in_q_is_repaired() {
        let (a, b, x0) = setup(20);
        let r = ft_pcg_with(
            &a,
            &b,
            &x0,
            &FtCgOptions { verify_interval: 2, ..Default::default() },
            |it, st| {
                if it == 2 {
                    st.q[9] -= 5.0e3;
                }
            },
        );
        assert!(r.converged);
        assert!(r.stats.corrections >= 1);
    }

    #[test]
    fn dense_operator_ft_cg_converges_and_repairs() {
        use abft_linalg::gen::{random_spd, random_vector};
        let n = 120;
        let a = random_spd(n, 77);
        let x_true = random_vector(n, 78);
        let b = a.matvec(&x_true);
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        let r = ft_pcg_operator_with(
            &a,
            &diag,
            &b,
            &vec![0.0; n],
            &FtCgOptions { verify_interval: 3, max_iter: 500, ..Default::default() },
            |it, st| {
                if it == 6 {
                    st.x[40] += 1e6;
                }
            },
        );
        assert!(r.converged, "residual {}", r.residual_norm);
        assert!(r.stats.corrections >= 1);
        for (i, (xi, ti)) in r.x.iter().zip(&x_true).enumerate() {
            assert!((xi - ti).abs() < 1e-5, "x[{i}]");
        }
    }

    #[test]
    fn repaired_run_tracks_clean_iteration_count() {
        let (a, b, x0) = setup(20);
        let clean = ft_pcg(&a, &b, &x0, &FtCgOptions::default());
        let hit = ft_pcg_with(
            &a,
            &b,
            &x0,
            &FtCgOptions { verify_interval: 4, ..Default::default() },
            |it, st| {
                if it == 8 {
                    st.x[11] += 1e8;
                }
            },
        );
        assert!(hit.converged);
        assert!(
            hit.iterations <= clean.iterations + 8,
            "repaired: {} vs clean: {}",
            hit.iterations,
            clean.iterations
        );
    }
}
