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
//!
//! Every comparison is the detection rule of [`crate::checksum`]. Each
//! maintained sum carries a magnitude through the recurrences it rides
//! (the sum of the absolute values of every term it took, so at least
//! `sum |v_i|` of its vector and of every update's rounding) and the
//! rounding steps on it:
//!
//! * `q = A p`: `S_q = (A e) . p` with magnitude `(|A| e) . |p|`, which
//!   also bounds `e^T |A| |p|`, the rounding of the data's `A p` summed
//!   (`A` is symmetric); `2n` steps;
//! * `x += alpha p`, `r -= alpha q`, `p = z + beta p`: the magnitude adds
//!   `|alpha|` (or `|beta|`) times the other operand's, and the steps
//!   become the larger operand's plus 2 (the data's and the sum's update
//!   round once each, and the older rounding is carried in the
//!   magnitude); `S_z` takes `sum |z_i|` in the sweep that forms it.
//!
//! The Eq. (1) backstop checks `r_i + (A x)_i - b_i` against
//! `|r_i| + (|A| e)_i max|x| + |b_i|`, plus the gap the recursive residual
//! may have drifted from `b - A x` since the last rebaseline: each
//! iteration's `x` and `r` updates and `A p` round every element by at
//! most `u (|alpha| (||A|| M_p + M_q) + M_r + ||A|| M_x)` times `n` steps,
//! with `M` the magnitudes above (bounds on max-norms too) and `||A||` the
//! largest absolute row sum.

use crate::checksum::{repair_reported, significant, Sums, Violation};
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

/// Plain and weighted sums of one tracked vector, with the bound their
/// rounding carries (module doc): `mag` and the steps `terms` on it.
#[derive(Debug, Clone, Copy, Default)]
struct Tracked {
    s: f64,
    ws: f64,
    mag: f64,
    terms: usize,
}

impl Tracked {
    fn of(v: &[f64]) -> Self {
        let x = Sums::of(v);
        Tracked { s: x.plain, ws: x.weighted, mag: x.abs, terms: v.len() }
    }

    /// `self + c * other`, the sums riding an axpy.
    fn axpy(self, c: f64, other: Tracked) -> Self {
        Tracked {
            s: self.s + c * other.s,
            ws: self.ws + c * other.ws,
            mag: self.mag + c.abs() * other.mag,
            terms: self.terms.max(other.terms) + 2,
        }
    }

    /// Compare `v` with the maintained sums.
    fn violation(&self, v: &[f64]) -> Option<Violation> {
        Violation::of(0, Sums::of(v), (self.s, self.ws), self.mag, self.terms)
    }
}

/// Verify one vector against its maintained sums, repairing a single
/// corrupted element. `Ok(true)` = repaired, `Ok(false)` = clean,
/// `Err(())` = mismatch the sums could not localize.
fn check_vector(v: &mut [f64], maintained: Tracked, stats: &mut FtStats) -> Result<bool, ()> {
    stats.verify += cost::col_sums(v.len(), 1, 2) + cost::abs_sums(v.len(), 1);
    let Some(viol) = maintained.violation(v) else {
        return Ok(false);
    };
    match viol.locate(v.len()) {
        Some(i) => {
            v[i] -= viol.delta;
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
    /// `|A| e`.
    abs_a_e: Vec<f64>,
    /// `||A||`: the largest absolute row sum.
    a_norm: f64,
    /// Jacobi inverse diagonal (for `S_z` from `r`).
    inv_diag: Vec<f64>,
    r: Tracked,
    p: Tracked,
    q: Tracked,
    x: Tracked,
    /// The magnitude of the drift between the recursive `r` and
    /// `b - A x` since the last rebaseline (module doc).
    gap: f64,
    /// Copy of `p` at the end of the previous iteration (the `p` that this
    /// iteration's `q = A p` consumed).
    p_prev: Vec<f64>,
}

impl Carrier {
    /// Advance the maintained sums across one CG iteration, *without*
    /// reading the updated vectors.
    fn advance(&mut self, alpha: f64) {
        let (mut s, mut ws, mut mag) = (0.0, 0.0, 0.0);
        for ((&pi, &ae), (&aw, &abs)) in
            self.p_prev.iter().zip(&self.a_e).zip(self.a_w.iter().zip(&self.abs_a_e))
        {
            s += ae * pi;
            ws += aw * pi;
            mag += abs * pi.abs();
        }
        self.q = Tracked { s, ws, mag, terms: 2 * self.p_prev.len() };
        self.x = self.x.axpy(alpha, self.p);
        self.r = self.r.axpy(-alpha, self.q);
        self.gap += alpha.abs() * (self.a_norm * self.p.mag + self.q.mag)
            + self.r.mag
            + self.a_norm * self.x.mag;
    }

    /// Complete the p-sum recurrence: `S_p = S_z + beta S_p` with the z
    /// sums derived elementwise from the residual exactly as line 7
    /// computes `z = M^{-1} r`. Must run on the same `r` value CG used
    /// (i.e. before any injected corruption of this observer round), so a
    /// propagated error stays consistent with `p` while an independent
    /// `r` strike is still caught by the maintained `S_r`.
    fn refresh_p_from(&mut self, r: &[f64], beta: f64) {
        let mut z = Tracked { terms: r.len(), ..Tracked::default() };
        for (i, (&ri, &di)) in r.iter().zip(&self.inv_diag).enumerate() {
            let zi = ri * di;
            z.s += zi;
            z.ws += (i + 1) as f64 * zi;
            z.mag += zi.abs();
        }
        self.p = z.axpy(beta, self.p);
    }

    /// Re-derive every sum from vectors known to be consistent (after a
    /// repair-by-recomputation).
    fn rebaseline(&mut self, st: &CgState) {
        self.r = Tracked::of(&st.r);
        self.p = Tracked::of(&st.p);
        self.q = Tracked::of(&st.q);
        self.x = Tracked::of(&st.x);
        self.gap = 0.0;
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
    // The plain, weighted and absolute sums of one vector.
    let sums = cost::col_sums(n, 1, 2) + cost::abs_sums(n, 1);
    // Figure 1, lines 3-11: q = A p; p . q, r . z and the convergence norm;
    // the x, r and p updates; the Jacobi solve.
    let iteration = apply + cost::dot(n) * 3 + cost::axpy(n) * 3 + cost::diag_solve(n);
    // Carrying the sums across it: three dots against p for S_q and its
    // magnitude, in one sweep (p and the three operator vectors streamed
    // once); the plain, weighted and absolute sums of z = M^{-1} r,
    // formed and summed in one sweep.
    let maintenance = cost::dots(n, 3) + cost::weighted_dot(n) + cost::abs_sums(n, 1);

    // --- checksum setup -------------------------------------------------
    let ones = vec![1.0; n];
    let wvec: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    let inv_diag: Vec<f64> = diag.iter().map(|d| 1.0 / d).collect();
    let abs_a_e = a.abs_row_sums();
    let a_norm = abs_a_e.iter().fold(0.0, |m: f64, &v| m.max(v));
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
        abs_a_e,
        a_norm,
        inv_diag,
        r: Tracked::of(&r0),
        p: Tracked::of(&z0),
        q: Tracked::default(),
        x: Tracked::of(x0),
        gap: 0.0,
        p_prev: z0,
    };
    let b_sums = Tracked::of(b);
    // r0 and z0 as line 1 computes them, A e, A w and |A| e, the inverse
    // diagonal, and the sums of r0, z0, x0 and b with their magnitudes.
    stats.checksum += apply * 4 + cost::axpy(n) + cost::diag_solve(n) + cost::scal(n) + sums * 4;

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
                    // detected and reported, not repaired here.)
                    stats.verify += sums;
                    if b_sums.violation(b).is_some() {
                        stats.uncorrectable += 1;
                    }
                    if check_vector(&mut st.p, carrier.p, &mut stats).is_err() {
                        need_recompute = true;
                    }

                    // Equation (1) backstop: r + A x =? b, one SpMV; the
                    // max |x| of its bound rides the same sweep.
                    let ax = a.apply_vec(&st.x);
                    stats.verify += apply + cost::axpy(n);
                    let x_max = st.x.iter().fold(0.0, |m: f64, v| m.max(v.abs()));
                    let drifted = (0..n).any(|i| {
                        let bound =
                            st.r[i].abs() + carrier.abs_a_e[i] * x_max + b[i].abs() + carrier.gap;
                        significant(st.r[i] + ax[i] - b[i], bound, n + 2)
                    });
                    if need_recompute || drifted {
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
                        // Recomputation cannot repair a non-finite iterate:
                        // x is what it starts from.
                        if st.x.iter().all(|v| v.is_finite()) {
                            stats.corrections += 1;
                        } else {
                            stats.uncorrectable += 1;
                        }
                        carrier.rebaseline(st);
                        stats.verify +=
                            cost::axpy(n) + cost::diag_solve(n) + apply + cost::dot(n) + sums * 4;
                    }
                }
                VerifyMode::HardwareAssisted(ch) => {
                    // Repair only the OS-reported locations: in the named
                    // line, the element the maintained sums name.
                    let reports = ch.poll();
                    stats.verify += cost::poll();
                    for rep in reports {
                        let (vec, maintained): (&mut Vec<f64>, Tracked) = match rep.name.as_str() {
                            "vector_r" => (&mut st.r, carrier.r),
                            "vector_p" => (&mut st.p, carrier.p),
                            "vector_q" => (&mut st.q, carrier.q),
                            "vector_x" => (&mut st.x, carrier.x),
                            _ => continue,
                        };
                        stats.verify += sums;
                        let Some(v) = maintained.violation(vec) else {
                            continue;
                        };
                        let line = rep.element..(rep.element + 8).min(vec.len());
                        if repair_reported(vec, &v, line, maintained.s).is_some() {
                            stats.verify += cost::col_sums(n, 1, 1);
                            stats.corrections += 1;
                        } else {
                            stats.uncorrectable += 1;
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
