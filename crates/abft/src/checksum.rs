//! Checksum encodings shared by the checksum-based ABFT kernels, and the
//! one rule that decides whether a checksum mismatch is a fault.
//!
//! The plain checksum vector is `e = (1, 1, ..., 1)`; the weighted vector
//! is `w = (1, 2, ..., n)`. Together they locate and correct a single
//! error per protected column: a plain-sum mismatch `d` in column `j` and
//! a weighted mismatch `wd` pin the corrupted row at `wd / d` and the
//! magnitude at `d` (Section 2.1's "sophisticated checksum vectors").
//!
//! # The detection rule
//!
//! Every detection, location and match comparison of every kernel asks
//! `significant`: a mismatch `delta` between two sums is a fault unless
//! `|delta| <= 2 * terms * u * magnitude`, `u = 2^-53`. Summing `terms`
//! terms whose absolute values add to `magnitude` rounds by at most
//! `gamma_terms * magnitude ~ terms * u * magnitude`, whatever the order;
//! the factor 2 is one such bound for the recomputed sum and one for the
//! stored one. What counts as the magnitude depends on the checksum:
//!
//! * encoded once from the data it guards (`ColChecksums::encode`): the
//!   larger of `sum |a_i|` at encode and `sum |a_i|` of the sum being
//!   recomputed, taken in the same pass. A clean recompute in the encode
//!   order gives `delta = 0` exactly;
//! * riding the kernel's own updates: a magnitude carried beside the sums,
//!   updated with the absolute value of every update (`Bound` for
//!   FT-Cholesky; FT-DGEMM, FT-HPL and FT-CG state theirs in their module
//!   docs). A kernel whose updates add rounding steps widens its `terms`.
//!
//! The bound scales with the data, so detection does not depend on its
//! units, and the test is written so that a NaN or infinite mismatch is
//! always significant.

use abft_linalg::blas3::trsm_right_lower_trans;
use abft_linalg::Matrix;
use std::ops::Range;

/// Unit roundoff of round-to-nearest f64 arithmetic, `2^-53`.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// The detection rule: whether `delta`, the difference of two sums whose
/// rounding is bounded by `terms` steps on `magnitude`, is more than
/// rounding. True unless `|delta| <= 2 * terms * u * magnitude` (see the
/// module doc): `<=` is false for a NaN, and no bound, not even the
/// infinite one of an infinite magnitude, admits an infinite `delta`.
pub(crate) fn significant(delta: f64, magnitude: f64, terms: usize) -> bool {
    !(delta.abs() <= 2.0 * terms as f64 * UNIT_ROUNDOFF * magnitude && delta.is_finite())
}

/// Plain, weighted and absolute sums of a vector, taken in one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Sums {
    pub(crate) plain: f64,
    pub(crate) weighted: f64,
    pub(crate) abs: f64,
}

impl Sums {
    pub(crate) fn of(v: &[f64]) -> Self {
        let mut s = Sums::default();
        for (i, &x) in v.iter().enumerate() {
            s.plain += x;
            s.weighted += (i + 1) as f64 * x;
            s.abs += x.abs();
        }
        s
    }
}

/// A detected checksum violation in one column (or row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// The column (or row) index where the sums disagree.
    pub index: usize,
    /// Plain-sum mismatch (observed minus expected).
    pub delta: f64,
    /// Weighted-sum mismatch.
    pub weighted_delta: f64,
    /// The magnitude the plain sums' rounding scales with.
    pub magnitude: f64,
    /// The rounding steps the bound allows on that magnitude.
    pub terms: usize,
}

impl Violation {
    /// Compare a column's recomputed sums with its stored ones: a
    /// violation when the plain mismatch is significant against the larger
    /// of the carried `magnitude` and the recomputed absolute sum.
    pub(crate) fn of(
        index: usize,
        recomputed: Sums,
        stored: (f64, f64),
        magnitude: f64,
        terms: usize,
    ) -> Option<Violation> {
        let delta = recomputed.plain - stored.0;
        let magnitude = magnitude.max(recomputed.abs);
        significant(delta, magnitude, terms).then_some(Violation {
            index,
            delta,
            weighted_delta: recomputed.weighted - stored.1,
            magnitude,
            terms,
        })
    }

    /// Locate the offending row under the single-error hypothesis.
    /// Returns `None` if the mismatch does not look like a single error:
    /// `wd / d` is not within rounding of a row in `0..rows`, or rounding
    /// alone could move it half a row.
    pub fn locate(&self, rows: usize) -> Option<usize> {
        let pos = self.weighted_delta / self.delta;
        let idx = pos.round();
        // Every weight is at most `rows`, so the weighted sums round by at
        // most `rows` times the plain sums' bound; carried through
        // `wd / d`, the two bound `pos` by the rule with this magnitude.
        let radius = (rows as f64 + pos.abs()) * self.magnitude / self.delta.abs();
        if !significant(0.5, radius, self.terms) || significant(pos - idx, radius, self.terms) {
            return None;
        }
        // Weights are 1-based.
        (idx >= 1.0 && idx <= rows as f64).then(|| idx as usize - 1)
    }
}

/// The mathematical value at `(i, c)` of a matrix factored in place whose
/// first `factored` columns store multipliers (LU's `L`) below the
/// diagonal: zero there, the stored value everywhere else.
#[inline]
pub(crate) fn math_val(m: &Matrix, i: usize, c: usize, factored: usize) -> f64 {
    if c < factored && i > c {
        0.0
    } else {
        m[(i, c)]
    }
}

/// Replace `col[row]` by the checksum minus the other elements: the one
/// repair that also undoes a NaN or an infinity, which `col[row] -= delta`
/// cannot.
pub(crate) fn restore(col: &mut [f64], row: usize, plain: f64) {
    let others: f64 = col.iter().enumerate().filter(|&(i, _)| i != row).map(|(_, v)| v).sum();
    col[row] = plain - others;
}

/// Repair the single error of a violated column that an error report
/// narrows to `candidates` rows: the row the weighted checksum locates
/// among them, or else the one non-finite candidate (a weighted sum cannot
/// locate a NaN or an infinity, but it names itself), restored as the
/// checksum minus the other elements. `None` when neither names a row.
pub(crate) fn repair_reported(
    col: &mut [f64],
    v: &Violation,
    candidates: Range<usize>,
    plain: f64,
) -> Option<usize> {
    let row = v.locate(col.len()).filter(|r| candidates.contains(r)).or_else(|| {
        let mut bad = candidates.clone().filter(|&r| !col[r].is_finite());
        bad.next().filter(|_| bad.next().is_none())
    })?;
    restore(col, row, plain);
    Some(row)
}

/// `row <- row L^{-T}` for a lower-triangular `L`.
pub(crate) fn solve_row(l: &Matrix, row: &mut [f64]) {
    let mut m = Matrix::from_fn(1, row.len(), |_, j| row[j]);
    trsm_right_lower_trans(l, &mut m);
    // Column-major with one row: the storage is the row.
    row.copy_from_slice(m.as_slice());
}

/// The rounding bound checksum rows carry through the updates they ride
/// beside their block (FT-Cholesky's TRSM and trailing updates). Per
/// column, `magnitude` is at least `sum |b_ij|` over the block and over
/// every update the sums took; `terms` counts the rounding steps per unit
/// of it. The k-th power sum of [`crate::MultiChecksums`] weighs a row by
/// at most `rows^k` and scales this magnitude by as much.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Bound {
    pub(crate) magnitude: Vec<f64>,
    pub(crate) terms: usize,
}

impl Bound {
    /// The bound of sums just encoded over `rows` rows with absolute
    /// sums `abs`.
    pub(crate) fn encoded(abs: Vec<f64>, rows: usize) -> Self {
        Bound { magnitude: abs, terms: rows }
    }

    /// Ride `B <- B L^{-T}`. The exact transformed sums are bounded by
    /// `magnitude |L^{-T}| <= magnitude M(L)^{-T}`, `M(L)` the comparison
    /// matrix (`|l_ii|` on the diagonal, `-|l_ij|` below), because
    /// `|T^{-1}| <= M(T)^{-1}` for a triangular `T`: that solve carries the
    /// magnitude and the error the sums already had. The substitution
    /// rounds the data and the sums by `b` steps each (to first order,
    /// for a factor whose diagonal dominates), so `terms` grows by `2b`.
    pub(crate) fn trsm(&mut self, l: &Matrix) {
        let comparison = Matrix::from_fn(l.rows(), l.cols(), |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Equal => l[(i, j)].abs(),
            std::cmp::Ordering::Greater => -l[(i, j)].abs(),
            std::cmp::Ordering::Less => 0.0,
        });
        solve_row(&comparison, &mut self.magnitude);
        self.terms += 2 * l.rows();
    }

    /// Ride `B -= L_i L_j^T`, the sums updating as `chk -= chk_i L_j^T`:
    /// `magnitude += magnitude_i |L_j^T|` bounds the new block and the
    /// error `chk_i` brings in. The data's and the sums' `b`-term products
    /// and subtractions round by `b + 1` steps each on that magnitude, so
    /// `terms` becomes the larger of the two operands' plus `2(b + 1)`.
    pub(crate) fn rank_update(&mut self, panel: &Bound, lj: &Matrix) {
        let b = lj.rows();
        for (jj, m) in self.magnitude.iter_mut().enumerate() {
            *m += (0..b).map(|p| panel.magnitude[p] * lj[(jj, p)].abs()).sum::<f64>();
        }
        self.terms = self.terms.max(panel.terms) + 2 * (b + 1);
    }
}

/// Column-checksum state for a matrix (or matrix block): two checksum rows
/// maintained alongside the data, with the rounding bound they carry.
#[derive(Debug, Clone, PartialEq)]
pub struct ColChecksums {
    /// Plain sums per column.
    pub plain: Vec<f64>,
    /// Weighted sums per column.
    pub weighted: Vec<f64>,
    bound: Bound,
}

impl ColChecksums {
    /// Encode from the first `rows` rows of `m`.
    pub fn encode(m: &Matrix, rows: usize) -> Self {
        let sums: Vec<Sums> = (0..m.cols()).map(|j| Sums::of(&m.col(j)[..rows])).collect();
        ColChecksums {
            plain: sums.iter().map(|s| s.plain).collect(),
            weighted: sums.iter().map(|s| s.weighted).collect(),
            bound: Bound::encoded(sums.iter().map(|s| s.abs).collect(), rows),
        }
    }

    /// Number of protected columns.
    pub fn cols(&self) -> usize {
        self.plain.len()
    }

    /// Compare against the current content of `m` (first `rows` rows) and
    /// report violations per column.
    pub fn verify(&self, m: &Matrix, rows: usize) -> Vec<Violation> {
        (0..self.cols()).filter_map(|j| self.verify_column(m, rows, j)).collect()
    }

    /// Correct a single-error violation in place. Returns the corrected
    /// `(row, col)` on success.
    pub fn correct(&self, m: &mut Matrix, rows: usize, v: &Violation) -> Option<(usize, usize)> {
        let row = v.locate(rows)?;
        m[(row, v.index)] -= v.delta;
        Some((row, v.index))
    }

    /// Verify a single column against the checksums (the cheap,
    /// hardware-assisted path examines only reported columns).
    pub fn verify_column(&self, m: &Matrix, rows: usize, j: usize) -> Option<Violation> {
        Violation::of(
            j,
            Sums::of(&m.col(j)[..rows]),
            (self.plain[j], self.weighted[j]),
            self.bound.magnitude[j],
            self.bound.terms,
        )
    }

    /// Ride the TRSM `B <- B L^{-T}` applied to the protected block
    /// (checksums are row vectors, so they transform exactly like a row of
    /// the block).
    pub(crate) fn trsm(&mut self, l: &Matrix) {
        solve_row(l, &mut self.plain);
        solve_row(l, &mut self.weighted);
        self.bound.trsm(l);
    }

    /// Co-update for the trailing update `B -= L_i L_j^T`: each checksum
    /// row updates as `chk -= (chk of L_i) L_j^T`, consuming the maintained
    /// sums of the panel block.
    pub(crate) fn rank_update(&mut self, panel: &ColChecksums, lj: &Matrix) {
        let b = lj.rows();
        for (dst, src) in [(&mut self.plain, &panel.plain), (&mut self.weighted, &panel.weighted)] {
            for (jj, d) in dst.iter_mut().enumerate() {
                let mut acc = 0.0;
                for p in 0..b {
                    acc += src[p] * lj[(jj, p)];
                }
                *d -= acc;
            }
        }
        self.bound.rank_update(&panel.bound, lj);
    }

    /// Verify every column of `m` over all its rows and repair the one
    /// error each violated column locates. Returns `(corrected,
    /// uncorrectable)` counts.
    pub(crate) fn examine_and_correct(&self, m: &mut Matrix) -> (u64, u64) {
        let rows = m.rows();
        let mut corrected = 0;
        let mut uncorrectable = 0;
        for v in &self.verify(m, rows) {
            if self.correct(m, rows, v).is_some() {
                corrected += 1;
            } else {
                uncorrectable += 1;
            }
        }
        (corrected, uncorrectable)
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "small-integer sums are exact in f64; the tests pin them bit for bit"
)]
mod tests {
    use super::*;
    use abft_linalg::gen::random_matrix;

    #[test]
    fn clean_matrix_verifies_clean() {
        let m = random_matrix(20, 10, 1);
        let c = ColChecksums::encode(&m, 20);
        assert!(c.verify(&m, 20).is_empty());
    }

    #[test]
    fn the_rule_scales_with_the_magnitude_and_never_passes_a_nan() {
        // 2 * 10 * 2^-53 * 2^52 = 10: the bound is inclusive.
        let m = 2f64.powi(52);
        assert!(!significant(10.0, m, 10));
        assert!(significant(10.0 + 1e-9, m, 10));
        assert!(!significant(-10.0, m, 10));
        assert!(significant(f64::NAN, m, 10));
        assert!(significant(f64::INFINITY, f64::INFINITY, 10));
        assert!(significant(1.0, f64::NAN, 10));
        // Units do not matter: the same ratio at any power-of-two scale.
        for k in [-60, -20, 0, 20, 60] {
            let s = 2f64.powi(k);
            assert!(!significant(10.0 * s, m * s, 10), "scale 2^{k}");
            assert!(significant(11.0 * s, m * s, 10), "scale 2^{k}");
        }
    }

    #[test]
    fn single_error_is_located_and_corrected() {
        let mut m = random_matrix(30, 8, 2);
        let c = ColChecksums::encode(&m, 30);
        let original = m.clone();
        m[(17, 3)] += 5.0;
        let v = c.verify(&m, 30);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].index, 3);
        assert_eq!(v[0].locate(30), Some(17));
        let fixed = c.correct(&mut m, 30, &v[0]).unwrap();
        assert_eq!(fixed, (17, 3));
        assert!(m.approx_eq(&original, 1e-12, 1e-12));
    }

    #[test]
    fn errors_in_multiple_columns_all_corrected() {
        let mut m = random_matrix(25, 12, 3);
        let c = ColChecksums::encode(&m, 25);
        let original = m.clone();
        m[(4, 0)] -= 2.5;
        m[(20, 7)] += 1.25;
        m[(11, 11)] *= 3.0;
        let vs = c.verify(&m, 25);
        assert_eq!(vs.len(), 3);
        for v in &vs {
            c.correct(&mut m, 25, v).expect("single error per column");
        }
        assert!(m.approx_eq(&original, 1e-10, 1e-10));
    }

    #[test]
    fn two_errors_in_one_column_detected_not_miscorrected() {
        let mut m = random_matrix(30, 4, 4);
        let c = ColChecksums::encode(&m, 30);
        m[(3, 2)] += 1.0;
        m[(19, 2)] += 1.0;
        let vs = c.verify(&m, 30);
        assert_eq!(vs.len(), 1);
        // Location (3+19+2)/2 = 12 happens to round cleanly but the point
        // is the relation deltas describe two errors; the locate result,
        // if any, must be treated as best-effort. Here weighted/plain =
        // (4 + 20)/2 = 12 -> row 11: a plausible (wrong) single-error fix.
        // Detection still fired, which is SECDED-like honesty; ABFT with 2
        // checksum vectors cannot correct 2 errors in one column.
        assert_eq!(vs[0].index, 2);
    }

    #[test]
    fn cancelling_errors_are_invisible_to_plain_sum_only() {
        // +d and -d in one column cancel in the plain sum; weighted sum
        // still differs but verify keys on the plain mismatch: a known
        // limitation of the 2-vector scheme (the paper's multi-error
        // discussion assumes more checksum vectors).
        let mut m = random_matrix(10, 3, 5);
        let c = ColChecksums::encode(&m, 10);
        m[(2, 1)] += 4.0;
        m[(7, 1)] -= 4.0;
        let vs = c.verify(&m, 10);
        assert!(vs.is_empty());
    }

    #[test]
    fn sums_match_definition() {
        let s = Sums::of(&[1.0, -2.0, 3.0]);
        assert_eq!(s.plain, 2.0);
        assert_eq!(s.weighted, 1.0 - 4.0 + 9.0);
        assert_eq!(s.abs, 6.0);
    }

    #[test]
    fn locate_rejects_non_integer_positions() {
        let at = |delta, weighted_delta| Violation {
            index: 0,
            delta,
            weighted_delta,
            magnitude: 1.0,
            terms: 100,
        };
        assert_eq!(at(2.0, 8.0).locate(100), Some(3));
        assert_eq!(at(2.0, 7.0).locate(100), None, "3.5 is not a row");
        assert_eq!(at(2.0, 300.0).locate(100), None, "row 149 out of range");
        assert_eq!(at(0.0, 3.0).locate(100), None, "zero plain delta");
        assert_eq!(at(f64::NAN, f64::NAN).locate(100), None, "a NaN has no row");
        // A mismatch rounding could move by half a row locates nothing.
        assert_eq!(at(1e-12, 4e-12).locate(100), None);
    }

    #[test]
    fn a_reported_nan_is_restored_from_the_checksum() {
        let m0 = random_matrix(16, 1, 6);
        let c = ColChecksums::encode(&m0, 16);
        let mut col = m0.col(0).to_vec();
        col[9] = f64::NAN;
        let m = Matrix::from_fn(16, 1, |i, _| col[i]);
        let v = c.verify_column(&m, 16, 0).expect("a NaN is significant");
        assert_eq!(v.locate(16), None);
        assert_eq!(repair_reported(&mut col, &v, 8..16, c.plain[0]), Some(9));
        assert!((col[9] - m0[(9, 0)]).abs() < 1e-12);
        // Two non-finite candidates name no row.
        col[9] = f64::NAN;
        col[10] = f64::INFINITY;
        assert_eq!(repair_reported(&mut col, &v, 8..16, c.plain[0]), None);
    }
}
