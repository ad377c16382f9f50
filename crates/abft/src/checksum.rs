//! Checksum encodings shared by the checksum-based ABFT kernels.
//!
//! The plain checksum vector is `e = (1, 1, ..., 1)`; the weighted vector
//! is `w = (1, 2, ..., n)`. Together they locate and correct a single
//! error per protected column: a plain-sum mismatch `d` in column `j` and
//! a weighted mismatch `wd` pin the corrupted row at `wd / d` and the
//! magnitude at `d` (Section 2.1's "sophisticated checksum vectors").

use abft_linalg::Matrix;

/// Relative tolerance for checksum comparisons (floating-point checksums
/// accumulate round-off; see Section 2.1's periodic examination).
pub const CHECK_RTOL: f64 = 1e-8;

/// A detected checksum violation in one column (or row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// The column (or row) index where the sums disagree.
    pub index: usize,
    /// Plain-sum mismatch (observed minus expected).
    pub delta: f64,
    /// Weighted-sum mismatch.
    pub weighted_delta: f64,
}

impl Violation {
    /// Locate the offending row under the single-error hypothesis.
    /// Returns `None` if the mismatch does not look like a single error
    /// (e.g. the ratio is not close to an integer in `0..rows`).
    pub fn locate(&self, rows: usize) -> Option<usize> {
        if self.delta == 0.0 {
            return None;
        }
        let pos = self.weighted_delta / self.delta;
        let idx = pos.round();
        if (pos - idx).abs() > 1e-3 {
            return None;
        }
        // Weights are 1-based.
        let idx = idx as i64 - 1;
        if idx < 0 || idx as usize >= rows {
            return None;
        }
        Some(idx as usize)
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

/// Column sums of a matrix region (plain and weighted) over `rows` rows.
pub fn column_sums(m: &Matrix, rows: usize) -> (Vec<f64>, Vec<f64>) {
    let mut plain = vec![0.0; m.cols()];
    let mut weighted = vec![0.0; m.cols()];
    for j in 0..m.cols() {
        let col = m.col(j);
        let mut s = 0.0;
        let mut ws = 0.0;
        for (i, &v) in col.iter().take(rows).enumerate() {
            s += v;
            ws += (i + 1) as f64 * v;
        }
        plain[j] = s;
        weighted[j] = ws;
    }
    (plain, weighted)
}

/// Plain and weighted sums of a vector.
pub fn vector_sums(v: &[f64]) -> (f64, f64) {
    let mut s = 0.0;
    let mut ws = 0.0;
    for (i, &x) in v.iter().enumerate() {
        s += x;
        ws += (i + 1) as f64 * x;
    }
    (s, ws)
}

/// Column-checksum state for a matrix (or matrix block): two checksum rows
/// maintained alongside the data.
#[derive(Debug, Clone, PartialEq)]
pub struct ColChecksums {
    /// Plain sums per column.
    pub plain: Vec<f64>,
    /// Weighted sums per column.
    pub weighted: Vec<f64>,
}

impl ColChecksums {
    /// Encode from the first `rows` rows of `m`.
    pub fn encode(m: &Matrix, rows: usize) -> Self {
        let (plain, weighted) = column_sums(m, rows);
        ColChecksums { plain, weighted }
    }

    /// Number of protected columns.
    pub fn cols(&self) -> usize {
        self.plain.len()
    }

    /// Compare against the current content of `m` (first `rows` rows) and
    /// report violations per column.
    pub fn verify(&self, m: &Matrix, rows: usize) -> Vec<Violation> {
        let (plain, weighted) = column_sums(m, rows);
        let mut out = Vec::new();
        for j in 0..self.cols() {
            let scale = self.plain[j].abs().max(plain[j].abs()).max(1.0);
            let d = plain[j] - self.plain[j];
            if d.abs() > CHECK_RTOL * scale * rows as f64 {
                out.push(Violation {
                    index: j,
                    delta: d,
                    weighted_delta: weighted[j] - self.weighted[j],
                });
            }
        }
        out
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
        let col = m.col(j);
        let mut sum = 0.0;
        let mut wsum = 0.0;
        for (i, &v) in col.iter().take(rows).enumerate() {
            sum += v;
            wsum += (i + 1) as f64 * v;
        }
        let scale = sum.abs().max(self.plain[j].abs()).max(1.0);
        let d = sum - self.plain[j];
        if d.abs() > CHECK_RTOL * scale * rows as f64 {
            Some(Violation { index: j, delta: d, weighted_delta: wsum - self.weighted[j] })
        } else {
            None
        }
    }

    /// Apply `chk <- chk * op` for a right-multiplication `B <- B * op`
    /// applied to the protected block (checksums are row vectors, so they
    /// transform exactly like a row of the block).
    pub fn right_multiply(&mut self, op: impl Fn(&mut [f64])) {
        op(&mut self.plain);
        op(&mut self.weighted);
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
    fn vector_sums_match_definition() {
        let (s, ws) = vector_sums(&[1.0, 2.0, 3.0]);
        assert_eq!(s, 6.0);
        assert_eq!(ws, 1.0 + 4.0 + 9.0);
    }

    #[test]
    fn locate_rejects_non_integer_positions() {
        let v = Violation { index: 0, delta: 2.0, weighted_delta: 7.0 };
        assert_eq!(v.locate(100), None, "3.5 is not a row");
        let v = Violation { index: 0, delta: 2.0, weighted_delta: 300.0 };
        assert_eq!(v.locate(100), None, "row 149 out of range");
        let v = Violation { index: 0, delta: 0.0, weighted_delta: 3.0 };
        assert_eq!(v.locate(100), None, "zero plain delta");
    }
}
