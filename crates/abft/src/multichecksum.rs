//! Multi-error checksum vectors.
//!
//! Section 2.1: "With sophisticated checksum vectors, this ABFT algorithm
//! can detect or correct multiple errors in each examining period." This
//! module implements the classic power-sum construction: checksum vectors
//! `w_m(i) = (i+1)^m`, `m = 0..=3`, allow locating and correcting up to
//! **two** simultaneous errors per protected column by solving the
//! power-sum (Prony) system — exactly the mechanism Reed-Solomon decoding
//! uses over the reals. Correcting `t` errors requires `2t` syndromes
//! (three sums are provably ambiguous for two errors — e.g. the pairs
//! `{8: 7, 12: 1}` and `{5: 1, 9: 7}` share their first three power
//! sums), hence the four vectors.
//!
//! With mismatches `D_m = sum_j r_j^m d_j` over the unknown error rows
//! `r_j` and magnitudes `d_j`, the error-locator quadratic
//! `x^2 - p x + q` has `p = r_1 + r_2`, `q = r_1 r_2` from the Hankel
//! system `D_2 = p D_1 - q D_0`, `D_3 = p D_2 - q D_1`.

use abft_linalg::Matrix;

/// Relative tolerance for floating-point checksum comparison.
const RTOL: f64 = 1e-8;

/// A located and measured error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocatedError {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Error magnitude (observed minus true).
    pub delta: f64,
}

/// Power-sum checksums of a matrix over four weight vectors
/// (`1, (i+1), (i+1)^2, (i+1)^3`).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChecksums {
    sums: [Vec<f64>; 4],
    rows: usize,
}

/// Result of examining one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnFinding {
    /// Checksums agree.
    Clean,
    /// One error, located.
    Single(LocatedError),
    /// Two errors, located.
    Double(LocatedError, LocatedError),
    /// A mismatch that is not consistent with <= 2 errors.
    DetectedUncorrectable {
        /// The raw zeroth-power mismatch.
        delta: f64,
    },
}

fn powers(i: usize) -> [f64; 4] {
    let x = (i + 1) as f64;
    [1.0, x, x * x, x * x * x]
}

impl MultiChecksums {
    /// Encode from the first `rows` rows of `m`.
    ///
    /// # Examples
    /// ```
    /// use abft_kernels::multichecksum::MultiChecksums;
    /// use abft_linalg::gen::random_matrix;
    ///
    /// let original = random_matrix(32, 4, 7);
    /// let chk = MultiChecksums::encode(&original, 32);
    /// let mut m = original.clone();
    /// m[(3, 1)] += 5.0;
    /// m[(20, 1)] -= 2.0; // two errors in one column
    /// let (corrected, bad) = chk.examine_and_correct(&mut m);
    /// assert_eq!((corrected, bad), (2, 0));
    /// assert!(m.approx_eq(&original, 1e-9, 1e-9));
    /// ```
    pub fn encode(m: &Matrix, rows: usize) -> Self {
        let mut sums =
            [vec![0.0; m.cols()], vec![0.0; m.cols()], vec![0.0; m.cols()], vec![0.0; m.cols()]];
        for j in 0..m.cols() {
            let col = m.col(j);
            let mut acc = [0.0f64; 4];
            for (i, &v) in col.iter().take(rows).enumerate() {
                let p = powers(i);
                for (a, pw) in acc.iter_mut().zip(p) {
                    *a += pw * v;
                }
            }
            for (s, a) in sums.iter_mut().zip(acc) {
                s[j] = a;
            }
        }
        MultiChecksums { sums, rows }
    }

    /// Examine one column of the current matrix content.
    pub fn examine(&self, m: &Matrix, j: usize) -> ColumnFinding {
        let col = m.col(j);
        let mut acc = [0.0f64; 4];
        for (i, &v) in col.iter().take(self.rows).enumerate() {
            let p = powers(i);
            for (a, pw) in acc.iter_mut().zip(p) {
                *a += pw * v;
            }
        }
        let d: Vec<f64> = (0..4).map(|k| acc[k] - self.sums[k][j]).collect();
        let scale = acc[0].abs().max(self.sums[0][j].abs()).max(1.0) * self.rows as f64;
        let significant = |v: f64, extra: f64| v.abs() > RTOL * scale * extra.max(1.0);

        if !significant(d[0], 1.0) && !significant(d[1], self.rows as f64) {
            return ColumnFinding::Clean;
        }

        let n = self.rows as f64;
        // Floating-point noise floors per power sum (the m-th sum
        // accumulates terms up to scale * rows^m).
        let noise = |m: i32| 1e-12 * scale * n.powi(m);

        // Double-error hypothesis: solve the Hankel system
        //   p d1 - q d0 = d2
        //   p d2 - q d1 = d3
        // for the locator coefficients; a genuine single error makes the
        // determinant vanish.
        let det = d[1] * d[1] - d[0] * d[2];
        if det.abs() > noise(2).powi(1).max(1e-9 * (d[1] * d[1]).abs().max((d[0] * d[2]).abs())) {
            let p = (d[0] * d[3] - d[1] * d[2]) / -det;
            let q = (d[1] * d[3] - d[2] * d[2]) / -det;
            let disc = p * p - 4.0 * q;
            if disc >= 0.0 {
                let sq = disc.sqrt();
                let x1 = (p - sq) / 2.0;
                let x2 = (p + sq) / 2.0;
                let (r1, r2) = (x1.round(), x2.round());
                let in_range = |x: f64| x >= 1.0 && x <= n;
                if (x1 - r1).abs() < 1e-3
                    && (x2 - r2).abs() < 1e-3
                    && in_range(r1)
                    && in_range(r2)
                    && (r2 - r1).abs() > 0.5
                {
                    // Magnitudes: a + b = d0, r1 a + r2 b = d1.
                    let b = (d[1] - r1 * d[0]) / (r2 - r1);
                    let a = d[0] - b;
                    // Validate against the two highest power sums.
                    let c2 = a * r1 * r1 + b * r2 * r2;
                    let c3 = a * r1 * r1 * r1 + b * r2 * r2 * r2;
                    if (c2 - d[2]).abs() <= 1e-6 * d[2].abs().max(noise(2) / RTOL * 1e-4)
                        && (c3 - d[3]).abs() <= 1e-6 * d[3].abs().max(noise(3) / RTOL * 1e-4)
                        && a.abs() > RTOL * scale
                        && b.abs() > RTOL * scale
                    {
                        return ColumnFinding::Double(
                            LocatedError { row: r1 as usize - 1, col: j, delta: a },
                            LocatedError { row: r2 as usize - 1, col: j, delta: b },
                        );
                    }
                }
            }
        }

        // Single-error hypothesis: d1/d0 = x = d2/d1 = d3/d2.
        if d[0] != 0.0 {
            let x = d[1] / d[0];
            let consistent = (d[2] / d[0] - x * x).abs() <= 1e-4 * x.abs().max(1.0).powi(2)
                && (d[3] / d[0] - x * x * x).abs() <= 1e-4 * x.abs().max(1.0).powi(3);
            let r = x.round();
            if consistent && (x - r).abs() < 1e-3 && r >= 1.0 && r <= n {
                return ColumnFinding::Single(LocatedError {
                    row: r as usize - 1,
                    col: j,
                    delta: d[0],
                });
            }
        }
        ColumnFinding::DetectedUncorrectable { delta: d[0] }
    }

    /// The plain (zeroth power) sum of column `j`.
    pub fn plain_sum(&self, j: usize) -> f64 {
        self.sums[0][j]
    }

    /// Apply `chk <- chk * op` for a right-multiplication applied to the
    /// protected block: every power-sum row is a covector `w_m^T B` and
    /// transforms exactly like a row of `B`.
    pub fn right_multiply(&mut self, mut op: impl FnMut(&mut [f64])) {
        for s in self.sums.iter_mut() {
            op(s);
        }
    }

    /// Co-update for the trailing update `B -= L_i L_j^T`: each power-sum
    /// row updates as `chk_m -= (chk_m of L_i) L_j^T`, consuming the
    /// maintained sums of the panel block.
    pub fn rank_update(&mut self, panel: &MultiChecksums, lj: &Matrix) {
        let b = lj.rows();
        for (dst, src) in self.sums.iter_mut().zip(&panel.sums) {
            for (jj, d) in dst.iter_mut().enumerate() {
                let mut acc = 0.0;
                for p in 0..b {
                    acc += src[p] * lj[(jj, p)];
                }
                *d -= acc;
            }
        }
    }

    /// Examine every column, repairing up to two errors per column in
    /// place. Returns `(corrected, uncorrectable)` counts.
    pub fn examine_and_correct(&self, m: &mut Matrix) -> (u64, u64) {
        let mut corrected = 0;
        let mut uncorrectable = 0;
        for j in 0..self.sums[0].len() {
            match self.examine(m, j) {
                ColumnFinding::Clean => {}
                ColumnFinding::Single(e) => {
                    m[(e.row, e.col)] -= e.delta;
                    corrected += 1;
                }
                ColumnFinding::Double(e1, e2) => {
                    m[(e1.row, e1.col)] -= e1.delta;
                    m[(e2.row, e2.col)] -= e2.delta;
                    corrected += 2;
                }
                ColumnFinding::DetectedUncorrectable { .. } => uncorrectable += 1,
            }
        }
        (corrected, uncorrectable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_linalg::gen::random_matrix;

    #[test]
    fn clean_columns_are_clean() {
        let m = random_matrix(40, 6, 1);
        let c = MultiChecksums::encode(&m, 40);
        for j in 0..6 {
            assert_eq!(c.examine(&m, j), ColumnFinding::Clean);
        }
    }

    #[test]
    fn single_errors_still_work() {
        let m0 = random_matrix(50, 4, 2);
        let c = MultiChecksums::encode(&m0, 50);
        let mut m = m0.clone();
        m[(33, 1)] += 7.5;
        match c.examine(&m, 1) {
            ColumnFinding::Single(e) => {
                assert_eq!(e.row, 33);
                assert!((e.delta - 7.5).abs() < 1e-9);
            }
            other => panic!("expected single, got {other:?}"),
        }
        let (fixed, bad) = c.examine_and_correct(&mut m);
        assert_eq!((fixed, bad), (1, 0));
        assert!(m.approx_eq(&m0, 1e-10, 1e-10));
    }

    #[test]
    fn double_errors_in_one_column_are_corrected() {
        let m0 = random_matrix(60, 3, 3);
        let c = MultiChecksums::encode(&m0, 60);
        let mut m = m0.clone();
        m[(5, 2)] += 11.0;
        m[(41, 2)] -= 4.25;
        match c.examine(&m, 2) {
            ColumnFinding::Double(a, b) => {
                let mut rows = [a.row, b.row];
                rows.sort();
                assert_eq!(rows, [5, 41]);
            }
            other => panic!("expected double, got {other:?}"),
        }
        let (fixed, bad) = c.examine_and_correct(&mut m);
        assert_eq!((fixed, bad), (2, 0), "correction capacity per column");
        assert!(m.approx_eq(&m0, 1e-9, 1e-9), "exactly restored");
    }

    #[test]
    fn double_errors_across_many_magnitudes() {
        let m0 = random_matrix(48, 2, 4);
        for (d1, d2) in [(1e-2, 5e-2), (3.0, -8.0), (1e5, 2e4), (-0.75, 0.5)] {
            let c = MultiChecksums::encode(&m0, 48);
            let mut m = m0.clone();
            m[(7, 0)] += d1;
            m[(30, 0)] += d2;
            let (fixed, bad) = c.examine_and_correct(&mut m);
            assert_eq!((fixed, bad), (2, 0), "d1={d1} d2={d2}");
            assert!(m.approx_eq(&m0, 1e-8, 1e-8), "d1={d1} d2={d2}");
        }
    }

    #[test]
    fn triple_errors_are_detected_not_miscorrected() {
        let m0 = random_matrix(64, 2, 5);
        let c = MultiChecksums::encode(&m0, 64);
        let mut m = m0.clone();
        // Three irrational-ratio magnitudes: no consistent <=2-error fit.
        m[(3, 1)] += std::f64::consts::PI * 1e3;
        m[(17, 1)] += std::f64::consts::E * 1e3;
        m[(55, 1)] += std::f64::consts::SQRT_2 * 1e3;
        match c.examine(&m, 1) {
            ColumnFinding::DetectedUncorrectable { .. } => {}
            // A false double-fit must at minimum not claim to be clean.
            ColumnFinding::Clean => panic!("3 errors invisible"),
            other => {
                // If a (rare) aliasing fit exists, correcting it must not
                // silently produce the original — check it doesn't.
                let mut m2 = m.clone();
                c.examine_and_correct(&mut m2);
                assert!(!m2.approx_eq(&m0, 1e-9, 1e-9), "aliasing cannot restore: {other:?}");
            }
        }
    }

    #[test]
    fn two_errors_in_adjacent_rows() {
        let m0 = random_matrix(32, 1, 6);
        let c = MultiChecksums::encode(&m0, 32);
        let mut m = m0.clone();
        m[(10, 0)] += 2.0;
        m[(11, 0)] += 3.0;
        let (fixed, bad) = c.examine_and_correct(&mut m);
        assert_eq!((fixed, bad), (2, 0));
        assert!(m.approx_eq(&m0, 1e-9, 1e-9));
    }

    #[test]
    fn errors_in_first_and_last_rows() {
        let m0 = random_matrix(32, 1, 7);
        let c = MultiChecksums::encode(&m0, 32);
        let mut m = m0.clone();
        m[(0, 0)] -= 9.0;
        m[(31, 0)] += 1.5;
        let (fixed, bad) = c.examine_and_correct(&mut m);
        assert_eq!((fixed, bad), (2, 0));
        assert!(m.approx_eq(&m0, 1e-9, 1e-9));
    }
}
