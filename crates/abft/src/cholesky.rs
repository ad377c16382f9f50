//! FT-Cholesky: fault-tolerant right-looking blocked Cholesky for
//! fail-continue errors (Section 2.1, after Wu & Chen \[38\]).
//!
//! "FT-Cholesky introduces checksums for each block": every `b x b` block
//! of the lower triangle carries a pair of column-checksum rows (plain and
//! weighted) that the three update kinds preserve *mechanically*:
//!
//! * TRSM `B <- B L11^{-T}` — checksum rows are row vectors of the block
//!   and transform by the same right-multiplication.
//! * trailing update `B -= L_i L_j^T` — the checksum rows update as
//!   `chk -= (chk of L_i) L_j^T`, using the already-maintained checksums
//!   of the panel blocks.
//! * the `potf2` of a diagonal block breaks linearity, so its checksums
//!   are re-encoded from the freshly factored `L11` (O(b^2), negligible).
//!
//! Periodic examination recomputes block column sums, locates the row of a
//! mismatched column through the weighted sum, and repairs in place.
//!
//! The checksum rows carry a magnitude row beside them through the TRSM
//! and the trailing updates, updated with the absolute value of each
//! update (`m <- m + m_i |L_j^T|` for a trailing update): see
//! `checksum::Bound`, which also widens the rule's `terms` per update.

use crate::checksum::{repair_reported, ColChecksums, Violation};
use crate::cost::{self, Cost};
use crate::multichecksum::MultiChecksums;
use crate::verify::{due, FtStats, VerifyMode};
use abft_linalg::cholesky::{potf2, FactorError};
use abft_linalg::{gemm, Matrix, Trans};

/// FT-Cholesky options.
#[derive(Debug, Clone)]
pub struct FtCholeskyOptions {
    /// Block size.
    pub block: usize,
    /// Verify every `verify_interval` steps.
    pub verify_interval: usize,
    /// Verification strategy.
    pub mode: VerifyMode,
    /// Use the four-vector power-sum checksums, correcting up to **two**
    /// errors per block column per examination (Section 2.1's
    /// "sophisticated checksum vectors"). Costs 2x checksum storage and
    /// maintenance.
    pub multi_error: bool,
}

impl Default for FtCholeskyOptions {
    fn default() -> Self {
        FtCholeskyOptions {
            block: 32,
            verify_interval: 1,
            mode: VerifyMode::Full,
            multi_error: false,
        }
    }
}

/// Result of an FT-Cholesky run.
#[derive(Debug, Clone)]
pub struct FtCholeskyResult {
    /// The factor `L` (strict upper triangle zeroed).
    pub l: Matrix,
    /// Fault-tolerance accounting.
    pub stats: FtStats,
}

/// Per-block checksum state: the two-vector scheme or the four-vector
/// multi-error scheme, each method the scheme's own.
#[derive(Clone)]
enum BlockChk {
    Two(ColChecksums),
    Multi(MultiChecksums),
}

impl BlockChk {
    fn encode(blk: &Matrix, multi: bool) -> Self {
        if multi {
            BlockChk::Multi(MultiChecksums::encode(blk, blk.rows()))
        } else {
            BlockChk::Two(ColChecksums::encode(blk, blk.rows()))
        }
    }

    fn trsm(&mut self, l: &Matrix) {
        match self {
            BlockChk::Two(c) => c.trsm(l),
            BlockChk::Multi(c) => c.trsm(l),
        }
    }

    fn rank_update(&mut self, panel: &BlockChk, lj: &Matrix) {
        match (self, panel) {
            (BlockChk::Two(c), BlockChk::Two(p)) => c.rank_update(p, lj),
            (BlockChk::Multi(c), BlockChk::Multi(p)) => c.rank_update(p, lj),
            _ => unreachable!("checksum kinds are uniform"),
        }
    }

    /// Repair up to one (two-vector) or two (multi-error) errors per
    /// column; `(corrected, uncorrectable)` counts.
    fn examine_and_correct(&self, m: &mut Matrix) -> (u64, u64) {
        match self {
            BlockChk::Two(c) => c.examine_and_correct(m),
            BlockChk::Multi(c) => c.examine_and_correct(m),
        }
    }

    fn plain_sum(&self, j: usize) -> f64 {
        match self {
            BlockChk::Two(c) => c.plain[j],
            BlockChk::Multi(c) => c.plain_sum(j),
        }
    }

    /// The plain-sum check of column `j` of the block.
    fn verify_column(&self, blk: &Matrix, j: usize) -> Option<Violation> {
        match self {
            BlockChk::Two(c) => c.verify_column(blk, blk.rows(), j),
            BlockChk::Multi(c) => c.verify_column(blk, j),
        }
    }
}

/// The factorization state with per-block checksums.
struct State {
    a: Matrix,
    /// Checksums of the lower-triangle blocks, packed row by row: block
    /// `(it, jt)`, `jt <= it`, at `State::at(it, jt)`.
    chk: Vec<BlockChk>,
    n: usize,
    b: usize,
    nt: usize,
    multi: bool,
    /// One sweep of a block against its checksum rows (encode or verify).
    sweep: Cost,
}

impl State {
    /// Packed index of lower-triangle block `(it, jt)`.
    fn at(it: usize, jt: usize) -> usize {
        debug_assert!(jt <= it, "only lower-triangle blocks carry checksums");
        it * (it + 1) / 2 + jt
    }

    fn block(&self, it: usize, jt: usize) -> Matrix {
        self.a.submatrix(it * self.b, jt * self.b, self.b, self.b)
    }

    fn set_block(&mut self, it: usize, jt: usize, m: &Matrix) {
        self.a.set_submatrix(it * self.b, jt * self.b, m);
    }

    /// Verify every lower-triangle block, correcting errors per block
    /// column (one with the two-vector scheme, two with the multi-error
    /// scheme).
    fn verify_all(&mut self, stats: &mut FtStats) {
        for it in 0..self.nt {
            for jt in 0..=it {
                stats.verify += self.sweep;
                let mut blk = self.block(it, jt);
                let (corrected, uncorrectable) =
                    self.chk[Self::at(it, jt)].examine_and_correct(&mut blk);
                stats.corrections += corrected;
                stats.uncorrectable += uncorrectable;
                if corrected > 0 {
                    self.set_block(it, jt, &blk);
                }
            }
        }
    }
}

/// Run FT-Cholesky on `a` (symmetric positive definite, dimension a
/// multiple of `opts.block`). `inject` fires after every step's trailing
/// update with access to the working matrix.
pub fn ft_cholesky_with<F>(
    a: &Matrix,
    opts: &FtCholeskyOptions,
    mut inject: F,
) -> Result<FtCholeskyResult, FactorError>
where
    F: FnMut(usize, &mut Matrix),
{
    let n = a.rows();
    let b = opts.block;
    assert!(a.is_square(), "Cholesky needs a square matrix");
    assert!(b > 0, "block size must be positive");
    assert!(n.is_multiple_of(b), "dimension must be a multiple of the block size");
    let nt = n / b;

    let mut stats = FtStats::default();
    // Checksum rows per block: two vectors, or four under the multi-error
    // scheme, and the magnitude row beside them; what they add to a TRSM
    // and to a trailing update. A sweep also takes the absolute sums.
    let v = if opts.multi_error { 4 } else { 2 };
    let sweep = cost::col_sums(b, b, v) + cost::abs_sums(b, b);
    let chk_trsm = cost::trsm(b + v + 1, b) - cost::trsm(b, b);
    let chk_update = cost::gemm(b + v + 1, b, b) - cost::gemm(b, b, b);
    let mut st = State {
        a: a.clone(),
        chk: Vec::with_capacity(nt * (nt + 1) / 2),
        n,
        b,
        nt,
        multi: opts.multi_error,
        sweep,
    };

    // Initial encoding of every lower-triangle block, in packed order.
    for it in 0..nt {
        for jt in 0..=it {
            let chk = BlockChk::encode(&st.block(it, jt), st.multi);
            st.chk.push(chk);
            stats.checksum += sweep;
        }
    }

    for kt in 0..nt {
        // (1) factor the diagonal block.
        let mut a11 = st.block(kt, kt);
        potf2(&mut a11, kt * b)?;
        st.set_block(kt, kt, &a11);
        stats.compute += cost::potf2(b);
        // Re-encode its checksums (potf2 is nonlinear).
        st.chk[State::at(kt, kt)] = BlockChk::encode(&a11, st.multi);
        stats.checksum += sweep;

        // (2) panel TRSM + checksum co-update.
        for it in kt + 1..nt {
            stats.compute += cost::trsm(b, b);
            stats.checksum += chk_trsm;
            let mut blk = st.block(it, kt);
            abft_linalg::blas3::trsm_right_lower_trans(&a11, &mut blk);
            st.set_block(it, kt, &blk);
            st.chk[State::at(it, kt)].trsm(&a11);
        }

        // (3) trailing update + checksum co-update.
        for jt in kt + 1..nt {
            for it in jt..nt {
                let li = st.block(it, kt);
                let lj = st.block(jt, kt);
                let mut blk = st.block(it, jt);
                gemm(-1.0, &li, Trans::No, &lj, Trans::Yes, 1.0, &mut blk);
                st.set_block(it, jt, &blk);
                // A diagonal tile's update is a SYRK: the upper half the
                // gemm above also computes is this implementation's.
                stats.compute += if it == jt { cost::syrk(b, b) } else { cost::gemm(b, b, b) };
                stats.checksum += chk_update;

                // chk(it,jt) -= chk(it,kt) * L(jt,kt)^T  — row-vector gemm.
                let chk_panel = st.chk[State::at(it, kt)].clone();
                st.chk[State::at(it, jt)].rank_update(&chk_panel, &lj);
            }
        }

        inject(kt, &mut st.a);

        // (4) periodic examination.
        if due(kt, nt, opts.verify_interval) {
            stats.verifications += 1;
            match &opts.mode {
                VerifyMode::Full => st.verify_all(&mut stats),
                VerifyMode::HardwareAssisted(ch) => {
                    let reports = ch.poll();
                    stats.verify += cost::poll();
                    for rep in &reports {
                        // The report names a line of the matrix region
                        // (column-major, leading dimension n): in each block
                        // column it covers, repair the error it narrows to.
                        let mut e = rep.element;
                        while e < rep.element + 8 {
                            let (i, j) = (e % st.n, e / st.n);
                            // The line's rows in this column and block.
                            let run = (rep.element + 8 - e).min(b - i % b);
                            e += run;
                            if j >= st.n || i + run <= j {
                                continue;
                            }
                            let (it, jt, lj) = (i / b, j / b, j % b);
                            let chk = &st.chk[State::at(it, jt)];
                            let mut blk = st.block(it, jt);
                            stats.verify += cost::col_sums(b, 1, 2) + cost::abs_sums(b, 1);
                            let Some(v) = chk.verify_column(&blk, lj) else {
                                continue;
                            };
                            let plain = chk.plain_sum(lj);
                            let (lo, hi) = (i % b, i % b + run);
                            let lo = if it == jt { lo.max(lj) } else { lo };
                            if repair_reported(blk.col_mut(lj), &v, lo..hi, plain).is_some() {
                                stats.verify += cost::col_sums(b, 1, 1);
                                st.set_block(it, jt, &blk);
                                stats.corrections += 1;
                            } else {
                                stats.uncorrectable += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    // Zero the strict upper triangle (the factorization is in place).
    let mut l = st.a;
    for j in 1..n {
        for i in 0..j {
            l[(i, j)] = 0.0;
        }
    }
    Ok(FtCholeskyResult { l, stats })
}

/// FT-Cholesky without fault injection.
pub fn ft_cholesky(a: &Matrix, opts: &FtCholeskyOptions) -> Result<FtCholeskyResult, FactorError> {
    ft_cholesky_with(a, opts, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_linalg::gen::random_spd;

    fn reconstruct(l: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(l.rows(), l.cols());
        gemm(1.0, l, Trans::No, l, Trans::Yes, 0.0, &mut c);
        c
    }

    #[test]
    fn clean_run_factors_correctly() {
        let a = random_spd(64, 1);
        let r = ft_cholesky(&a, &FtCholeskyOptions { block: 16, ..Default::default() }).unwrap();
        assert!(reconstruct(&r.l).approx_eq(&a, 1e-9, 1e-9));
        assert_eq!(r.stats.corrections, 0);
    }

    #[test]
    fn checksums_stay_consistent_through_all_steps() {
        // Error-free run with verification every step must report nothing.
        let a = random_spd(96, 2);
        let r = ft_cholesky(
            &a,
            &FtCholeskyOptions {
                block: 24,
                verify_interval: 1,
                mode: VerifyMode::Full,
                multi_error: false,
            },
        )
        .unwrap();
        assert_eq!(r.stats.corrections, 0, "round-off must not trip the tolerance");
        assert_eq!(r.stats.uncorrectable, 0);
        assert!(r.stats.verifications >= 4);
    }

    #[test]
    fn injected_error_in_trailing_matrix_is_corrected() {
        let a = random_spd(64, 3);
        let expect = {
            let mut m = a.clone();
            abft_linalg::cholesky_blocked(&mut m, 16).unwrap();
            m
        };
        let r = ft_cholesky_with(
            &a,
            &FtCholeskyOptions {
                block: 16,
                verify_interval: 1,
                mode: VerifyMode::Full,
                multi_error: false,
            },
            |kt, m| {
                if kt == 1 {
                    // Strike the not-yet-factored trailing matrix.
                    m[(50, 40)] += 1000.0;
                }
            },
        )
        .unwrap();
        assert!(r.stats.corrections >= 1);
        assert!(reconstruct(&r.l).approx_eq(&a, 1e-8, 1e-8), "factor must be repaired");
        assert!(r.l.approx_eq(&expect, 1e-6, 1e-6));
    }

    #[test]
    fn injected_error_in_factored_panel_is_corrected() {
        let a = random_spd(64, 4);
        let r = ft_cholesky_with(
            &a,
            &FtCholeskyOptions {
                block: 16,
                verify_interval: 1,
                mode: VerifyMode::Full,
                multi_error: false,
            },
            |kt, m| {
                if kt == 2 {
                    // Strike already-factored L entries.
                    m[(30, 5)] -= 42.0;
                }
            },
        )
        .unwrap();
        assert!(r.stats.corrections >= 1);
        assert!(reconstruct(&r.l).approx_eq(&a, 1e-8, 1e-8));
    }

    #[test]
    fn multiple_errors_across_blocks_corrected() {
        let a = random_spd(96, 5);
        let r = ft_cholesky_with(
            &a,
            &FtCholeskyOptions {
                block: 24,
                verify_interval: 1,
                mode: VerifyMode::Full,
                multi_error: false,
            },
            |kt, m| {
                if kt == 0 {
                    m[(40, 30)] += 3.0;
                    m[(80, 70)] -= 8.0;
                    m[(95, 2)] += 0.5;
                }
            },
        )
        .unwrap();
        assert!(r.stats.corrections >= 3);
        assert!(reconstruct(&r.l).approx_eq(&a, 1e-8, 1e-8));
    }

    #[test]
    fn multi_error_mode_corrects_two_errors_in_one_block_column() {
        let a = random_spd(64, 17);
        let r = ft_cholesky_with(
            &a,
            &FtCholeskyOptions {
                block: 16,
                verify_interval: 1,
                mode: VerifyMode::Full,
                multi_error: true,
            },
            |kt, m| {
                if kt == 1 {
                    // Two strikes in the SAME block column of the trailing
                    // matrix — beyond the two-vector scheme.
                    m[(50, 40)] += 12.0;
                    m[(59, 40)] -= 4.5;
                }
            },
        )
        .unwrap();
        assert!(r.stats.corrections >= 2);
        assert_eq!(r.stats.uncorrectable, 0);
        assert!(reconstruct(&r.l).approx_eq(&a, 1e-8, 1e-8));

        // The two-vector scheme on the same strike pattern cannot repair
        // (detected, not corrected).
        let r2 = ft_cholesky_with(
            &a,
            &FtCholeskyOptions { block: 16, verify_interval: 1, ..Default::default() },
            |kt, m| {
                if kt == 1 {
                    m[(50, 40)] += 12.0;
                    m[(59, 40)] -= 4.5;
                }
            },
        )
        .unwrap();
        assert!(r2.stats.uncorrectable >= 1 || !reconstruct(&r2.l).approx_eq(&a, 1e-8, 1e-8));
    }

    #[test]
    fn multi_error_mode_clean_run_is_silent() {
        let a = random_spd(96, 18);
        let r = ft_cholesky(
            &a,
            &FtCholeskyOptions {
                block: 24,
                verify_interval: 1,
                mode: VerifyMode::Full,
                multi_error: true,
            },
        )
        .unwrap();
        assert_eq!(r.stats.corrections, 0);
        assert_eq!(r.stats.uncorrectable, 0);
        assert!(reconstruct(&r.l).approx_eq(&a, 1e-9, 1e-9));
    }

    #[test]
    fn a_report_is_repaired_at_the_row_the_weighted_sum_names_within_the_line() {
        // The struck element is the fourth of its reported line: the
        // line's first element must not take the repair.
        let a = random_spd(64, 3);
        let channel = abft_coop_runtime::SysfsChannel::new();
        let tx = channel.clone();
        let opts = FtCholeskyOptions {
            block: 16,
            verify_interval: 1,
            mode: VerifyMode::HardwareAssisted(channel),
            multi_error: false,
        };
        let r = ft_cholesky_with(&a, &opts, |kt, m| {
            if kt == 1 {
                m[(51, 40)] += 100.0;
                let e = 40 * 64 + 51;
                tx.publish(abft_coop_runtime::ErrorReport {
                    vaddr: (e * 8) as u64,
                    alloc_vaddr: 0,
                    element: e - e % 8,
                    name: "matrix_a".into(),
                    time_s: 0.0,
                });
            }
        })
        .unwrap();
        assert_eq!((r.stats.corrections, r.stats.uncorrectable), (1, 0));
        assert!(reconstruct(&r.l).approx_eq(&a, 1e-8, 1e-8));
    }

    #[test]
    fn rejects_non_multiple_dimension() {
        let a = random_spd(10, 6);
        let result = std::panic::catch_unwind(|| {
            let _ = ft_cholesky(&a, &FtCholeskyOptions { block: 16, ..Default::default() });
        });
        assert!(result.is_err());
    }
}
