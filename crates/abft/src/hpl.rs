//! FT-HPL: fault-tolerant High Performance Linpack for **fail-stop**
//! errors (Section 2.1, after Davies et al. \[10\]).
//!
//! The global matrix is distributed over `P` process block-columns; an
//! extra checksum block-column holds their sum
//! (`S[:, j] = sum_p A[:, j + p*w]`). Row swaps and eliminations are
//! row-linear and are applied to the checksum columns too, so the
//! relationship holds at every step — for the *mathematical* matrix, in
//! which factored columns carry zeros below the diagonal (the stored L
//! multipliers are produced by a column scaling, which is not row-linear,
//! but their mathematical value is zero and zero is invariant under the
//! remaining row operations). Consequently:
//!
//! * the `U` part and the trailing matrix of a lost block-column are
//!   rebuilt from `S - sum_{p != lost}` — "recovered from the row
//!   checksum relationship";
//! * the `L` multipliers of a lost block-column are restored from the
//!   panel-broadcast archive — in HPL every panel is broadcast across the
//!   process row before the trailing update, so surviving processes hold
//!   copies (we keep the archive current under later row swaps exactly as
//!   the surviving processes do).
//!
//! The checksums cannot see a multiplier, so each verification also
//! compares the stored multipliers with the archive's copy, bit for bit,
//! and restores one that disagrees from it.
//!
//! Under [`VerifyMode::HardwareAssisted`] there is no sweep: each error
//! report names a line of `matrix_a` (column-major, leading dimension
//! `n`), and each element of it is repaired on its own — a multiplier from
//! the archive, any other entry from its row's checksum relation, which
//! with the location known is one equation in one unknown.
//!
//! The detection rule's magnitude rides beside the checksum block-column:
//! `M[i, j]` starts as `sum_p |A[i, j + p*w]|` and takes the absolute value
//! of every row operation the checksums take (a swap swaps it, an
//! elimination adds `|l_ij| M[j, :]` to row `i`), so it bounds the
//! mathematical entries it sums. Each elimination rounds the data and the
//! checksums by two steps each, and a row carries the rounding its pivot
//! rows brought in the magnitude: `process_cols + 4n` steps in all.

use crate::checksum::{math_val, significant};
use crate::cost;
use crate::verify::{due, FtStats, VerifyMode};
use abft_linalg::cholesky::FactorError;
use abft_linalg::lu::panel_factor;
use abft_linalg::Matrix;

/// FT-HPL options.
#[derive(Debug, Clone)]
pub struct FtHplOptions {
    /// Panel width.
    pub block: usize,
    /// Process block-columns (the paper's basic test uses a 2x2 grid; the
    /// column dimension `P = 2`).
    pub process_cols: usize,
    /// Verify the checksum relationship every `verify_interval` panels.
    pub verify_interval: usize,
    /// Verification strategy.
    pub mode: VerifyMode,
}

impl Default for FtHplOptions {
    fn default() -> Self {
        FtHplOptions { block: 32, process_cols: 2, verify_interval: 1, mode: VerifyMode::Full }
    }
}

/// Result of an FT-HPL run.
#[derive(Debug, Clone)]
pub struct FtHplResult {
    /// Packed LU factors of `A` (the first `n` columns of the extended
    /// working matrix).
    pub lu: Matrix,
    /// Pivot rows.
    pub pivots: Vec<usize>,
    /// Fail-stop recoveries performed.
    pub recoveries: u64,
    /// Fault-tolerance accounting.
    pub stats: FtStats,
}

impl FtHplResult {
    /// Solve `A x = b` with the produced factors.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let f = abft_linalg::LuFactors { lu: self.lu.clone(), pivots: self.pivots.clone() };
        f.solve(b)
    }
}

/// A fail-stop event to inject: before processing panel `at_step`, wipe
/// process block-column `process` (models the process crash + respawn on
/// a spare node with empty memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailStop {
    /// Panel step before which the failure strikes.
    pub at_step: usize,
    /// Which process block-column is lost.
    pub process: usize,
}

/// Extend `a` with the checksum block-column; also returns the
/// checksums' magnitudes (module doc).
fn encode(a: &Matrix, pcols: usize) -> (Matrix, Matrix) {
    let n = a.rows();
    let w = a.cols() / pcols;
    let mut ext = Matrix::zeros(n, a.cols() + w);
    let mut mag = Matrix::zeros(n, w);
    ext.set_submatrix(0, 0, a);
    for j in 0..w {
        for i in 0..n {
            let mut s = 0.0;
            let mut abs = 0.0;
            for p in 0..pcols {
                s += a[(i, j + p * w)];
                abs += a[(i, j + p * w)].abs();
            }
            ext[(i, a.cols() + j)] = s;
            mag[(i, j)] = abs;
        }
    }
    (ext, mag)
}

/// Ride panel `k..k + nb`'s row operations on the magnitudes: its swaps,
/// then its eliminations with the final multipliers (partial pivoting
/// swaps whole rows, so this is the same elimination of the permuted
/// rows).
fn ride_panel(mag: &mut Matrix, ext: &Matrix, k: usize, nb: usize, pivots: &[usize]) {
    for (j, &p) in (k..).zip(&pivots[k..k + nb]) {
        if p != j {
            mag.swap_rows(j, p);
        }
    }
    for j in k..k + nb {
        for c in 0..mag.cols() {
            let pivot_row = mag[(j, c)];
            for i in j + 1..ext.rows() {
                mag[(i, c)] += ext[(i, j)].abs() * pivot_row;
            }
        }
    }
}

/// Whether any entry of the row-checksum relationship on the mathematical
/// matrix is significant against its magnitude.
fn checksum_violation(
    ext: &Matrix,
    mag: &Matrix,
    n: usize,
    pcols: usize,
    factored_cols: usize,
) -> bool {
    let w = n / pcols;
    (0..w).any(|j| {
        (0..n).any(|i| {
            let s = row_sum(ext, i, j, pcols, factored_cols);
            significant(s - ext[(i, n + j)], mag[(i, j)], pcols + 4 * n)
        })
    })
}

/// The members of row `i`'s checksum entry `j` summed on the mathematical
/// matrix.
fn row_sum(ext: &Matrix, i: usize, j: usize, pcols: usize, factored_cols: usize) -> f64 {
    let w = ext.rows() / pcols;
    let mut s = 0.0;
    for p in 0..pcols {
        s += math_val(ext, i, j + p * w, factored_cols);
    }
    s
}

/// Member `lost` of row `i`'s checksum entry `j`, rebuilt as the checksum
/// minus the other members.
fn from_checksum(
    ext: &Matrix,
    i: usize,
    j: usize,
    lost: usize,
    pcols: usize,
    factored_cols: usize,
) -> f64 {
    let (n, w) = (ext.rows(), ext.rows() / pcols);
    let mut s = ext[(i, n + j)];
    for p in 0..pcols {
        if p != lost {
            s -= math_val(ext, i, j + p * w, factored_cols);
        }
    }
    s
}

/// Restore every stored `L` multiplier of the first `factored_cols`
/// columns that differs from the broadcast archive's copy (by bit
/// pattern, so a NaN differs too); returns how many it restored.
fn restore_multipliers(ext: &mut Matrix, archive: &Matrix, n: usize, factored_cols: usize) -> u64 {
    let mut restored = 0;
    for c in 0..factored_cols {
        for i in c + 1..n {
            if ext[(i, c)].to_bits() != archive[(i, c)].to_bits() {
                ext[(i, c)] = archive[(i, c)];
                restored += 1;
            }
        }
    }
    restored
}

/// Repair element `(i, c)` of the extended working matrix, which an
/// error report names: a multiplier that differs from the archive's copy
/// is restored from it; any other entry whose row-checksum relation is
/// violated is restored from that relation (a checksum entry re-summed
/// from its row). Returns whether it repaired anything.
fn repair_element(
    ext: &mut Matrix,
    mag: &Matrix,
    archive: &Matrix,
    pcols: usize,
    factored_cols: usize,
    (i, c): (usize, usize),
) -> bool {
    let n = ext.rows();
    if c < factored_cols && i > c {
        let stored = ext[(i, c)].to_bits() != archive[(i, c)].to_bits();
        ext[(i, c)] = archive[(i, c)];
        return stored;
    }
    let w = n / pcols;
    let j = c % w;
    let sum = row_sum(ext, i, j, pcols, factored_cols);
    if !significant(sum - ext[(i, n + j)], mag[(i, j)], pcols + 4 * n) {
        return false;
    }
    ext[(i, c)] = if c >= n { sum } else { from_checksum(ext, i, j, c / w, pcols, factored_cols) };
    true
}

/// Rebuild a lost process block-column: U/trailing entries from the
/// checksum relationship, L multipliers from the broadcast archive.
fn recover_process(
    ext: &mut Matrix,
    archive: &Matrix,
    n: usize,
    pcols: usize,
    lost: usize,
    factored_cols: usize,
) {
    let w = n / pcols;
    for j in 0..w {
        let c = j + lost * w;
        for i in 0..n {
            ext[(i, c)] = if c < factored_cols && i > c {
                // L multiplier: the surviving processes' broadcast copy.
                archive[(i, c)]
            } else {
                from_checksum(ext, i, j, lost, pcols, factored_cols)
            };
        }
    }
}

/// Run FT-HPL on `a` with optional fail-stop injections.
pub fn ft_hpl_with(
    a: &Matrix,
    opts: &FtHplOptions,
    failures: &[FailStop],
) -> Result<FtHplResult, FactorError> {
    ft_hpl_injected(a, opts, failures, |_, _| {})
}

/// [`ft_hpl_with`] with a fail-continue hook: `inject` fires after each
/// panel's factorization, before its verification, with the extended
/// working matrix (data and checksum block-column).
pub fn ft_hpl_injected<F>(
    a: &Matrix,
    opts: &FtHplOptions,
    failures: &[FailStop],
    mut inject: F,
) -> Result<FtHplResult, FactorError>
where
    F: FnMut(usize, &mut Matrix),
{
    let n = a.rows();
    assert!(a.is_square(), "HPL factors a square system");
    assert!(opts.block > 0, "panel width must be positive");
    assert!(n.is_multiple_of(opts.block), "dimension must be a multiple of the panel width");
    assert!(n.is_multiple_of(opts.process_cols), "dimension must split across process columns");

    let mut stats = FtStats::default();
    let (mut ext, mut mag) = encode(a, opts.process_cols);
    // One sweep of the matrix against the checksum block-column: every
    // checksum entry is the sum of its `process_cols` members. Encoding,
    // a recovery and a verification each cost one; encoding also takes
    // the absolute sums.
    let w = n / opts.process_cols;
    let sweep = cost::col_sums(opts.process_cols, n * w, 1);
    stats.checksum += sweep + cost::abs_sums(opts.process_cols, n * w);

    let total_cols = ext.cols();
    let nb = opts.block;
    let nt = n / nb;
    let mut pivots = vec![0usize; n];
    let mut recoveries = 0u64;
    // The panel-broadcast archive (surviving processes' copies of L).
    let mut archive = Matrix::zeros(n, n);

    for kt in 0..nt {
        let k = kt * nb;
        // Fail-stop strikes scheduled before this panel.
        for f in failures.iter().filter(|f| f.at_step == kt) {
            assert!(f.process < opts.process_cols, "bad process index");
            // Lose the block-column...
            for j in 0..w {
                for i in 0..n {
                    ext[(i, f.process * w + j)] = 0.0;
                }
            }
            // ... and recover it.
            recover_process(&mut ext, &archive, n, opts.process_cols, f.process, k);
            stats.verify += sweep;
            recoveries += 1;
        }

        // Panel factorization with partial pivoting; every row operation
        // spans all columns (including the checksum block-column).
        panel_factor(&mut ext, k, nb, total_cols, &mut pivots)?;
        for (j, &p) in (k..).zip(&pivots[k..k + nb]) {
            // Surviving processes apply the same interchanges, in order, to
            // their broadcast copies of earlier panels.
            if p != j {
                archive.swap_rows(j, p);
            }
            // Column j's elimination; the checksum block-column rides inside
            // it, and its magnitudes take the same rank-1 update.
            let data = cost::eliminate(n - j - 1, n - j - 1);
            stats.compute += data;
            stats.checksum +=
                cost::eliminate(n - j - 1, total_cols - j - 1) - data + cost::gemm(n - j - 1, w, 1);
        }
        ride_panel(&mut mag, &ext, k, nb, &pivots);

        // Archive this panel's columns (the broadcast copy HPL makes with
        // or without fault tolerance: a copy, not counted).
        for c in k..k + nb {
            for i in 0..n {
                archive[(i, c)] = ext[(i, c)];
            }
        }

        inject(kt, &mut ext);

        // Periodic verification of the checksum relationship (cheap for
        // fail-stop FT-HPL — no error location needed).
        if due(kt, nt, opts.verify_interval) {
            stats.verifications += 1;
            let factored = k + nb;
            match &opts.mode {
                VerifyMode::Full => {
                    // The checksum sweep, and the multipliers against the archive.
                    let multipliers = factored * (n - 1) - factored * (factored - 1) / 2;
                    stats.verify += sweep + cost::compare(multipliers);
                    stats.corrections += restore_multipliers(&mut ext, &archive, n, factored);
                    if checksum_violation(&ext, &mag, n, opts.process_cols, factored) {
                        stats.uncorrectable += 1;
                    }
                }
                VerifyMode::HardwareAssisted(ch) => {
                    let reports = ch.poll();
                    stats.verify += cost::poll();
                    let pcols = opts.process_cols;
                    for rep in &reports {
                        // Each element of the named line on its own; a line
                        // outside the matrix, or one in which nothing is
                        // wrong, cannot be located.
                        let line = rep.element..rep.element.saturating_add(8);
                        let mut repaired = 0;
                        if rep.name == "matrix_a" && line.end <= n * total_cols {
                            for e in line {
                                stats.verify += cost::col_sums(pcols, 1, 1);
                                let at = (e % n, e / n);
                                let fixed =
                                    repair_element(&mut ext, &mag, &archive, pcols, factored, at);
                                repaired += fixed as u64;
                            }
                        }
                        stats.corrections += repaired;
                        stats.uncorrectable += (repaired == 0) as u64;
                    }
                }
            }
        }
    }

    Ok(FtHplResult { lu: ext.submatrix(0, 0, n, n), pivots, recoveries, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_linalg::gen::{random_diag_dominant, random_vector};

    #[test]
    fn clean_run_matches_plain_lu_solve() {
        let n = 64;
        let a = random_diag_dominant(n, 1);
        let x_true = random_vector(n, 2);
        let b = a.matvec(&x_true);
        let r = ft_hpl_with(&a, &FtHplOptions { block: 16, ..Default::default() }, &[]).unwrap();
        let x = r.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-8, "x[{i}]");
        }
        assert_eq!(r.recoveries, 0);
    }

    #[test]
    fn each_verification_sweeps_the_checksums_and_compares_every_stored_multiplier() {
        let (n, nb) = (64, 16);
        let opts = FtHplOptions { block: nb, ..Default::default() };
        let r = ft_hpl_with(&random_diag_dominant(n, 1), &opts, &[]).unwrap();
        let sweep = cost::col_sums(2, n * n / 2, 1);
        // After `panels` panels, the first `nb * panels` columns hold
        // multipliers below their diagonal.
        let multipliers: usize =
            (1..=n / nb).map(|panels| (0..nb * panels).map(|c| n - 1 - c).sum::<usize>()).sum();
        assert_eq!(r.stats.verify, sweep * 4 + cost::compare(multipliers));
        assert_eq!((r.stats.corrections, r.stats.uncorrectable), (0, 0));
    }

    #[test]
    fn checksum_relationship_holds_during_factorization() {
        // The invariant: eliminations and swaps are row-linear, so the
        // checksum block-column stays the sum of the process columns of
        // the *transformed* matrix at every step. We validate by encoding,
        // running two panels manually... simpler: a full clean run with a
        // fail-stop at the very last step still recovers exactly.
        let n = 48;
        let a = random_diag_dominant(n, 3);
        let x_true = random_vector(n, 4);
        let b = a.matvec(&x_true);
        let r = ft_hpl_with(
            &a,
            &FtHplOptions { block: 16, ..Default::default() },
            &[FailStop { at_step: 2, process: 1 }],
        )
        .unwrap();
        assert_eq!(r.recoveries, 1);
        let x = r.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-7, "x[{i}] = {} vs {}", x[i], x_true[i]);
        }
    }

    #[test]
    fn fail_stop_at_each_step_recovers() {
        let n = 48;
        let a = random_diag_dominant(n, 5);
        let x_true = random_vector(n, 6);
        let b = a.matvec(&x_true);
        for step in 0..3 {
            for proc in 0..2 {
                let r = ft_hpl_with(
                    &a,
                    &FtHplOptions { block: 16, ..Default::default() },
                    &[FailStop { at_step: step, process: proc }],
                )
                .unwrap();
                let x = r.solve(&b);
                let err = x.iter().zip(&x_true).fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
                assert!(err < 1e-6, "step {step} proc {proc}: err {err}");
            }
        }
    }

    #[test]
    fn double_failure_of_different_processes_at_different_times() {
        let n = 64;
        let a = random_diag_dominant(n, 7);
        let x_true = random_vector(n, 8);
        let b = a.matvec(&x_true);
        let r = ft_hpl_with(
            &a,
            &FtHplOptions { block: 16, ..Default::default() },
            &[FailStop { at_step: 1, process: 0 }, FailStop { at_step: 3, process: 1 }],
        )
        .unwrap();
        assert_eq!(r.recoveries, 2);
        let x = r.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn four_process_grid_works() {
        let n = 64;
        let a = random_diag_dominant(n, 9);
        let x_true = random_vector(n, 10);
        let b = a.matvec(&x_true);
        let r = ft_hpl_with(
            &a,
            &FtHplOptions { block: 16, process_cols: 4, ..Default::default() },
            &[FailStop { at_step: 2, process: 3 }],
        )
        .unwrap();
        let x = r.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-6);
        }
    }
}
