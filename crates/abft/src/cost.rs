//! What an ABFT phase costs, counted: f64 operations and f64 words moved,
//! one function per primitive the kernels call.
//!
//! A **word** is one f64 load or store with every operand of a primitive
//! streamed once — a `gemm` reads `A` and `B` and reads and writes `C`; a
//! checksum sweep reads its region and touches its sums. It is *not* a
//! cache model (no reuse distance, no line granularity), and it is not
//! this implementation's traffic either: tile copies (`submatrix`,
//! `set_block`, a cloned checksum) and index arrays are not words.
//! Lower-order scalar work (a comparison per checked sum, a repaired
//! element) is not counted.

use abft_memsim::workloads::FLOPS_PER_CYCLE;
use abft_memsim::SystemConfig;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Bytes of one counted word.
const WORD_BYTES: u64 = std::mem::size_of::<f64>() as u64;

/// Floating-point operations and words moved by one phase of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// f64 additions, multiplications, divisions and square roots.
    pub flops: u64,
    /// f64 loads plus stores (see the module doc for what counts).
    pub words: u64,
}

impl Cost {
    /// Roofline time on the Table 3 machine, in core cycles: the larger
    /// of the arithmetic time at `FLOPS_PER_CYCLE` and the transfer time
    /// at the DRAM peak (every channel bursting one line per
    /// `burst_ns`). Both rates are the simulator's; nothing here is
    /// settable.
    pub fn cycles(self) -> f64 {
        let cfg = SystemConfig::default();
        let arithmetic = self.flops as f64 / FLOPS_PER_CYCLE as f64;
        let lines = (self.words * WORD_BYTES) as f64 / cfg.l2.line_bytes as f64;
        let transfer_ns = lines * cfg.timing.burst_ns() / cfg.channels as f64;
        arithmetic.max(transfer_ns / cfg.cycle_ns())
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost { flops: self.flops + rhs.flops, words: self.words + rhs.words }
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

/// The part of a primitive that its checksum rows and columns add:
/// `gemm(m + 1, n + 1, k) - gemm(m, n, k)`.
impl Sub for Cost {
    type Output = Cost;
    fn sub(self, rhs: Cost) -> Cost {
        Cost { flops: self.flops - rhs.flops, words: self.words - rhs.words }
    }
}

impl Mul<u64> for Cost {
    type Output = Cost;
    fn mul(self, times: u64) -> Cost {
        Cost { flops: self.flops * times, words: self.words * times }
    }
}

fn cost(flops: usize, words: usize) -> Cost {
    Cost { flops: flops as u64, words: words as u64 }
}

/// `C (m x n) += A (m x k) B (k x n)`.
pub(crate) fn gemm(m: usize, n: usize, k: usize) -> Cost {
    cost(2 * m * n * k, m * k + k * n + 2 * m * n)
}

/// `C (n x n, lower triangle) += A (n x k) A^T`.
pub(crate) fn syrk(n: usize, k: usize) -> Cost {
    cost(n * (n + 1) * k, n * k + n * (n + 1))
}

/// `B (m x n) <- B L^{-T}` against an `n x n` lower-triangular `L`.
pub(crate) fn trsm(m: usize, n: usize) -> Cost {
    cost(m * n * n, n * (n + 1) / 2 + 2 * m * n)
}

/// Unblocked Cholesky of an `n x n` block, in place on its lower triangle.
pub(crate) fn potf2(n: usize) -> Cost {
    cost(n * (n + 1) * (2 * n + 1) / 6, n * (n + 1))
}

/// One sweep over a `rows x cols` region accumulating `vectors` checksum
/// rows: the plain sum is an addition per element, every weighted one a
/// multiply-add. The words are the region plus the sums written (encode)
/// or compared against (verify).
pub(crate) fn col_sums(rows: usize, cols: usize, vectors: usize) -> Cost {
    cost(rows * cols * (2 * vectors - 1), rows * cols + vectors * cols)
}

/// The absolute sums that ride a checksum sweep (the rounding bound of
/// `checksum::significant`): an addition per element of a `rows x cols`
/// region the sweep already streams, and one word per sum.
pub(crate) fn abs_sums(rows: usize, cols: usize) -> Cost {
    cost(rows * cols, cols)
}

/// `n` stored values compared with `n` kept copies: both read.
pub(crate) fn compare(n: usize) -> Cost {
    cost(0, 2 * n)
}

/// `x . y`.
pub(crate) fn dot(n: usize) -> Cost {
    cost(2 * n, 2 * n)
}

/// `k` dot products against one shared vector in one sweep: the shared
/// vector and the `k` others streamed once.
pub(crate) fn dots(n: usize, k: usize) -> Cost {
    cost(2 * k * n, (k + 1) * n)
}

/// `sum x_i y_i` and `sum (i + 1) x_i y_i` in one sweep.
pub(crate) fn weighted_dot(n: usize) -> Cost {
    cost(4 * n, 2 * n)
}

/// `y += alpha x` (and `x + beta y`, and `b - A x` given `A x`).
pub(crate) fn axpy(n: usize) -> Cost {
    cost(2 * n, 3 * n)
}

/// `x <- alpha x`, or an elementwise reciprocal.
pub(crate) fn scal(n: usize) -> Cost {
    cost(n, 2 * n)
}

/// One column of an unblocked right-looking elimination: the multipliers
/// of the `rows` rows below the pivot (the pivot search rides the same
/// sweep), then a rank-1 update of `cols` trailing columns.
pub(crate) fn eliminate(rows: usize, cols: usize) -> Cost {
    scal(rows) + gemm(rows, cols, 1)
}

/// `z = D^{-1} r` against a stored inverse diagonal.
pub(crate) fn diag_solve(n: usize) -> Cost {
    cost(n, 3 * n)
}

/// `y = A x` for an operator of `nnz` stored entries and dimension `n`.
pub(crate) fn spmv(nnz: usize, n: usize) -> Cost {
    cost(2 * nnz, nnz + 2 * n)
}

/// One poll of the OS error-report page: a cache line read.
pub(crate) fn poll() -> Cost {
    Cost { flops: 0, words: SystemConfig::default().l2.line_bytes as u64 / WORD_BYTES }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "counted cycles are exact in f64; the tests pin them bit for bit"
)]
mod tests {
    use super::*;

    #[test]
    fn roofline_takes_the_slower_of_the_two_rates() {
        // Table 3: 8 flops per cycle; 4 channels x 64 B per 12 ns burst at
        // 2 GHz = 10.67 B per cycle, i.e. 4 words every 3 cycles.
        assert_eq!(Cost { flops: 800, words: 0 }.cycles(), 100.0);
        assert_eq!(Cost { flops: 0, words: 400 }.cycles(), 300.0);
        assert_eq!(Cost { flops: 800, words: 400 }.cycles(), 300.0);
        assert_eq!(Cost::default().cycles(), 0.0);
    }

    #[test]
    fn a_panel_gemm_is_compute_bound_and_a_checksum_sweep_memory_bound() {
        // FT-GEMM's observation, and the reason the count has two columns.
        let g = gemm(384, 384, 16);
        assert!(g.flops as f64 / FLOPS_PER_CYCLE as f64 == g.cycles());
        let s = col_sums(384, 384, 1);
        assert!(s.flops as f64 / (FLOPS_PER_CYCLE as f64) < s.cycles());
    }

    #[test]
    fn checksum_rows_are_the_difference_of_two_primitives() {
        let extra = gemm(11, 21, 5) - gemm(10, 20, 5);
        assert_eq!(extra.flops, 2 * 5 * (10 + 20 + 1));
        assert_eq!((gemm(4, 4, 4) + gemm(4, 4, 4)) * 3, gemm(4, 4, 4) * 6);
        assert_eq!(poll(), Cost { flops: 0, words: 8 });
    }
}
