//! # abft-kernels
//!
//! The four algorithm-based fault tolerant kernels of Section 2.1
//! (Li et al., SC 2013), built on `abft-linalg`:
//!
//! * [`dgemm`] — FT-DGEMM: full-checksum matrix multiply (fail-continue).
//! * [`cholesky`] — FT-Cholesky: per-block column checksums maintained
//!   through the right-looking factorization (fail-continue).
//! * [`cg`] — FT-CG / FT-Pred-CG: Online-ABFT invariant checks on
//!   `r, p, q, x, b` (fail-continue).
//! * [`hpl`] — FT-HPL: row-checksum-encoded LU for fail-stop recovery.
//! * [`multichecksum`] — power-sum checksum vectors correcting multiple
//!   errors per column (Section 2.1's "sophisticated checksum vectors").
//! * [`checksum`] — the shared plain + weighted checksum machinery.
//! * [`verify`] — full vs hardware-assisted verification (Section 3.2.2).
//! * [`overhead`] — the Figure 3 / Table 1 harness: each phase's counted
//!   [`Cost`] (flops and words) and its roofline time.

// Checksum and verify routines compare recomputed sums against an explicit
// tolerance from the error model; an exact `==` on floats would make the
// detector threshold-free and platform-dependent.
#![deny(clippy::float_cmp)]

pub mod cg;
pub mod checksum;
pub mod cholesky;
mod cost;
pub mod dgemm;
pub mod hpl;
pub mod multichecksum;
pub mod overhead;
pub mod verify;

pub use checksum::{ColChecksums, Violation};
pub use cost::Cost;
pub use dgemm::{ft_dgemm, ft_dgemm_with, FtDgemmOptions, FtDgemmResult};
pub use multichecksum::{ColumnFinding, LocatedError, MultiChecksums};
pub use verify::{FtStats, VerifyMode};
