//! # abft-linalg
//!
//! Dense and sparse linear-algebra substrate for the cooperative
//! ABFT + ECC reproduction (Li et al., SC 2013).
//!
//! The paper's ABFT kernels wrap four numerical workhorses — general matrix
//! multiplication, blocked Cholesky, preconditioned CG and LU with partial
//! pivoting (HPL). This crate provides those, from scratch:
//!
//! * [`Matrix`] — column-major dense matrices.
//! * [`blas1`] / [`blas3`] — the BLAS subset the kernels are built from,
//!   GEMM included.
//! * [`cholesky`] — blocked right-looking `A = L L^T` and its unblocked
//!   `potf2`, which FT-Cholesky runs on its diagonal blocks.
//! * [`lu`] — blocked LU with partial pivoting + solve (the HPL core); its
//!   `panel_factor` is the elimination FT-HPL runs.
//! * [`cg`] — preconditioned conjugate gradient matching the paper's
//!   Figure 1, with an observer hook for online invariant checking.
//! * `sparse` — CSR matrices and the 2-D Poisson operator (the
//!   low-locality CG workload).
//! * [`gen`] — seeded workload generators.

pub mod blas1;
pub(crate) mod blas2;
pub mod blas3;
pub mod cg;
pub mod cholesky;
pub mod gen;
pub mod lu;
pub(crate) mod matrix;
pub(crate) mod sparse;

pub use blas3::{gemm, matmul, Trans};
pub use cg::{
    pcg, pcg_with, CgControl, CgResult, CgState, JacobiPrecond, LinearOperator, Preconditioner,
};
pub use cholesky::{cholesky_blocked, FactorError};
pub use lu::{lu_blocked, LuFactors};
pub use matrix::Matrix;
pub use sparse::{poisson_2d, CsrMatrix};
