//! # abft-coop
//!
//! A full reproduction of *Rethinking Algorithm-Based Fault Tolerance
//! with a Cooperative Software-Hardware Approach* (Li, Chen, Wu, Vetter —
//! SC 2013), as a Rust workspace:
//!
//! * [`abft_linalg`] — the dense/sparse linear-algebra substrate.
//! * [`abft_ecc`] — bit-true SECDED and x4-chipkill codes.
//! * [`abft_memsim`] — the trace-driven cache + DDR3 simulator with
//!   per-region flexible ECC (the McSim + DRAMSim2 stand-in).
//! * [`abft_faultsim`] — fault injection and the Section 4 fault models.
//! * [`abft_kernels`] — FT-DGEMM, FT-Cholesky, FT-CG and FT-HPL.
//! * [`abft_coop_runtime`] — `malloc_ecc`/`free_ecc`/`assign_ecc`, the OS
//!   interrupt path and the sysfs error channel.
//! * [`abft_dgms`] — the DGMS comparator (Section 5.3).
//! * [`abft_coop_core`] — strategies, experiments, error flows, policy.
//! * [`abft_analysis`] — the Section 5.2 scaling engine.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.
//!
//! ## Seeded randomness only
//!
//! Every campaign cell must replay bit for bit from its seed, so the
//! vendored `rand` has no entropy source. A generator is built from a seed:
//!
//! ```
//! use rand::SeedableRng;
//! let _ = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! ```
//!
//! and none of the unseeded constructors compiles:
//!
//! ```compile_fail,E0425
//! let _ = rand::thread_rng();
//! ```
//!
//! ```compile_fail,E0425
//! let _ = rand::random::<u64>();
//! ```
//!
//! ```compile_fail,E0599
//! use rand::SeedableRng;
//! let _ = rand_chacha::ChaCha8Rng::from_entropy();
//! ```

pub mod claims;
pub mod studies;

pub use abft_analysis;
pub use abft_coop_core;
pub use abft_coop_runtime;
pub use abft_dgms;
pub use abft_ecc;
pub use abft_faultsim;
pub use abft_kernels;
pub use abft_linalg;
pub use abft_memsim;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use abft_analysis::{
        profiles_from_basic_test, strong_scaling, weak_scaling, ScalingConfig,
    };
    pub use abft_coop_core::{
        decide, drill_matrix, run_cell, run_cells, summarize_cases, BasicTest, CampaignClient,
        CampaignRun, CampaignSpec, PolicyInputs, Strategy,
    };
    pub use abft_coop_runtime::EccRuntime;
    pub use abft_ecc::{EccOutcome, EccScheme};
    pub use abft_faultsim::{ErrorPattern, Injector, RecoveryCosts};
    pub use abft_kernels::cg::{ft_pcg_with, FtCgOptions};
    pub use abft_kernels::cholesky::{ft_cholesky_with, FtCholeskyOptions};
    pub use abft_kernels::dgemm::{ft_dgemm_with, FtDgemmOptions};
    pub use abft_kernels::hpl::{ft_hpl_with, FailStop, FtHplOptions};
    pub use abft_kernels::multichecksum::MultiChecksums;
    pub use abft_kernels::VerifyMode;
    pub use abft_linalg::{poisson_2d, Matrix};
    pub use abft_memsim::system::Machine;
    pub use abft_memsim::workloads::{
        abft_region_ids, CgParams, DgemmParams, KernelKind, KernelParams,
    };
    pub use abft_memsim::{
        MissStream, PackedTrace, SimInput, SimPointConfig, SimPointSelection, SimRequest,
        SystemConfig, TraceCache,
    };
}
