//! # abft-faultsim
//!
//! Fault injection and analytical fault models for the cooperative
//! ABFT + ECC reproduction (Li et al., SC 2013):
//!
//! * [`fit`] — the Table 5 error rates (FIT/Mbit per ECC scheme) and
//!   rate conversions.
//! * [`models`] — Equations (2)-(8): MTTF, heterogeneous MTTF, expected
//!   error counts, recovery loss, and the ARE/ASE decision thresholds.
//! * [`injector`] — the BIFIT stand-in: targeted bit flips at chosen
//!   times and data locations, Poisson error schedules, and the spatial
//!   error patterns of Section 4.
//! * [`scenarios`] — the Case 1-4 classifier and ARE-vs-ASE outcome
//!   accounting.
//! * [`campaign`] — Monte-Carlo fault campaigns over realistic pattern
//!   mixes, producing ARE/ASE outcome distributions (the `FaultCampaign*`
//!   namespace; the simulation-grid `CampaignSpec` lives in `abft-coop-core`).

// Library code returns data and leaves printing to the binaries and the
// reporting layer (`abft-coop-core`); tests included.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod campaign;
pub mod fit;
pub mod injector;
pub mod models;
pub mod scenarios;

pub use campaign::{
    run_fault_campaign_with_progress, FaultCampaignConfig, FaultCampaignResult, McProgress,
    PatternMix,
};
pub use fit::{
    age_factor, errors_per_second, expected_errors as fit_expected_errors, fit_per_mbit, table5,
};
pub use injector::{flip_f64_bit, ErrorPattern, Injector, PlannedFault};
pub use models::{
    expected_errors, mttf_hetero_seconds, mttf_seconds, mttf_threshold, mttf_threshold_energy,
    mttf_threshold_time, performance_benefit, recovery_time_loss, EccRegionTerm,
};
pub use scenarios::{
    abft_capability, are_outcome, ase_outcome, classify, strong_ecc_capability, Capability,
    ErrorCase, Outcome, RecoveryCosts,
};
