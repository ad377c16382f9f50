//! # abft-coop-core
//!
//! The paper's contribution, assembled: ABFT-directed flexible ECC
//! (Li et al., SC 2013).
//!
//! * [`strategy`] — the six basic-test ECC strategies (No ECC, W_CK,
//!   P_CK+No_ECC, W_SD, P_SD+No_ECC, P_CK+P_SD).
//! * [`campaign`] — the one campaign engine: a [`CampaignSpec`]'s
//!   (workload x config x strategy) grid expands into cells run on a rayon
//!   pool, a chunk of one row's strategies at a time through [`run_cells`]
//!   ([`run_cell`] is its one-strategy call), with miss streams shared
//!   through the `TraceCache`; results come back as a
//!   [`CampaignRun`].
//! * `experiment` — the Section 5.1 metrics ([`BasicTest`]), assembled
//!   from a [`CampaignRun`].
//! * `errorflow` — end-to-end Case 1-4 drills against the real stack
//!   (bit-true ECC, MC error registers, OS interrupt path, sysfs, ABFT
//!   correction) plus ARE-vs-ASE population summaries.
//! * [`policy`] — the ARE/ASE decision from the Equation (7)/(8) MTTF
//!   thresholds.
//! * `client` — [`CampaignSpec`], the one grid description, and the
//!   [`CampaignClient`] facade every harness binary runs it through
//!   (trace cache + artifact store + sampling resolved from the spec or
//!   the environment, then the engine).
//! * [`report`] — text tables and the [`Report`] the `repro` experiments
//!   write through.

pub mod campaign;
pub(crate) mod client;
pub(crate) mod errorflow;
pub(crate) mod experiment;
pub mod policy;
pub mod report;
pub mod strategy;

pub use campaign::{
    run_cell, run_cells, CampaignMetrics, CampaignResult, CampaignRun, Progress, ProgressHook,
};
pub use client::{
    parse_simpoint_env, CampaignClient, CampaignSpec, CampaignSpecBuilder, SimPointEnvError,
    SIMPOINT_ENV, STORE_ENV,
};
pub use errorflow::{drill_matrix, summarize_cases, CaseSummary, DetectedBy, DrillResult};
pub use experiment::{BasicTest, StrategyResult};
pub use policy::{decide, PolicyDecision, PolicyInputs};
pub use report::{Report, TextTable};
pub use strategy::Strategy;
