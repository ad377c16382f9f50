//! # abft-memsim
//!
//! Trace-driven memory-system simulator for the cooperative ABFT + ECC
//! reproduction (Li et al., SC 2013) — the stand-in for the paper's
//! Pin + McSim + DRAMSim2 stack:
//!
//! * [`config`] — the Table 3 system parameters.
//! * [`trace`] — the region registry, the access record, and the
//!   materialized [`trace::Trace`] the suites use as their reference.
//! * [`cache`] — L1/L2 set-associative LRU write-back caches.
//! * [`dram`] — DDR3-667 channel/rank/bank model with open-page row
//!   buffers and a Micron-style energy account.
//! * [`controller`] — the enhanced MC: ECC range registers, error
//!   registers, interrupt line, and bit-true functional storage.
//! * [`system`] — the whole node; runs access streams into
//!   [`system::SimStats`].
//! * [`stream`] — the pull-based [`stream::AccessSource`] /
//!   [`stream::AccessSink`] traits every producer and consumer meet at;
//!   a simulation takes a source, a miss stream or a phase sample
//!   ([`system::SimInput`]), never a materialized trace.
//! * [`packed`] — the 8-byte packed access encoding and the compact
//!   [`packed::PackedTrace`] store.
//! * [`miss_stream`] — the cache-filtered [`miss_stream::MissStream`]:
//!   the DRAM-visible L2 miss tail of a workload, built once per cache
//!   geometry and replayed per ECC policy.
//! * [`simpoint`] — SimPoint-style phase sampling over miss streams:
//!   slice, fingerprint, seeded k-means, the weighted
//!   representative-phase selection, and the [`simpoint::PhaseSample`]
//!   holding the slices it replays — all a sampled cell reads.
//! * [`store`] — the content-addressed on-disk [`store::ArtifactStore`]:
//!   compressed packed-trace, miss-stream, and phase-selection-with-sample blobs
//!   with integrity footers, layered under the [`trace_cache`] so
//!   warm-disk processes skip generation entirely.
//! * [`workloads`] — streaming trace generators replaying the blocked
//!   loop nests of the paper's four ABFT kernels.

// Library code returns data and leaves printing to the binaries and the
// reporting layer (`abft-coop-core`); tests included.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cache;
pub mod config;
pub mod controller;
pub mod dram;
pub mod miss_stream;
pub mod packed;
pub mod simpoint;
pub mod store;
pub mod stream;
pub mod system;
pub mod trace;
pub mod trace_cache;
pub mod workloads;

// The reference machine of `tests/reference/mod.rs` names this crate by its
// public name; the unit tests below and in `system` hold the walker, the
// cache, the miss-record decoder and every lane of a row to it.
#[cfg(test)]
extern crate self as abft_memsim;
#[cfg(test)]
mod miss_reference;
#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;
#[cfg(test)]
mod walk_reference;

pub use config::{ConfigError, SystemConfig};
pub use controller::{MemoryController, ERROR_REGISTERS};
pub use dram::{AddressMap, Dram, DramLocation};
pub use miss_stream::{MissEvent, MissEventKind, MissStream, SliceCursor};
pub use packed::{PackedBuilder, PackedReplay, PackedTrace};
pub use simpoint::{PhaseSample, SimPointConfig, SimPointPhase, SimPointSelection};
pub use store::{ArtifactStore, StoreError, StoreMetrics};
pub use stream::{AccessSink, AccessSource, TraceReplay, DEFAULT_CHUNK};
pub use system::{EccAssignment, Machine, ProtectionPolicy, SimInput, SimRequest, SimStats};
pub use trace::{Access, Region, RegionId, RegionMap, Trace};
pub use trace_cache::{FilterKey, TraceCache};
pub use workloads::{KernelKind, KernelParams, KernelStream};
