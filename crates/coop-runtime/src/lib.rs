//! # abft-coop-runtime
//!
//! The cooperative OS/runtime layer of Section 3.2.1 (Li et al., SC 2013):
//!
//! * [`pages`] — contiguous physical frame allocation and the page table
//!   with per-page ECC attributes.
//! * `runtime` — the three ECC control APIs (`malloc_ecc`, `free_ecc`,
//!   `assign_ecc`), the MC-interrupt handler that maps fault sites back to
//!   virtual addresses, and the panic-mode fallback for non-ABFT data.
//! * [`sysfs`] — the kernel/user shared error-report channel the ABFT
//!   layer polls for hardware-assisted (simplified) verification.

pub mod pages;
pub(crate) mod runtime;
pub mod sysfs;

pub use pages::{FrameAllocator, FrameRun, PageTable, PAGE_BYTES};
pub use runtime::{AllocId, EccRuntime, InterruptOutcome, RuntimeError};
pub use sysfs::{ErrorReport, SysfsChannel};
