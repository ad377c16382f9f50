//! Shared by the integration suites that drive `EccRuntime`.

#![expect(
    clippy::expect_used,
    reason = "a test helper: a page the table maps without a scheme should fail the test"
)]

use abft_coop::abft_coop_runtime::PAGE_BYTES;
use abft_coop::prelude::*;

/// The range registers are a function of the allocation table: the first
/// of the physical frames `0..frames` to which the MC applies a scheme
/// other than the one the OS page table records for it (the default,
/// where nothing is mapped), as `(frame, mc, os)`. A register reaching
/// past `frames` is reported at `frames`.
pub fn mc_disagreement(rt: &EccRuntime, frames: u64) -> Option<(u64, EccScheme, EccScheme)> {
    let default = rt.controller.default_scheme();
    let os = |frame: u64| match rt.page_table.reverse(frame * PAGE_BYTES) {
        Some(vaddr) => rt.page_table.ecc_of(vaddr).expect("mapped page"),
        None => default,
    };
    let beyond = rt.controller.ranges().iter().find(|r| r.end > frames * PAGE_BYTES);
    (0..frames)
        .map(|f| (f, rt.controller.scheme_for(f * PAGE_BYTES), os(f)))
        .find(|&(_, mc, os)| mc != os)
        .or(beyond.map(|r| (frames, r.scheme, default)))
}
