//! The two-phase pipeline's contract: replaying the cache-filtered
//! `MissStream` of a workload through the memory controller and DRAM must
//! produce bit-identical `SimStats` to running the full access stream —
//! for every kernel, every ECC assignment shape (uniform, relaxed, none),
//! the stateful DGMS granularity policy, and non-default cache geometries
//! and thread counts. Cache outcomes are ECC-independent, so one filter
//! pass per (workload x geometry x threads) serves every policy.

use abft_coop::abft_dgms::run_dgms;
use abft_coop::abft_memsim::system::Machine;
use abft_coop::abft_memsim::workloads::{CholeskyParams, HplParams};
use abft_coop::abft_memsim::MissStream;
use abft_coop::prelude::*;
use std::sync::Arc;

fn small_grid() -> Vec<KernelParams> {
    vec![
        KernelParams::Dgemm(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 }),
        KernelParams::Cholesky(CholeskyParams { n: 256, nb: 64, abft: true }),
        KernelParams::Cg(CgParams { grid: 96, iterations: 3, abft: true, verify_interval: 2 }),
        KernelParams::Hpl(HplParams { n: 256, nb: 64, abft: true }),
    ]
}

fn filter(packed: &Arc<PackedTrace>, cfg: &SystemConfig) -> MissStream {
    MissStream::build(&mut packed.replay(), cfg.l1, cfg.l2, cfg.threads)
}

#[test]
fn filtered_replay_is_bit_identical_for_every_kernel_and_strategy() {
    // Uniform chipkill, uniform SECDED, no ECC, and both relaxed
    // (range-register) assignments — all six strategies — against the
    // full path, for all four kernels, off one shared filter pass each.
    // The row form must agree cell by cell: one cache walk, or one pass
    // over the stream, feeding six lanes.
    let cfg = SystemConfig::default();
    for params in small_grid() {
        let packed = Arc::new(params.build_packed());
        let ms = filter(&packed, &cfg);
        let full_row = run_cells(SimInput::Source(&mut packed.replay()), &cfg, &Strategy::ALL);
        let filtered_row = run_cells(SimInput::MissStream(&ms), &cfg, &Strategy::ALL);
        assert_eq!(full_row.len(), Strategy::ALL.len(), "{}", params.label());
        assert_eq!(full_row, filtered_row, "{}: row over source vs stream", params.label());
        for (s, in_row) in Strategy::ALL.into_iter().zip(&full_row) {
            let full = run_cell(SimInput::Source(&mut packed.replay()), &cfg, s);
            let filtered = run_cell(SimInput::MissStream(&ms), &cfg, s);
            assert_eq!(full, filtered, "{} / {}", params.label(), s.label());
            assert_eq!(full, *in_row, "{} / {}: alone vs in the row", params.label(), s.label());
        }
    }
}

#[test]
fn filtered_replay_is_bit_identical_under_the_dgms_policy() {
    // The stateful spatial predictor must observe the same DRAM-request
    // sequence; any dropped or reordered access desynchronizes its
    // epoch-based pattern table and shows up here.
    let cfg = SystemConfig::default();
    for params in small_grid() {
        let packed = Arc::new(params.build_packed());
        let ms = filter(&packed, &cfg);
        let m = Machine::new(cfg.clone());
        let (full, full_frac) = run_dgms(&m, SimInput::Source(&mut packed.replay()));
        let (filtered, frac) = run_dgms(&m, SimInput::MissStream(&ms));
        assert_eq!(full, filtered, "{}", params.label());
        assert_eq!(full_frac.to_bits(), frac.to_bits(), "{}", params.label());
    }
}

#[test]
fn filtered_replay_is_bit_identical_across_geometries_and_threads() {
    // The filter key is (geometry, threads): shrink the L2, shrink the
    // L1, and vary the thread count (the cycle-compression carry), and
    // the equivalence must hold for each variant's own filter pass.
    let params =
        KernelParams::Dgemm(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 });
    let packed = Arc::new(params.build_packed());
    let base = SystemConfig::default();

    let mut half_l2 = base.clone();
    half_l2.l2.capacity /= 2;
    let mut tiny_l1 = base.clone();
    tiny_l1.l1.capacity /= 4;
    let mut serial = base.clone();
    serial.threads = 1;
    let mut wide = base.clone();
    wide.threads = 8;
    // Twice the DRAM burst: a record's 64-byte write-back unit still holds
    // every line address (below 64 bytes it could not, and `validate` and
    // `MissStream::build` refuse).
    let mut long_lines = base.clone();
    long_lines.l1.line_bytes = 128;
    long_lines.l2.line_bytes = 128;

    for (tag, cfg) in [
        ("half-l2", half_l2),
        ("quarter-l1", tiny_l1),
        ("1-thread", serial),
        ("8-thread", wide),
        ("128-byte-lines", long_lines),
    ] {
        let ms = filter(&packed, &cfg);
        for s in [Strategy::WholeChipkill, Strategy::PartialChipkillSecded] {
            let full = run_cell(SimInput::Source(&mut packed.replay()), &cfg, s);
            let filtered = run_cell(SimInput::MissStream(&ms), &cfg, s);
            assert_eq!(full, filtered, "{tag} / {}", s.label());
        }
    }
}

#[test]
fn stall_factor_variants_share_a_filter_but_still_match() {
    // The ablation binaries sweep `stall_factor` across configs with one
    // cache geometry; the memo hands them a single stream. Each variant's
    // filtered replay must still match its own full run.
    let params =
        KernelParams::Cg(CgParams { grid: 96, iterations: 3, abft: true, verify_interval: 2 });
    let packed = Arc::new(params.build_packed());
    let base = SystemConfig::default();
    let ms = filter(&packed, &base);
    for mlp in [1.0, 0.5, 0.25] {
        let cfg = SystemConfig { stall_factor: base.stall_factor * mlp, ..base.clone() };
        let full = run_cell(SimInput::Source(&mut packed.replay()), &cfg, Strategy::WholeChipkill);
        let filtered = run_cell(SimInput::MissStream(&ms), &cfg, Strategy::WholeChipkill);
        assert_eq!(full, filtered, "stall_factor x{mlp}");
    }
}
