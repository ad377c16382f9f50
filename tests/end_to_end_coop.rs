//! Cross-crate integration: the full cooperative path of Section 3 —
//! allocation, ECC relaxation, bit-true corruption, MC interrupt, OS
//! reverse mapping, sysfs exposure, ABFT repair.

#![expect(
    clippy::unwrap_used,
    reason = "fixture helpers outside `#[test]` fns: an allocation a fixture needs should fail the test"
)]

mod common;

use abft_coop::abft_coop_runtime::{AllocId, RuntimeError};
use abft_coop::abft_memsim::controller::RangeError;
use abft_coop::prelude::*;
use common::mc_disagreement;

#[test]
fn malloc_ecc_relax_corrupt_repair_cycle() {
    let cfg = SystemConfig::default();
    let mut rt = EccRuntime::new(&cfg);
    let n = 24usize;
    let a = abft_coop::abft_linalg::gen::random_matrix(n, n, 5);
    let chk = abft_coop::abft_kernels::ColChecksums::encode(&a, n);

    // Allocate under SECDED (the P_CK+P_SD setting for ABFT data).
    let (id, _) = rt.malloc_ecc("matrix", (n * n * 8) as u64, EccScheme::Secded).unwrap();
    rt.store_f64(id, a.as_slice()).unwrap();

    // A two-bit strike in one word defeats SECDED.
    rt.inject_element_bit(id, 77, 52);
    rt.inject_element_bit(id, 77, 40);

    let (data, outcome) = rt.load_f64(id, n * n, 1e3).unwrap();
    assert_eq!(outcome, EccOutcome::DetectedUncorrectable);

    // OS interrupt path.
    let out = rt.handle_interrupt(1.0);
    assert_eq!(out.panics, 0);
    assert_eq!(out.exposed.len(), 1);

    // ABFT consumes the sysfs report and repairs the named line: the
    // report pins the columns; the weighted checksum locates the row.
    let mut m = Matrix::from_col_major(n, n, data);
    let mut fixed = 0;
    for rep in rt.sysfs().poll() {
        let mut cols: Vec<usize> =
            (rep.element..rep.element + 8).map(|e| e / n).filter(|&j| j < n).collect();
        cols.dedup();
        for j in cols {
            if let Some(v) = chk.verify_column(&m, n, j) {
                if chk.correct(&mut m, n, &v).is_some() {
                    fixed += 1;
                }
            }
        }
    }
    assert_eq!(fixed, 1);
    assert!(m.approx_eq(&a, 1e-12, 1e-12));
}

#[test]
fn assign_ecc_transition_mid_lifecycle_preserves_data_and_protection() {
    let cfg = SystemConfig::default();
    let mut rt = EccRuntime::new(&cfg);
    let data: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
    let (id, _) = rt.malloc_ecc("adaptive", 8192, EccScheme::None).unwrap();
    rt.store_f64(id, &data).unwrap();

    // The adaptive policy demands stronger protection (error rates rose):
    // assign_ecc re-encodes in place.
    rt.assign_ecc(id, EccScheme::Chipkill).unwrap();
    rt.inject_element_bit(id, 500, 60);
    let (back, o) = rt.load_f64(id, 1000, 0.0).unwrap();
    assert!(matches!(o, EccOutcome::Corrected { .. }), "chipkill fixed it");
    assert_eq!(back, data);

    // Relax again: flips now pass silently (ABFT territory).
    rt.assign_ecc(id, EccScheme::None).unwrap();
    rt.inject_element_bit(id, 10, 60);
    let (back, o) = rt.load_f64(id, 1000, 0.0).unwrap();
    assert_eq!(o, EccOutcome::Clean);
    assert_ne!(back[10], data[10]);
}

#[test]
fn non_abft_uncorrectable_error_panics_the_node() {
    let cfg = SystemConfig::default();
    let mut rt = EccRuntime::new(&cfg);
    // OS-owned allocation is NOT registered with relaxed ECC but lives in
    // the page tables; corrupt a line in a hole with no mapping at all.
    rt.controller.set_default_scheme(EccScheme::Secded);
    rt.controller.write_line(0x3f00_0000, &[1u8; 64]);
    rt.controller.inject_bit_flip(0x3f00_0000, 5);
    rt.controller.inject_bit_flip(0x3f00_0000, 6);
    let (_, o) = rt.controller.read_line(0x3f00_0000, 0.0);
    assert_eq!(o, EccOutcome::DetectedUncorrectable);
    let out = rt.handle_interrupt(0.0);
    assert_eq!(out.panics, 1, "the traditional panic path still guards non-ABFT data");
}

#[test]
fn error_registers_survive_bursts_up_to_design_depth() {
    let cfg = SystemConfig::default();
    let mut rt = EccRuntime::new(&cfg);
    let (id, _) = rt.malloc_ecc("burst", 1 << 16, EccScheme::Secded).unwrap();
    let zeros = vec![0.0f64; 4096];
    rt.store_f64(id, &zeros).unwrap();
    // Six uncorrectable events in distinct lines: exactly the n = 6
    // register depth (Section 3.1).
    for k in 0..6usize {
        let e = k * 8;
        rt.inject_element_bit(id, e, 1);
        rt.inject_element_bit(id, e, 2);
    }
    let (_, o) = rt.load_f64(id, 4096, 0.0).unwrap();
    assert_eq!(o, EccOutcome::DetectedUncorrectable);
    let out = rt.handle_interrupt(0.0);
    assert_eq!(out.exposed.len(), 6, "all six events retained and exposed");
    assert_eq!(rt.controller.errors_overwritten, 0);
}

// ----- the range registers are a function of the allocation table -------
//
// `malloc_ecc` merges physically adjacent same-scheme allocations into one
// register pair; each scenario below once left the MC applying a scheme
// the OS did not record. Frames are handed out first-fit from 0, so 64 of
// them cover everything these tests allocate.

const PAGE: u64 = 4096;

/// Two relaxed 16-page allocations sharing one register pair.
fn two_merged() -> (EccRuntime, AllocId, AllocId) {
    let mut rt = EccRuntime::new(&SystemConfig::default());
    let (a, _) = rt.malloc_ecc("a", 16 * PAGE, EccScheme::None).unwrap();
    let (b, _) = rt.malloc_ecc("b", 16 * PAGE, EccScheme::None).unwrap();
    assert_eq!(rt.controller.ranges().len(), 1);
    assert_eq!(mc_disagreement(&rt, 64), None);
    (rt, a, b)
}

#[test]
fn freeing_the_head_of_a_merged_range_keeps_the_tail_relaxed() {
    let (mut rt, a, b) = two_merged();
    rt.free_ecc(a).unwrap();
    assert_eq!(rt.scheme_of(b), Some(EccScheme::None));
    assert_eq!(rt.controller.scheme_for(16 * PAGE), EccScheme::None, "b keeps its register");
    assert_eq!(rt.controller.scheme_for(0), EccScheme::Chipkill, "a's frames are default again");
    assert_eq!(mc_disagreement(&rt, 64), None);
}

#[test]
fn a_strong_allocation_reusing_freed_frames_is_protected_by_the_mc() {
    let (mut rt, _a, b) = two_merged();
    rt.free_ecc(b).unwrap();
    assert_eq!(mc_disagreement(&rt, 64), None);
    // Same size, first fit: c lands on b's frames.
    let (c, vaddr) = rt.malloc_ecc("c", 16 * PAGE, EccScheme::Chipkill).unwrap();
    assert_eq!(rt.page_table.translate(vaddr), Some(16 * PAGE));
    assert_eq!(rt.controller.scheme_for(16 * PAGE), EccScheme::Chipkill);
    assert_eq!(mc_disagreement(&rt, 64), None);
    // And the protection is real: a strike on c is corrected in hardware.
    let data = vec![2.5f64; 64];
    rt.store_f64(c, &data).unwrap();
    rt.inject_element_bit(c, 7, 33);
    let (back, o) = rt.load_f64(c, 64, 0.0).unwrap();
    assert!(matches!(o, EccOutcome::Corrected { .. }), "{o:?}");
    assert_eq!(back, data);
}

#[test]
fn assign_ecc_inside_a_merged_range_splits_it() {
    let (mut rt, a, b) = two_merged();
    rt.assign_ecc(b, EccScheme::Secded).unwrap();
    assert_eq!(rt.scheme_of(a), Some(EccScheme::None));
    assert_eq!(rt.scheme_of(b), Some(EccScheme::Secded));
    assert_eq!(rt.controller.ranges().len(), 2);
    assert_eq!(mc_disagreement(&rt, 64), None);
    // Back to the neighbour's scheme: one pair again.
    rt.assign_ecc(b, EccScheme::None).unwrap();
    assert_eq!(rt.controller.ranges().len(), 1);
    assert_eq!(mc_disagreement(&rt, 64), None);
}

#[test]
fn a_strong_page_between_two_relaxed_allocations_is_not_bridged() {
    let mut rt = EccRuntime::new(&SystemConfig::default());
    rt.malloc_ecc("a", 16 * PAGE, EccScheme::None).unwrap();
    let (x, vaddr) = rt.malloc_ecc("x", PAGE, EccScheme::Chipkill).unwrap();
    rt.malloc_ecc("b", 16 * PAGE, EccScheme::None).unwrap();
    let paddr = rt.page_table.translate(vaddr).unwrap();
    assert_eq!(rt.scheme_of(x), Some(EccScheme::Chipkill));
    assert_eq!(rt.controller.scheme_for(paddr), EccScheme::Chipkill);
    assert_eq!(rt.controller.ranges().len(), 2, "one pair on each side of x");
    assert_eq!(mc_disagreement(&rt, 64), None);
}

#[test]
fn only_a_ninth_register_pair_reads_as_out_of_slots() {
    // N N N S N S N S N S: eight pairs, the first one merged.
    let mut rt = EccRuntime::new(&SystemConfig::default());
    let mut ids = Vec::new();
    for k in 0..10 {
        let scheme = if k >= 3 && k % 2 == 1 { EccScheme::Secded } else { EccScheme::None };
        ids.push(rt.malloc_ecc("v", PAGE, scheme).unwrap().0);
    }
    assert_eq!(rt.controller.ranges().len(), 8);
    let out_of_slots = RuntimeError::Range(RangeError::OutOfSlots);
    let held = rt.controller.ranges().to_vec();

    // A ninth pair: refused, frames returned, registers untouched.
    assert_eq!(rt.malloc_ecc("ninth", PAGE, EccScheme::None), Err(out_of_slots.clone()));
    assert_eq!(rt.assign_ecc(ids[1], EccScheme::Secded), Err(out_of_slots.clone()));
    assert_eq!(rt.scheme_of(ids[1]), Some(EccScheme::None), "a failed assign changes nothing");
    // Freeing the middle of the merged run would split it: a ninth pair.
    assert_eq!(rt.free_ecc(ids[1]), Err(out_of_slots));
    assert_eq!(rt.scheme_of(ids[1]), Some(EccScheme::None), "still live");
    assert_eq!(rt.controller.ranges(), held);
    assert_eq!(mc_disagreement(&rt, 64), None);

    // What needs no new pair still works with all eight in use: a default
    // allocation, a retune that merges into a neighbour, an end of the run.
    rt.malloc_ecc("os", PAGE, EccScheme::Chipkill).unwrap();
    rt.assign_ecc(ids[9], EccScheme::None).unwrap(); // N S -> N N: one pair fewer
    rt.assign_ecc(ids[9], EccScheme::Secded).unwrap();
    rt.free_ecc(ids[0]).unwrap();
    rt.free_ecc(ids[1]).unwrap();
    assert_eq!(rt.free_ecc(ids[1]), Err(RuntimeError::BadHandle));
    assert_eq!(rt.controller.ranges().len(), 8);
    assert_eq!(mc_disagreement(&rt, 64), None);
    // The freed frames are the first fit for the same size again.
    let (_, vaddr) = rt.malloc_ecc("reuse", 2 * PAGE, EccScheme::None).unwrap();
    assert_eq!(rt.page_table.translate(vaddr), Some(0));
    assert_eq!(mc_disagreement(&rt, 64), None);
}
