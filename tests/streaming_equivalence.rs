//! The streaming trace pipeline's contract: replaying a workload through
//! any of its three forms — materialized `Trace`, live `KernelStream`
//! generator, or packed-cache `PackedReplay` — must produce bit-identical
//! `SimStats` for every kernel, and the packed form must shrink the
//! resident trace footprint by at least the advertised 3x.

use abft_coop::abft_memsim::system::Machine;
use abft_coop::abft_memsim::trace::{Access, Trace};
use abft_coop::abft_memsim::workloads::{
    abft_region_ids, CgParams, CholeskyParams, DgemmParams, HplParams, KernelParams,
};
use abft_coop::abft_memsim::{SimRequest, SystemConfig};
use abft_coop::prelude::Strategy;
use std::sync::Arc;

fn small_grid() -> Vec<KernelParams> {
    vec![
        KernelParams::Dgemm(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 }),
        KernelParams::Cholesky(CholeskyParams { n: 256, nb: 64, abft: true }),
        KernelParams::Cg(CgParams { grid: 96, iterations: 3, abft: true, verify_interval: 2 }),
        KernelParams::Hpl(HplParams { n: 256, nb: 64, abft: true }),
    ]
}

#[test]
fn streaming_replay_is_bit_identical_to_materialized_for_every_kernel() {
    for params in small_grid() {
        let trace = Trace::from_source(&mut params.stream());
        let assign = Strategy::PartialChipkillSecded.assignment(&abft_region_ids(&trace.regions));

        let materialized = Machine::new(SystemConfig::default())
            .simulate(SimRequest::source(&mut trace.replay(), assign.clone()));
        let generator = Machine::new(SystemConfig::default())
            .simulate(SimRequest::source(&mut params.stream(), assign.clone()));
        let packed = Arc::new(params.build_packed());
        let replayed = Machine::new(SystemConfig::default())
            .simulate(SimRequest::source(&mut packed.replay(), assign.clone()));

        assert_eq!(
            materialized,
            generator,
            "{:?}: live generator stream must match materialized replay",
            params.kind()
        );
        assert_eq!(
            materialized,
            replayed,
            "{:?}: packed replay must match materialized replay",
            params.kind()
        );
    }
}

#[test]
fn every_strategy_agrees_between_trace_and_stream() {
    // The per-strategy ECC machinery (range registers, per-scheme DRAM
    // accounting) must also be stream-agnostic, not just the default path.
    let params =
        KernelParams::Dgemm(DgemmParams { n: 192, nb: 64, abft: true, verify_interval: 2 });
    let trace = Trace::from_source(&mut params.stream());
    let regions = abft_region_ids(&trace.regions);
    for s in Strategy::ALL {
        let assign = s.assignment(&regions);
        let from_trace = Machine::new(SystemConfig::default())
            .simulate(SimRequest::source(&mut trace.replay(), assign.clone()));
        let from_stream = Machine::new(SystemConfig::default())
            .simulate(SimRequest::source(&mut params.stream(), assign.clone()));
        assert_eq!(from_trace, from_stream, "{s}");
    }
}

#[test]
fn packed_grid_footprint_is_at_least_3x_smaller() {
    // The old pipeline kept every kernel's Vec<Access> resident (its
    // actually-allocated capacity, doubling growth included); the packed
    // cache keeps run-coalesced 8-byte words. The PR's acceptance floor
    // is a 3x aggregate drop; run coalescing puts the measured ratio far
    // above it (perfbench reports `packed.bytes_per_access` at default scale).
    let mut materialized_total = 0u64;
    let mut packed_total = 0u64;
    for params in small_grid() {
        let trace = Trace::from_source(&mut params.stream());
        let len = trace.accesses.len() as u64;
        materialized_total +=
            trace.accesses.capacity() as u64 * std::mem::size_of::<Access>() as u64;
        drop(trace);
        let packed = params.build_packed();
        assert_eq!(packed.len(), len);
        packed_total += packed.packed_bytes();
    }
    let ratio = materialized_total as f64 / packed_total as f64;
    assert!(
        ratio >= 3.0,
        "aggregate footprint must drop >= 3x, got {ratio:.2}x \
         ({materialized_total} -> {packed_total} bytes)"
    );
}
