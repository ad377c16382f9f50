//! Metamorphic relations of the ECC strategies: pairs of cells whose
//! results must agree for a reason the model states, whatever the numbers
//! are. Each row below is one pass over a small kernel's miss stream (a
//! 64 KiB L2, so that the kernels reach DRAM) with the six strategies
//! side by side.

use abft_coop::abft_memsim::config::CacheConfig;
use abft_coop::abft_memsim::system::SimStats;
use abft_coop::abft_memsim::workloads::{CholeskyParams, HplParams};
use abft_coop::prelude::*;

fn cfg() -> SystemConfig {
    let base = SystemConfig::default();
    SystemConfig { l2: CacheConfig { capacity: 64 * 1024, ..base.l2 }, ..base }
}

/// The four kernels, small, with or without their ABFT.
fn kernels(abft: bool) -> [KernelParams; 4] {
    [
        DgemmParams { n: 128, nb: 32, abft, verify_interval: 2 }.into(),
        CholeskyParams { n: 128, nb: 32, abft }.into(),
        CgParams { grid: 48, iterations: 2, abft, verify_interval: 1 }.into(),
        HplParams { n: 128, nb: 32, abft }.into(),
    ]
}

/// One six-lane row of `params` on `cfg`, in `Strategy::ALL` order.
fn row(params: KernelParams, cfg: &SystemConfig) -> Vec<SimStats> {
    let ms = MissStream::build(&mut params.stream(), cfg.l1, cfg.l2, cfg.threads);
    run_cells(SimInput::MissStream(&ms), cfg, &Strategy::ALL)
}

/// The position of `s` in `Strategy::ALL`.
fn at(s: Strategy) -> usize {
    let i = Strategy::ALL.iter().position(|&t| t == s);
    i.unwrap_or_else(|| unreachable!("{s} is one of the six"))
}

#[test]
fn without_stalls_every_strategy_runs_the_same_cycles() {
    // The strategies differ in time only through the DRAM latency the
    // core stalls for; with `stall_factor = 0` it stalls for none.
    let still = SystemConfig { stall_factor: 0.0, ..cfg() };
    let mut stalled_apart = false;
    for params in kernels(true) {
        let row = row(params, &still);
        for (s, stats) in Strategy::ALL.iter().zip(&row) {
            let no_ecc = &row[0];
            assert_eq!(stats.cycles, no_ecc.cycles, "{}: {s}", params.label());
            assert_eq!(stats.ipc().to_bits(), no_ecc.ipc().to_bits(), "{}: {s}", params.label());
        }
        // The same row with the default stall factor tells them apart.
        let stalled = self::row(params, &cfg());
        stalled_apart |= stalled[at(Strategy::WholeChipkill)].cycles > stalled[0].cycles;
    }
    assert!(stalled_apart, "no kernel stalls longer under chipkill: the relation says nothing");
}

#[test]
fn without_abft_a_partial_strategy_is_its_whole_baseline() {
    // A kernel run without its ABFT has no ABFT-protected region, so a
    // partial strategy relaxes nothing: P_CK+No_ECC and P_CK+P_SD are
    // W_CK, and P_SD+No_ECC is W_SD, bit for bit.
    let same = [
        (Strategy::PartialChipkillNoEcc, Strategy::WholeChipkill),
        (Strategy::PartialChipkillSecded, Strategy::WholeChipkill),
        (Strategy::PartialSecdedNoEcc, Strategy::WholeSecded),
    ];
    for params in kernels(false) {
        let row = row(params, &cfg());
        for (partial, whole) in same {
            let (got, want) = (&row[at(partial)], &row[at(whole)]);
            assert!(
                format!("{got:?}") == format!("{want:?}"),
                "{}: {partial} is not {whole}:\n{got:?}\n{want:?}",
                params.label()
            );
        }
    }
    // With its ABFT each kernel relaxes something.
    for params in kernels(true) {
        let row = row(params, &cfg());
        let (partial, whole) = (Strategy::PartialChipkillNoEcc, Strategy::WholeChipkill);
        assert!(row[at(partial)] != row[at(whole)], "{}: relaxed nothing", params.label());
    }
}
