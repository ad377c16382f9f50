//! Ablation (DESIGN.md 7.3): memory-level-parallelism sensitivity — how
//! the `stall_factor` knob (the fraction of DRAM latency the pipeline
//! cannot hide) moves the Figure 7 performance gaps.

use crate::run_grid;
use abft_coop::studies::{mlp_spec, mlp_tag};
use abft_coop_core::report::{norm, Report, TextTable};
use abft_coop_core::Strategy;
use abft_memsim::workloads::KernelKind;

const STALL_FACTORS: [f64; 6] = [0.1, 0.2, 0.35, 0.5, 0.75, 1.0];

pub fn run(out: &mut Report) {
    let run = run_grid(&mlp_spec(&STALL_FACTORS));
    let mut t = TextTable::new(&["stall_factor", "IPC No-ECC", "IPC W_CK", "W_CK IPC (norm)"]);
    for sf in STALL_FACTORS {
        let tag = mlp_tag(sf);
        let cell = |s| &run.get(KernelKind::Cg, s, &tag).expect("campaign cell").stats;
        let base = cell(Strategy::NoEcc);
        let wck = cell(Strategy::WholeChipkill);
        t.row(&[
            format!("{sf:.2}"),
            format!("{:.3}", base.ipc()),
            format!("{:.3}", wck.ipc()),
            norm(wck.ipc() / base.ipc()),
        ]);
    }
    out.table(&t);
}
