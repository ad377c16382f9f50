//! Ablation (DESIGN.md 7.3): memory-level-parallelism sensitivity — how
//! the `stall_factor` knob (the fraction of DRAM latency the pipeline
//! cannot hide) moves the Figure 7 performance gaps.

use crate::run_grid;
use abft_coop_core::report::{norm, Report, TextTable};
use abft_coop_core::{CampaignSpec, Strategy};
use abft_memsim::workloads::{CgParams, KernelKind};
use abft_memsim::SystemConfig;

const STALL_FACTORS: [f64; 6] = [0.1, 0.2, 0.35, 0.5, 0.75, 1.0];

pub fn run(out: &mut Report) {
    let mut spec = CampaignSpec::builder()
        .workload(CgParams { grid: 384, iterations: 6, abft: true, verify_interval: 4 })
        .strategies([Strategy::NoEcc, Strategy::WholeChipkill]);
    for stall_factor in STALL_FACTORS {
        let cfg = SystemConfig { stall_factor, ..SystemConfig::default() };
        spec = spec.config(format!("sf={stall_factor:.2}"), cfg);
    }
    let run = run_grid(&spec.build());
    let mut t = TextTable::new(&["stall_factor", "IPC No-ECC", "IPC W_CK", "W_CK IPC (norm)"]);
    for sf in STALL_FACTORS {
        let tag = format!("sf={sf:.2}");
        let cell = |s| &run.get(KernelKind::Cg, s, &tag).expect("campaign cell").stats;
        let base = cell(Strategy::NoEcc);
        let wck = cell(Strategy::WholeChipkill);
        let ipc_norm = wck.ipc() / base.ipc();
        t.row(&[
            format!("{sf:.2}"),
            format!("{:.3}", base.ipc()),
            format!("{:.3}", wck.ipc()),
            norm(ipc_norm),
        ]);
        out.quantity(format!("wck_ipc_norm_at_stall/{sf}"), ipc_norm);
    }
    out.table(&t);
}
