//! Ablation (DESIGN.md 7.3): open vs closed row-buffer policy. The
//! paper's Section 5.1 credits row-buffer hits for damping the dynamic-
//! energy savings of partial ECC; a closed-page machine shows the
//! counterfactual.

use crate::run_grid;
use abft_coop_core::report::{norm, Report, TextTable};
use abft_coop_core::{CampaignSpec, Strategy};
use abft_memsim::config::RowPolicy;
use abft_memsim::workloads::{DgemmParams, KernelKind};
use abft_memsim::SystemConfig;

fn config_with_policy(policy: RowPolicy) -> SystemConfig {
    SystemConfig { row_policy: policy, ..SystemConfig::default() }
}

pub fn run(out: &mut Report) {
    let spec = CampaignSpec::builder()
        .workload(DgemmParams { n: 768, nb: 64, abft: true, verify_interval: 4 })
        .strategies([Strategy::WholeChipkill, Strategy::PartialChipkillNoEcc])
        .config("open", config_with_policy(RowPolicy::Open))
        .config("closed", config_with_policy(RowPolicy::Closed))
        .build();
    let run = run_grid(&spec);
    let mut t = TextTable::new(&[
        "policy",
        "strategy",
        "row-hit rate",
        "mem dynamic (J)",
        "IPC",
        "partial-CK saving",
    ]);
    for label in ["open", "closed"] {
        let cell = |s| &run.get(KernelKind::Dgemm, s, label).expect("campaign cell").stats;
        let wck = cell(Strategy::WholeChipkill);
        let pck = cell(Strategy::PartialChipkillNoEcc);
        let saving = 1.0 - pck.mem_total_j() / wck.mem_total_j();
        for (s, st) in [("W_CK", wck), ("P_CK+No_ECC", pck)] {
            t.row(&[
                label.to_string(),
                s.to_string(),
                norm(st.row_hit_rate),
                format!("{:.3}", st.mem_dynamic_j()),
                format!("{:.3}", st.ipc()),
                format!("{:.1}%", saving * 100.0),
            ]);
        }
    }
    out.table(&t);
    writeln!(out, "\nClosed-page pays an activate on every access: dynamic energy rises");
    writeln!(out, "across the board and the relative partial-ECC saving persists — the");
    writeln!(out, "row buffer only damps, never creates, the effect (Section 5.1).");
}
