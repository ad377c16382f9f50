//! Table 4: classification of last-level-cache references by ABFT
//! protection of the accessed blocks.

use crate::run_grid;
use abft_coop_core::report::{Report, TextTable};
use abft_coop_core::{CampaignSpec, Strategy};
use abft_memsim::workloads::KernelKind;

pub fn run(out: &mut Report) {
    let spec =
        CampaignSpec::builder().kernels(KernelKind::ALL).strategy(Strategy::WholeChipkill).build();
    let run = run_grid(&spec);
    let mut t = TextTable::new(&["ABFT", "#Ref w/t ABFT", "#Ref w/o ABFT", "Ratio"]);
    for k in KernelKind::ALL {
        let s = &run.get(k, Strategy::WholeChipkill, "default").expect("campaign cell").stats;
        t.row(&[
            k.label().to_string(),
            s.llc_misses_abft().to_string(),
            s.llc_misses_other().to_string(),
            format!("{:.0}", s.abft_ref_ratio()),
        ]);
    }
    out.table(&t);
    out.artifact("tab04_cells.csv", &run.to_csv());
}
