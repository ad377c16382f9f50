//! Table 4: classification of last-level-cache references by ABFT
//! protection of the accessed blocks.

use crate::run_grid;
use abft_coop_core::report::{Report, TextTable};
use abft_coop_core::{CampaignSpec, Strategy};
use abft_memsim::workloads::{abft_region_ids, KernelKind, KernelParams};

pub fn run(out: &mut Report) {
    let run = run_grid(&CampaignSpec::basic(KernelKind::ALL));
    let mut t = TextTable::new(&["ABFT", "#Ref w/t ABFT", "#Ref w/o ABFT", "Ratio"]);
    for k in KernelKind::ALL {
        let s = &run.get(k, Strategy::WholeChipkill, "default").expect("campaign cell").stats;
        let ratio = s.abft_ref_ratio();
        t.row(&[
            k.label().to_string(),
            s.llc_misses_abft().to_string(),
            s.llc_misses_other().to_string(),
            format!("{ratio:.0}"),
        ]);
        out.quantity(format!("llc_ratio/{}", k.label()), ratio);
        let relaxed = abft_region_ids(&KernelParams::default_for(k).regions()).len();
        out.quantity(format!("relaxed_structures/{}", k.label()), relaxed as f64);
    }
    out.table(&t);
    out.artifact("tab04_cells.csv", &run.to_csv());
}
