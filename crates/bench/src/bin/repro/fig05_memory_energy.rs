//! Figure 5: memory energy (dynamic + standby) for the six ECC
//! strategies, normalized to No-ECC.

use crate::all_basic_tests;
use abft_coop_core::report::{norm, Report, TextTable};
use abft_coop_core::Strategy;

pub fn run(out: &mut Report) {
    let tests = all_basic_tests(out);
    let mut t = TextTable::new(&[
        "Kernel",
        "Strategy",
        "Mem energy (norm)",
        "Dynamic (norm)",
        "Standby (norm)",
    ]);
    for bt in &tests {
        let sb0 = bt.row(Strategy::NoEcc).stats.mem_standby_j();
        for s in Strategy::ALL {
            t.row(&[
                bt.kernel.label().to_string(),
                s.label().to_string(),
                norm(bt.mem_energy_norm(s)),
                norm(bt.mem_dynamic_norm(s)),
                norm(bt.row(s).stats.mem_standby_j() / sb0),
            ]);
        }
    }
    out.table(&t);
}
