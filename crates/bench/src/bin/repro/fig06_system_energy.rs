//! Figure 6: system energy (processor + memory) for the six ECC
//! strategies, normalized to No-ECC.

use crate::all_basic_tests;
use abft_coop_core::report::{norm, Report, TextTable};
use abft_coop_core::Strategy;

pub fn run(out: &mut Report) {
    let tests = all_basic_tests(out);
    let mut t = TextTable::new(&[
        "Kernel",
        "Strategy",
        "System energy (norm)",
        "Memory (J)",
        "Processor (J)",
    ]);
    for bt in &tests {
        for s in Strategy::ALL {
            let st = &bt.row(s).stats;
            t.row(&[
                bt.kernel.label().to_string(),
                s.label().to_string(),
                norm(bt.system_energy_norm(s)),
                format!("{:.3}", st.mem_total_j()),
                format!("{:.3}", st.proc_j()),
            ]);
        }
    }
    out.table(&t);
}
