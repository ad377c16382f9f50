//! Figure 6: system energy (processor + memory) for the six ECC
//! strategies, normalized to No-ECC.

use crate::all_basic_tests;
use abft_coop_core::report::{norm, pct, Report, TextTable};
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
    writeln!(out, "\nHeadlines vs paper (partial chipkill system-energy saving vs W_CK):");
    let paper = ["22%", "8%", "25%", "10%"];
    for (bt, p) in tests.iter().zip(paper) {
        writeln!(
            out,
            "  {:12} measured {}  (paper: up to {p})",
            bt.kernel.label(),
            pct(bt.partial_system_saving(abft_coop_core::Strategy::PartialChipkillNoEcc)),
        );
    }
}
