//! Figure 5: memory energy (dynamic + standby) for the six ECC
//! strategies, normalized to No-ECC.

use crate::all_basic_tests;
use abft_coop_core::report::{norm, pct, Report, TextTable};
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
    writeln!(out, "\nHeadlines vs paper:");
    for bt in &tests {
        writeln!(
            out,
            "  {:12} partial-CK saves {} of W_CK memory energy (paper: DGEMM 49%, CG 38%); \
             P_CK+P_SD saves {} (paper: DGEMM 48%, CG 33%); W_SD costs {} over No-ECC (paper: ~12%)",
            bt.kernel.label(),
            pct(bt.partial_mem_saving(Strategy::PartialChipkillNoEcc)),
            pct(bt.partial_mem_saving(Strategy::PartialChipkillSecded)),
            pct(bt.mem_energy_norm(Strategy::WholeSecded) - 1.0),
        );
    }
}
