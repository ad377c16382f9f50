//! Figure 5: memory energy (dynamic + standby) for the six ECC
//! strategies, normalized to No-ECC.

use crate::{all_basic_tests, record_savings};
use abft_coop_core::report::{norm, Report, TextTable};
use abft_coop_core::Strategy;
use abft_memsim::system::SimStats;

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
            let energy = bt.mem_energy_norm(s);
            t.row(&[
                bt.kernel.label().to_string(),
                s.label().to_string(),
                norm(energy),
                norm(bt.mem_dynamic_norm(s)),
                norm(bt.row(s).stats.mem_standby_j() / sb0),
            ]);
            out.quantity(format!("cost/{}/{}", bt.kernel.label(), s.label()), energy - 1.0);
        }
    }
    out.table(&t);
    for s in Strategy::ALL {
        let costs = tests.iter().map(|bt| bt.mem_energy_norm(s) - 1.0);
        out.quantity(format!("mean_cost/{}", s.label()), costs.sum::<f64>() / tests.len() as f64);
    }
    record_savings(out, &tests, "mem_energy", SimStats::mem_total_j);
    record_savings(out, &tests, "mem_dynamic", SimStats::mem_dynamic_j);
}
