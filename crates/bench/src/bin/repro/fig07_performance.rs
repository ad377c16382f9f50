//! Figure 7: performance (IPC) for the six ECC strategies, normalized to
//! No-ECC.

use crate::all_basic_tests;
use abft_coop_core::report::{norm, Report, TextTable};
use abft_coop_core::Strategy;

pub fn run(out: &mut Report) {
    let tests = all_basic_tests(out);
    let mut t = TextTable::new(&["Kernel", "Strategy", "IPC", "IPC (norm)"]);
    for bt in &tests {
        for s in Strategy::ALL {
            t.row(&[
                bt.kernel.label().to_string(),
                s.label().to_string(),
                format!("{:.3}", bt.row(s).stats.ipc()),
                norm(bt.ipc_norm(s)),
            ]);
        }
    }
    out.table(&t);
}
