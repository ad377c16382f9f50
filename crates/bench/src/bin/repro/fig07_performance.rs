//! Figure 7: performance (IPC) for the six ECC strategies, normalized to
//! No-ECC.

use crate::{all_basic_tests, max_of, min_of};
use abft_coop_core::report::{norm, Report, TextTable};
use abft_coop_core::Strategy;

pub fn run(out: &mut Report) {
    let tests = all_basic_tests(out);
    let mut t = TextTable::new(&["Kernel", "Strategy", "IPC", "IPC (norm)"]);
    for bt in &tests {
        for s in Strategy::ALL {
            let ipc_norm = bt.ipc_norm(s);
            t.row(&[
                bt.kernel.label().to_string(),
                s.label().to_string(),
                format!("{:.3}", bt.row(s).stats.ipc()),
                norm(ipc_norm),
            ]);
            out.quantity(format!("ipc_norm/{}/{}", bt.kernel.label(), s.label()), ipc_norm);
        }
    }
    out.table(&t);
    for s in Strategy::ALL {
        let speedups =
            tests.iter().map(|bt| bt.row(s).stats.ipc() / bt.row(s.baseline()).stats.ipc() - 1.0);
        out.quantity(format!("max_speedup/{}", s.label()), max_of(speedups));
    }
    let spreads = tests.iter().map(|bt| {
        let spread = |f: &dyn Fn(Strategy) -> f64| {
            max_of(Strategy::ALL.map(f)) - min_of(Strategy::ALL.map(f))
        };
        spread(&|s| bt.ipc_norm(s)) / spread(&|s| bt.mem_energy_norm(s))
    });
    out.quantity("ipc_over_energy_spread", max_of(spreads));
}
