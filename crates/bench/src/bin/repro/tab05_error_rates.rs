//! Table 5: error rates with ECC in place (FIT/Mbit).

use abft_coop_core::report::{Report, TextTable};

pub fn run(out: &mut Report) {
    let mut t = TextTable::new(&["ECC Protection", "Error Rate (FIT/Mbit)"]);
    for (label, fit) in abft_faultsim::table5() {
        t.row(&[label.to_string(), format!("{fit}")]);
        out.quantity(format!("fit/{label}"), fit);
    }
    write!(out, "{}", t.render());
}
