//! Table 1: ABFT performance improvement with simplified (hardware-
//! assisted) verification, no ECC relaxing.

use abft_coop_core::report::{pct, Report, TextTable};
use abft_coop_runtime::SysfsChannel;
use abft_kernels::overhead::{
    simplified_verification_improvement, FailContinueKernel, OverheadScale,
};

pub fn run(out: &mut Report) {
    let scale = OverheadScale::default();
    // Median of repeated timings: wall-clock noise is the main enemy here.
    let mut t = TextTable::new(&["Kernel", "Improvement (measured)", "Paper"]);
    let paper = ["8.6%", "6.0%", "12.2%"];
    for (k, p) in FailContinueKernel::ALL.iter().zip(paper) {
        let mut gains: Vec<f64> = (0..3)
            .map(|_| simplified_verification_improvement(*k, &scale, SysfsChannel::new()))
            .collect();
        gains.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        t.row(&[k.label().to_string(), pct(gains[1]), p.to_string()]);
    }
    write!(out, "{}", t.render());
}
