//! Figure 3: ABFT overhead breakdown — checksum vs verification share for
//! the three fail-continue kernels, one task each.

use abft_coop_core::report::{pct, Report, TextTable};
use abft_kernels::overhead::{measure, FailContinueKernel, OverheadScale};
use abft_kernels::VerifyMode;

pub fn run(out: &mut Report) {
    let scale = OverheadScale::default();
    let mut t = TextTable::new(&[
        "Kernel",
        "Checksum overhead",
        "Verification overhead",
        "FT overhead vs compute",
    ]);
    for k in FailContinueKernel::ALL {
        let r = measure(k, &scale, VerifyMode::Full);
        t.row(&[
            k.label().to_string(),
            pct(r.checksum_share),
            pct(r.verify_share),
            pct(r.stats.overhead_ratio()),
        ]);
    }
    write!(out, "{}", t.render());
    writeln!(out, "\nPaper (Figure 3): verification is responsible for a large part of the");
    writeln!(out, "overhead for all three kernels.");
}
