//! Table 1: ABFT performance improvement with simplified (hardware-
//! assisted) verification, no ECC relaxing: the roofline time of the
//! counted run with report polls over the one with full verification.

use abft_coop_core::report::{pct, Report, TextTable};
use abft_coop_runtime::SysfsChannel;
use abft_kernels::overhead::{
    measure, simplified_verification_improvement, FailContinueKernel, OverheadScale,
};
use abft_kernels::VerifyMode;

pub fn run(out: &mut Report) {
    let scale = OverheadScale::default();
    let mut t = TextTable::new(&[
        "Kernel",
        "Verification",
        "verify flops",
        "verify words",
        "verify cycles",
        "run cycles",
        "Improvement (model)",
    ]);
    for k in FailContinueKernel::ALL {
        let full = measure(k, &scale, VerifyMode::Full);
        let assisted = measure(k, &scale, VerifyMode::HardwareAssisted(SysfsChannel::new()));
        let gain = simplified_verification_improvement(&full, &assisted);
        assert!(gain > 0.0, "{}: {gain}", k.label());
        out.quantity(format!("assisted_gain/{}", k.label()), gain);
        for (mode, s, gain) in [("full", &full, String::new()), ("assisted", &assisted, pct(gain))]
        {
            t.row(&[
                k.label().to_string(),
                mode.to_string(),
                s.verify.flops.to_string(),
                s.verify.words.to_string(),
                format!("{:.0}", s.verify.cycles()),
                format!("{:.0}", s.cycles()),
                gain,
            ]);
        }
    }
    write!(out, "{}", t.render());
    writeln!(out, "\nCompute and checksum maintenance are the same counts in both runs (see");
    writeln!(out, "fig03_overhead); an assisted examination is one 64-byte poll of the OS");
    writeln!(out, "report page. Improvement = 1 - run cycles (assisted) / run cycles (full).");
}
