//! Figure 3: ABFT overhead breakdown — checksum vs verification share for
//! the three fail-continue kernels, one task each. The phases are counted
//! (flops and words from the kernels' loop nests) and timed by the Table 3
//! machine's roofline, then the same shares are printed over a range of
//! problem sizes.

use crate::min_of;
use abft_coop_core::report::{pct, Report, TextTable};
use abft_kernels::overhead::{measure, FailContinueKernel, OverheadScale};
use abft_kernels::{Cost, FtStats, VerifyMode};

/// The sizes of the curve: half, one and two times the default scale.
const SCALES: [(usize, usize); 3] = [(192, 48), (384, 96), (768, 192)];

fn shares(s: &FtStats) -> [String; 3] {
    [pct(1.0 - s.verify_share()), pct(s.verify_share()), pct(s.overhead_ratio())]
}

pub fn run(out: &mut Report) {
    let scale = OverheadScale::default();
    let mut counts = TextTable::new(&["Kernel", "Phase", "flops", "words", "roofline cycles"]);
    let mut split = TextTable::new(&[
        "Kernel",
        "Checksum overhead",
        "Verification overhead",
        "FT overhead vs compute",
    ]);
    let mut verify_shares = Vec::new();
    for k in FailContinueKernel::ALL {
        let s = measure(k, &scale, VerifyMode::Full);
        verify_shares.push(s.verify_share());
        for (phase, c) in [("compute", s.compute), ("checksum", s.checksum), ("verify", s.verify)] {
            counts.row(&[
                k.label().to_string(),
                phase.to_string(),
                c.flops.to_string(),
                c.words.to_string(),
                format!("{:.0}", c.cycles()),
            ]);
        }
        let [checksum, verify, overhead] = shares(&s);
        split.row(&[k.label().to_string(), checksum, verify, overhead]);
    }
    let per_flop = Cost { flops: 1, words: 0 }.cycles();
    let per_word = Cost { flops: 0, words: 1 }.cycles();
    let OverheadScale { n, grid, cg_iters } = scale;
    writeln!(out, "Counted per phase at n = {n}, grid {grid} x {cg_iters} iterations.");
    writeln!(out, "flops: f64 operations; words: f64 loads + stores, every operand of a");
    writeln!(out, "primitive streamed once; cycles: the Table 3 machine's roofline,");
    writeln!(out, "max({per_flop} x flops, {per_word} x words) per phase.\n");
    write!(out, "{}", counts.render());
    writeln!(out, "\nShares of the roofline time:\n");
    write!(out, "{}", split.render());
    out.quantity("min_verify_share", min_of(verify_shares));

    let mut curve = TextTable::new(&[
        "Kernel",
        "size",
        "examinations",
        "compute flops",
        "checksum words",
        "verify words",
        "Checksum overhead",
        "Verification overhead",
        "FT overhead vs compute",
    ]);
    for k in FailContinueKernel::ALL {
        for (n, grid) in SCALES {
            let s = measure(k, &OverheadScale { n, grid, ..scale }, VerifyMode::Full);
            let size = match k {
                FailContinueKernel::PredCg => format!("grid {grid}"),
                _ => format!("n = {n}"),
            };
            let [checksum, verify, overhead] = shares(&s);
            curve.row(&[
                k.label().to_string(),
                size,
                s.verifications.to_string(),
                s.compute.flops.to_string(),
                s.checksum.words.to_string(),
                s.verify.words.to_string(),
                checksum,
                verify,
                overhead,
            ]);
        }
    }
    writeln!(out, "\nThe same over problem size (panel / block width and examination period");
    writeln!(out, "fixed, so the number of examinations grows with n):\n");
    write!(out, "{}", curve.render());
}
