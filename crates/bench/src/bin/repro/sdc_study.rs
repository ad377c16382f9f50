//! Silent-data-corruption study: how often does each ECC scheme silently
//! accept or miscorrect random k-bit error patterns? Ground truth is
//! available to the simulator via `classify_against_truth`; this is the
//! quantitative backdrop for the paper's Case 2/4 discussion.

use abft_coop::studies::{sdc_study, SDC_BITS, SDC_SCHEMES};
use abft_coop_core::report::{pct, Report, TextTable};

pub fn run(out: &mut Report) {
    let mut t = TextTable::new(&["scheme", "bits", "corrected", "detected", "silent (SDC)"]);
    let cells = sdc_study();
    let rows = SDC_SCHEMES.iter().flat_map(|s| SDC_BITS.iter().map(move |b| (s, b)));
    for ((scheme, bits), [corrected, detected, silent]) in rows.zip(cells) {
        t.row(&[
            scheme.label().to_string(),
            bits.to_string(),
            pct(corrected),
            pct(detected),
            pct(silent),
        ]);
    }
    write!(out, "{}", t.render());
    writeln!(out, "\nReading: chipkill corrects multi-bit patterns that land in one chip");
    writeln!(out, "and detects the rest; SECDED silently passes some >=3-bit patterns;");
    writeln!(
        out,
        "no-ECC is 100% silent: only an application-level check can still see these errors."
    );
}
