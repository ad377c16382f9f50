//! Section 4 quantified: end-to-end error drills through the real stack
//! (Cases 1-4) and an ARE-vs-ASE population summary.

use abft_coop::studies::case_population;
use abft_coop_core::report::{Report, TextTable};
use abft_coop_core::{drill_matrix, summarize_cases, DetectedBy};
use abft_ecc::EccScheme;
use abft_faultsim::scenarios::RecoveryCosts;

pub fn run(out: &mut Report) {
    writeln!(out, "End-to-end drills (bit-true ECC + OS interrupt path + ABFT repair):\n");
    let mut t = TextTable::new(&[
        "Scheme on data",
        "Injected bits",
        "Detected by",
        "Restored",
        "Restarted",
    ]);
    let drills: Vec<(EccScheme, Vec<u32>, &str)> = vec![
        (EccScheme::Chipkill, vec![55], "single bit"),
        (EccScheme::Secded, vec![55], "single bit"),
        (EccScheme::None, vec![55], "single bit"),
        (EccScheme::Secded, vec![50, 55], "double bit, same word"),
    ];
    for (scheme, bits, label) in &drills {
        let r = drill_matrix(*scheme, 128, bits);
        t.row(&[
            scheme.label().to_string(),
            label.to_string(),
            format!("{:?}", r.detected_by),
            r.data_restored.to_string(),
            r.restarted.to_string(),
        ]);
        assert!(r.data_restored || r.detected_by == DetectedBy::Nothing);
    }
    write!(out, "{}", t.render());

    writeln!(out, "\nPopulation summary over sampled error patterns (Case 1-4 accounting):\n");
    let s = summarize_cases(&case_population(), 2, &RecoveryCosts::default());
    let mut t = TextTable::new(&["Metric", "ARE", "ASE (cooperative)", "ASE (traditional panic)"]);
    t.row(&[
        "recovery energy (kJ)".into(),
        format!("{:.1}", s.are_energy_j / 1e3),
        format!("{:.1}", s.ase_energy_j / 1e3),
        format!("{:.1}", s.ase_blind_energy_j / 1e3),
    ]);
    t.row(&[
        "restarts".into(),
        s.are_restarts.to_string(),
        s.ase_restarts.to_string(),
        s.ase_blind_restarts.to_string(),
    ]);
    write!(out, "{}", t.render());
    writeln!(out, "\nCase counts [both correct, only ABFT, only ECC, neither]: {:?}", s.counts);
    writeln!(out, "The cooperative exposure path turns every Case-2 crash of traditional");
    writeln!(out, "ASE into an in-place ABFT repair.");
}
