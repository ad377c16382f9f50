//! Silent-data-corruption study: how often does each ECC scheme silently
//! accept or miscorrect random k-bit error patterns? Ground truth is
//! available to the simulator via `classify_against_truth`; this is the
//! quantitative backdrop for the paper's Case 2/4 discussion.

use abft_coop_core::report::{pct, Report, TextTable};
use abft_ecc::{classify_against_truth, EccScheme, ProtectedLine, TruthOutcome};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Random line errors drawn per (scheme, bits) cell.
const TRIALS: u32 = 4000;

pub fn run(out: &mut Report) {
    let mut t = TextTable::new(&["scheme", "bits", "corrected", "detected", "silent (SDC)"]);
    // Every cell draws from one seeded stream, in table order.
    let mut rng = ChaCha8Rng::seed_from_u64(2013);
    for scheme in [EccScheme::Secded, EccScheme::Chipkill, EccScheme::None] {
        for bits in [1, 2, 3, 4, 8] {
            let mut counts = [0u32; 3];
            for _ in 0..TRIALS {
                let mut data = [0u8; 64];
                rng.fill(&mut data[..]);
                let mut line = ProtectedLine::encode(scheme, &data);
                let mut flipped = BTreeSet::new();
                while flipped.len() < bits {
                    flipped.insert(rng.random_range(0..512usize));
                }
                for &b in &flipped {
                    line.flip_data_bit(b);
                }
                let (decoded, o) = line.decode();
                counts[match classify_against_truth(o, decoded == data) {
                    TruthOutcome::TrueCorrection => 0,
                    TruthOutcome::TrueDetection => 1,
                    // Flips landed, so "clean" is a silent corruption too.
                    TruthOutcome::SilentCorruption | TruthOutcome::TrueClean => 2,
                }] += 1;
            }
            let [corrected, detected, silent] = counts.map(|c| f64::from(c) / f64::from(TRIALS));
            for (outcome, x) in
                [("corrected", corrected), ("detected", detected), ("silent", silent)]
            {
                out.quantity(format!("sdc/{outcome}/{}/{bits}", scheme.label()), x);
            }
            t.row(&[
                scheme.label().to_string(),
                bits.to_string(),
                pct(corrected),
                pct(detected),
                pct(silent),
            ]);
        }
    }
    write!(out, "{}", t.render());
    writeln!(out, "\nReading: chipkill corrects multi-bit patterns that land in one chip");
    writeln!(out, "and detects the rest; SECDED silently passes some >=3-bit patterns;");
    writeln!(
        out,
        "no-ECC is 100% silent: only an application-level check can still see these errors."
    );
}
