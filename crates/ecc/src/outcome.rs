//! ECC decode outcome classification shared by all codes.

/// What the decoder concluded about a code word (or cache line).
///
/// Note an ECC decoder can only report what its syndrome says: an error
/// pattern beyond the code's guarantee may silently alias `Clean` or
/// miscorrect. Simulation harnesses detect those cases by comparing against
/// ground truth (see [`classify_against_truth`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccOutcome {
    /// Zero syndrome: no error observed.
    Clean,
    /// The error matched a correctable pattern and was repaired.
    Corrected {
        /// Number of raw bits the decoder flipped back.
        bits_flipped: u32,
    },
    /// A non-zero syndrome with no correctable interpretation: the access
    /// raises an uncorrectable-error interrupt (Section 3.1 of the paper).
    DetectedUncorrectable,
}

impl EccOutcome {
    /// Merge two per-word outcomes into a per-line outcome (worst wins;
    /// corrected bit counts accumulate).
    pub fn merge(self, other: EccOutcome) -> EccOutcome {
        use EccOutcome::*;
        match (self, other) {
            (DetectedUncorrectable, _) | (_, DetectedUncorrectable) => DetectedUncorrectable,
            (Corrected { bits_flipped: a }, Corrected { bits_flipped: b }) => {
                Corrected { bits_flipped: a + b }
            }
            (Corrected { bits_flipped }, Clean) | (Clean, Corrected { bits_flipped }) => {
                Corrected { bits_flipped }
            }
            (Clean, Clean) => Clean,
        }
    }
}

/// Ground-truth classification of a decode, available only to the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruthOutcome {
    /// Decoder said clean and the data really is intact.
    TrueClean,
    /// Decoder corrected and the result matches the original data.
    TrueCorrection,
    /// Decoder detected an uncorrectable error (and was right to).
    TrueDetection,
    /// Decoder said clean/corrected but the data is wrong — silent data
    /// corruption, the most dangerous outcome.
    SilentCorruption,
}

/// Compare the decoder's verdict with ground truth.
pub fn classify_against_truth(outcome: EccOutcome, decoded_matches_truth: bool) -> TruthOutcome {
    match outcome {
        EccOutcome::DetectedUncorrectable => TruthOutcome::TrueDetection,
        EccOutcome::Clean if decoded_matches_truth => TruthOutcome::TrueClean,
        EccOutcome::Corrected { .. } if decoded_matches_truth => TruthOutcome::TrueCorrection,
        _ => TruthOutcome::SilentCorruption,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_prefers_worst() {
        use EccOutcome::*;
        assert_eq!(Clean.merge(Clean), Clean);
        assert_eq!(Clean.merge(Corrected { bits_flipped: 2 }), Corrected { bits_flipped: 2 });
        assert_eq!(
            Corrected { bits_flipped: 1 }.merge(Corrected { bits_flipped: 3 }),
            Corrected { bits_flipped: 4 }
        );
        assert_eq!(DetectedUncorrectable.merge(Clean), DetectedUncorrectable);
        assert_eq!(
            Corrected { bits_flipped: 1 }.merge(DetectedUncorrectable),
            DetectedUncorrectable
        );
    }

    #[test]
    fn truth_classification() {
        assert_eq!(classify_against_truth(EccOutcome::Clean, true), TruthOutcome::TrueClean);
        assert_eq!(
            classify_against_truth(EccOutcome::Clean, false),
            TruthOutcome::SilentCorruption
        );
        assert_eq!(
            classify_against_truth(EccOutcome::Corrected { bits_flipped: 1 }, false),
            TruthOutcome::SilentCorruption
        );
        assert_eq!(
            classify_against_truth(EccOutcome::DetectedUncorrectable, false),
            TruthOutcome::TrueDetection
        );
    }
}
