//! ECC scheme descriptors: the reliability / cost attributes Section 2.2
//! and Section 3.1 of the paper attach to each protection level.

/// A main-memory protection level, per page frame (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EccScheme {
    /// 64-bit channel, no redundancy.
    None,
    /// (72,64) SECDED on one 72-bit physical channel.
    Secded,
    /// x4 chipkill-correct (SSCDSD) on two lock-stepped channels (144-bit).
    Chipkill,
}

impl EccScheme {
    /// All schemes, weakest protection first.
    pub const ALL: [EccScheme; 3] = [EccScheme::None, EccScheme::Secded, EccScheme::Chipkill];

    /// Label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            EccScheme::None => "No_ECC",
            EccScheme::Secded => "SECDED",
            EccScheme::Chipkill => "Chipkill",
        }
    }

    /// x4 DRAM chips made busy by one 64-byte access.
    ///
    /// A rank of x4 chips is 16 data chips; SECDED adds 2 ECC chips per
    /// rank; chipkill gangs two channels, activating 32 data + 4 ECC chips.
    /// This is the chip-count mechanism behind chipkill's overfetch energy
    /// (Section 2.2).
    pub fn chips_per_access(self) -> u32 {
        match self {
            EccScheme::None => 16,
            EccScheme::Secded => 18,
            EccScheme::Chipkill => 36,
        }
    }

    /// Extra memory-controller pipeline latency (in DRAM cycles) for
    /// check/correct logic. Corrections take "a few clock cycles" ([12, 23]
    /// in the paper) and are typically hidden by memory parallelism.
    pub fn decode_latency_cycles(self) -> u64 {
        match self {
            EccScheme::None => 0,
            EccScheme::Secded => 1,
            EccScheme::Chipkill => 2,
        }
    }

    /// Energy per in-controller correction event, in picojoules — "less
    /// than 1 pJ" per the paper's Case-1 discussion (we charge it anyway).
    pub fn correction_energy_pj(self) -> f64 {
        match self {
            EccScheme::None => 0.0,
            EccScheme::Secded => 0.4,
            EccScheme::Chipkill => 0.9,
        }
    }
}

impl std::fmt::Display for EccScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_reflects_strength() {
        assert!(EccScheme::Chipkill > EccScheme::Secded);
        assert!(EccScheme::Secded > EccScheme::None);
    }

    #[test]
    fn chip_counts_match_the_paper() {
        // Section 2.2: chipkill = two 72-bit channels in lock-step (36 x4
        // chips); SECDED = 18 chips; no-ECC uses only the 16 data chips.
        assert_eq!(EccScheme::None.chips_per_access(), 16);
        assert_eq!(EccScheme::Secded.chips_per_access(), 18);
        assert_eq!(EccScheme::Chipkill.chips_per_access(), 36);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(EccScheme::None.label(), "No_ECC");
        assert_eq!(format!("{}", EccScheme::Chipkill), "Chipkill");
    }
}
