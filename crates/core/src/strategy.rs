//! The six ECC strategies of the basic tests (Section 5.1).

use abft_ecc::EccScheme;
use abft_memsim::system::EccAssignment;
use abft_memsim::trace::RegionId;

/// The paper's six evaluation strategies, in Figure 5/6/7 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// (1) ABFT without any ECC.
    NoEcc,
    /// (2) Chipkill on all data.
    WholeChipkill,
    /// (3) No ECC on ABFT-protected data, chipkill elsewhere.
    PartialChipkillNoEcc,
    /// (4) SECDED on all data.
    WholeSecded,
    /// (5) No ECC on ABFT-protected data, SECDED elsewhere.
    PartialSecdedNoEcc,
    /// (6) SECDED on ABFT-protected data, chipkill elsewhere.
    PartialChipkillSecded,
}

impl Strategy {
    /// All six, in presentation order.
    pub const ALL: [Strategy; 6] = [
        Strategy::NoEcc,
        Strategy::WholeChipkill,
        Strategy::PartialChipkillNoEcc,
        Strategy::WholeSecded,
        Strategy::PartialSecdedNoEcc,
        Strategy::PartialChipkillSecded,
    ];

    /// The three ARE (partial / relaxed) strategies of the scaling study.
    pub const PARTIAL: [Strategy; 3] = [
        Strategy::PartialChipkillNoEcc,
        Strategy::PartialChipkillSecded,
        Strategy::PartialSecdedNoEcc,
    ];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::NoEcc => "No ECC",
            Strategy::WholeChipkill => "W_CK",
            Strategy::PartialChipkillNoEcc => "P_CK+No_ECC",
            Strategy::WholeSecded => "W_SD",
            Strategy::PartialSecdedNoEcc => "P_SD+No_ECC",
            Strategy::PartialChipkillSecded => "P_CK+P_SD",
        }
    }

    /// Whether this is a partial-ECC (relaxed) strategy.
    pub fn is_partial(self) -> bool {
        matches!(
            self,
            Strategy::PartialChipkillNoEcc
                | Strategy::PartialSecdedNoEcc
                | Strategy::PartialChipkillSecded
        )
    }

    /// The scheme applied to data *without* ABFT protection.
    pub fn strong_scheme(self) -> EccScheme {
        match self {
            Strategy::NoEcc => EccScheme::None,
            Strategy::WholeChipkill
            | Strategy::PartialChipkillNoEcc
            | Strategy::PartialChipkillSecded => EccScheme::Chipkill,
            Strategy::WholeSecded | Strategy::PartialSecdedNoEcc => EccScheme::Secded,
        }
    }

    /// The scheme applied to ABFT-protected data.
    pub fn relaxed_scheme(self) -> EccScheme {
        match self {
            Strategy::NoEcc | Strategy::PartialChipkillNoEcc | Strategy::PartialSecdedNoEcc => {
                EccScheme::None
            }
            Strategy::WholeChipkill => EccScheme::Chipkill,
            Strategy::WholeSecded => EccScheme::Secded,
            Strategy::PartialChipkillSecded => EccScheme::Secded,
        }
    }

    /// For the scaling study (Section 5.2): the whole-ECC baseline a
    /// partial strategy's energy benefit is measured against.
    pub fn baseline(self) -> Strategy {
        match self {
            Strategy::PartialChipkillNoEcc | Strategy::PartialChipkillSecded => {
                Strategy::WholeChipkill
            }
            Strategy::PartialSecdedNoEcc => Strategy::WholeSecded,
            other => other,
        }
    }

    /// Build the memory-system assignment for a trace's ABFT regions.
    pub fn assignment(self, abft_regions: &[RegionId]) -> EccAssignment {
        if self.is_partial() {
            EccAssignment::relaxed(self.strong_scheme(), self.relaxed_scheme(), abft_regions)
        } else {
            EccAssignment::uniform(self.strong_scheme())
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = Strategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["No ECC", "W_CK", "P_CK+No_ECC", "W_SD", "P_SD+No_ECC", "P_CK+P_SD"]
        );
    }

    #[test]
    fn partial_strategies_relax_abft_regions_only() {
        let a = Strategy::PartialChipkillSecded.assignment(&[2, 5]);
        assert_eq!(a.default_scheme, EccScheme::Chipkill);
        assert_eq!(a.overrides, vec![(2, EccScheme::Secded), (5, EccScheme::Secded)]);
        let u = Strategy::WholeSecded.assignment(&[2, 5]);
        assert!(u.overrides.is_empty());
        assert_eq!(u.default_scheme, EccScheme::Secded);
    }

    #[test]
    fn baselines_pair_partial_with_whole() {
        assert_eq!(Strategy::PartialChipkillNoEcc.baseline(), Strategy::WholeChipkill);
        assert_eq!(Strategy::PartialChipkillSecded.baseline(), Strategy::WholeChipkill);
        assert_eq!(Strategy::PartialSecdedNoEcc.baseline(), Strategy::WholeSecded);
        assert_eq!(Strategy::NoEcc.baseline(), Strategy::NoEcc);
    }

    #[test]
    fn scheme_table() {
        assert_eq!(Strategy::NoEcc.relaxed_scheme(), EccScheme::None);
        assert_eq!(Strategy::WholeChipkill.relaxed_scheme(), EccScheme::Chipkill);
        assert_eq!(Strategy::PartialChipkillSecded.relaxed_scheme(), EccScheme::Secded);
        assert_eq!(Strategy::PartialChipkillSecded.strong_scheme(), EccScheme::Chipkill);
        assert!(!Strategy::WholeChipkill.is_partial());
        assert!(Strategy::PartialSecdedNoEcc.is_partial());
    }
}
