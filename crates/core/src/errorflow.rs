//! End-to-end error-handling flows: the Section 4 cases exercised against
//! the real stack — bit-true ECC in the memory controller, the OS
//! interrupt path, the sysfs channel, and real ABFT correction.

use abft_coop_runtime::{AllocId, EccRuntime};
use abft_ecc::{EccOutcome, EccScheme};
use abft_faultsim::scenarios::{are_outcome, ase_outcome, classify, ErrorCase, RecoveryCosts};
use abft_faultsim::ErrorPattern;
use abft_kernels::checksum::ColChecksums;
use abft_linalg::gen::random_matrix;
use abft_linalg::Matrix;
use abft_memsim::SystemConfig;

/// What happened to one end-to-end error drill.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillResult {
    /// Which protection caught the error first, if any.
    pub detected_by: DetectedBy,
    /// Whether the data was ultimately restored bit-exactly.
    pub data_restored: bool,
    /// ABFT corrections performed.
    pub abft_corrections: u64,
    /// ECC corrections performed (by the controller).
    pub ecc_corrections: u64,
    /// Whether the flow ended in a panic/restart.
    pub restarted: bool,
}

/// Who detected the corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectedBy {
    /// The ECC decoder corrected it in hardware.
    EccCorrected,
    /// The ECC decoder detected it, the OS exposed it, ABFT repaired it —
    /// the cooperative path (Section 3.2.1).
    CooperativeAbft,
    /// ABFT's own periodic verification found it (relaxed ECC was silent).
    AbftVerification,
    /// Nothing did (clean run or silent corruption).
    Nothing,
}

/// Drill one protected matrix through a store -> corrupt -> load -> repair
/// cycle under the given ECC scheme.
///
/// * `scheme` — the protection of the matrix's pages.
/// * `bits` — data bits to flip (within element `elem`'s line).
pub fn drill_matrix(scheme: EccScheme, elem: usize, bits: &[u32]) -> DrillResult {
    let cfg = SystemConfig::default();
    let mut rt = EccRuntime::new(&cfg);
    let n = 32usize;
    let a = random_matrix(n, n, 99);
    let chk = ColChecksums::encode(&a, n);

    let bytes = (n * n * 8) as u64;
    #[expect(clippy::expect_used, reason = "drill scaffolding; setup failure has no recovery path")]
    let (id, _vaddr): (AllocId, u64) =
        rt.malloc_ecc("matrix_c", bytes, scheme).expect("allocation");
    #[expect(
        clippy::expect_used,
        reason = "drill scaffolding; setup failure has no recovery path"
    )]
    rt.store_f64(id, a.as_slice()).expect("store");

    // Inject: flip the requested bits of the element.
    for &b in bits {
        rt.inject_element_bit(id, elem, b);
    }

    // The application reads the matrix back (through the decoder).
    #[expect(clippy::expect_used, reason = "drill scaffolding; setup failure has no recovery path")]
    let (data, outcome) = rt.load_f64(id, n * n, 0.0).expect("load");
    let mut m = Matrix::from_col_major(n, n, data);
    let ecc_corrections: u64 = rt.controller.corrections.iter().sum();

    match outcome {
        EccOutcome::Corrected { .. } => DrillResult {
            detected_by: DetectedBy::EccCorrected,
            data_restored: m.approx_eq(&a, 0.0, 0.0),
            abft_corrections: 0,
            ecc_corrections,
            restarted: false,
        },
        EccOutcome::DetectedUncorrectable => {
            // Interrupt -> OS -> sysfs -> ABFT repairs the named elements.
            let out = rt.handle_interrupt(0.0);
            let mut abft_corrections = 0;
            for rep in rt.sysfs().poll() {
                // Examine only the columns the reported line covers; the
                // weighted checksum locates the row within each.
                let mut cols: Vec<usize> =
                    (rep.element..rep.element + 8).map(|e| e / n).filter(|&j| j < n).collect();
                cols.dedup();
                for j in cols {
                    if let Some(v) = chk.verify_column(&m, n, j) {
                        if chk.correct(&mut m, n, &v).is_some() {
                            abft_corrections += 1;
                        }
                    }
                }
            }
            let restored = m.approx_eq(&a, 1e-12, 1e-12);
            DrillResult {
                detected_by: DetectedBy::CooperativeAbft,
                data_restored: restored,
                abft_corrections,
                ecc_corrections,
                restarted: out.panics > 0,
            }
        }
        EccOutcome::Clean => {
            // Relaxed ECC saw nothing; ABFT's periodic verification runs.
            let violations = chk.verify(&m, n);
            if violations.is_empty() {
                return DrillResult {
                    detected_by: DetectedBy::Nothing,
                    data_restored: m.approx_eq(&a, 0.0, 0.0),
                    abft_corrections: 0,
                    ecc_corrections,
                    restarted: false,
                };
            }
            let mut abft_corrections = 0;
            for v in &violations {
                if chk.correct(&mut m, n, v).is_some() {
                    abft_corrections += 1;
                }
            }
            DrillResult {
                detected_by: DetectedBy::AbftVerification,
                data_restored: m.approx_eq(&a, 1e-10, 1e-10),
                abft_corrections,
                ecc_corrections,
                restarted: false,
            }
        }
    }
}

/// Aggregate ARE-vs-ASE comparison over an error-pattern population
/// (the Section 4 discussion quantified).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CaseSummary {
    /// Events per case: [BothCorrect, OnlyAbft, OnlyEcc, Neither].
    pub counts: [u64; 4],
    /// ARE totals.
    pub are_energy_j: f64,
    /// ARE restarts.
    pub are_restarts: u64,
    /// ASE totals (cooperative exposure enabled).
    pub ase_energy_j: f64,
    /// ASE restarts.
    pub ase_restarts: u64,
    /// ASE totals under the traditional panic-on-uncorrectable policy.
    pub ase_blind_energy_j: f64,
    /// Traditional-ASE restarts.
    pub ase_blind_restarts: u64,
}

fn case_index(c: ErrorCase) -> usize {
    match c {
        ErrorCase::BothCorrect => 0,
        ErrorCase::OnlyAbft => 1,
        ErrorCase::OnlyEcc => 2,
        ErrorCase::Neither => 3,
    }
}

/// Classify a population of error patterns and accumulate ARE/ASE costs.
pub fn summarize_cases(
    patterns: &[ErrorPattern],
    abft_correctable_per_interval: u32,
    costs: &RecoveryCosts,
) -> CaseSummary {
    let mut s = CaseSummary::default();
    for p in patterns {
        let case = classify(p, abft_correctable_per_interval);
        s.counts[case_index(case)] += 1;
        let are = are_outcome(case, costs);
        s.are_energy_j += are.energy_j;
        s.are_restarts += are.restarted as u64;
        let ase = ase_outcome(case, costs, true);
        s.ase_energy_j += ase.energy_j;
        s.ase_restarts += ase.restarted as u64;
        let blind = ase_outcome(case, costs, false);
        s.ase_blind_energy_j += blind.energy_j;
        s.ase_blind_restarts += blind.restarted as u64;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drill a whole-chip fault (the chipkill headline case): a protected
    /// matrix lives under chipkill; one x4 chip goes bad across a line.
    fn drill_chip_fault(chip: usize, pattern: u8) -> DrillResult {
        let cfg = SystemConfig::default();
        let mut rt = EccRuntime::new(&cfg);
        let n = 16usize;
        let a = random_matrix(n, n, 7);
        let (id, _) =
            rt.malloc_ecc("matrix", (n * n * 8) as u64, EccScheme::Chipkill).expect("allocation");
        rt.store_f64(id, a.as_slice()).expect("store");

        // Fail the chip on the first line of the allocation.
        let paddr = rt.page_table.translate(rt.vaddr_of(id).expect("live")).expect("mapped");
        rt.controller.inject_chip_fault(paddr, chip, pattern);
        let (data, outcome) = rt.load_f64(id, n * n, 0.0).expect("load");
        let m = Matrix::from_col_major(n, n, data);
        DrillResult {
            detected_by: match outcome {
                EccOutcome::Corrected { .. } => DetectedBy::EccCorrected,
                EccOutcome::DetectedUncorrectable => DetectedBy::CooperativeAbft,
                EccOutcome::Clean => DetectedBy::Nothing,
            },
            data_restored: m.approx_eq(&a, 0.0, 0.0),
            abft_corrections: 0,
            ecc_corrections: rt.controller.corrections.iter().sum(),
            restarted: false,
        }
    }

    #[test]
    fn single_bit_under_secded_is_hardware_corrected() {
        let r = drill_matrix(EccScheme::Secded, 100, &[13]);
        assert_eq!(r.detected_by, DetectedBy::EccCorrected);
        assert!(r.data_restored);
        assert_eq!(r.ecc_corrections, 1);
    }

    #[test]
    fn single_bit_under_chipkill_is_hardware_corrected() {
        let r = drill_matrix(EccScheme::Chipkill, 7, &[60]);
        assert_eq!(r.detected_by, DetectedBy::EccCorrected);
        assert!(r.data_restored);
    }

    #[test]
    fn single_bit_without_ecc_falls_to_abft() {
        let r = drill_matrix(EccScheme::None, 333, &[51]);
        assert_eq!(r.detected_by, DetectedBy::AbftVerification);
        assert!(r.data_restored, "ABFT checksum repair must be exact-ish");
        assert_eq!(r.abft_corrections, 1);
        assert!(!r.restarted);
    }

    #[test]
    fn double_bit_under_secded_uses_the_cooperative_path() {
        // SECDED detects but cannot correct; the MC interrupt -> OS ->
        // sysfs -> ABFT chain repairs it. This is the paper's central
        // mechanism: without the cooperation the system would panic.
        let r = drill_matrix(EccScheme::Secded, 64, &[50, 55]);
        assert_eq!(r.detected_by, DetectedBy::CooperativeAbft);
        assert!(r.data_restored);
        assert!(r.abft_corrections >= 1);
        assert!(!r.restarted, "cooperative path avoids the panic");
    }

    #[test]
    fn whole_chip_failure_is_transparent_under_chipkill() {
        // Case 1 at chip granularity: chipkill's raison d'etre.
        for chip in [0usize, 17, 35] {
            let r = drill_chip_fault(chip, 0xFF);
            assert_eq!(r.detected_by, DetectedBy::EccCorrected, "chip {chip}");
            assert!(r.data_restored);
            assert!(r.ecc_corrections >= 1);
        }
    }

    #[test]
    fn case_summary_matches_section4_discussion() {
        use abft_faultsim::ErrorPattern as EP;
        let patterns = vec![
            EP::SingleBit,
            EP::SingleBit,
            EP::SingleChip { bits: 4 },
            EP::ScatteredOneLine { chips: 33 },
            EP::RepeatedSameColumn { strikes: 9 },
            EP::DispersedBurst { lines: 50, chips_per_line: 6 },
        ];
        let s = summarize_cases(&patterns, 2, &RecoveryCosts::default());
        assert_eq!(s.counts, [3, 1, 1, 1]);
        // The traditional blind-ASE restarts on Case 2 AND Case 4; the
        // cooperative ASE only on Case 4; ARE restarts on Cases 3 and 4.
        assert_eq!(s.ase_blind_restarts, 2);
        assert_eq!(s.ase_restarts, 1);
        assert_eq!(s.are_restarts, 2);
        assert!(s.ase_energy_j < s.ase_blind_energy_j);
    }
}
