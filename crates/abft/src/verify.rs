//! Verification strategies: full checksum recomputation vs the
//! hardware-assisted ("simplified") verification of Section 3.2.2, which
//! reads the error locations the OS exposed instead of recomputing sums.

use crate::cost::Cost;
use abft_coop_runtime::SysfsChannel;

/// How an ABFT kernel verifies at each examination point.
#[derive(Debug, Clone, Default)]
pub enum VerifyMode {
    /// Recompute checksums and compare — the traditional ABFT path.
    #[default]
    Full,
    /// Read the OS-exposed error reports (shared-memory poll) and only
    /// repair the named locations — "instead of recomputing checksum and
    /// making verification, ABFT can just check error information exposed
    /// by OS and hardware".
    HardwareAssisted(SysfsChannel),
}

/// Whether step `step` (0-based) of `steps` ends in an examination when
/// the kernel examines every `interval` steps: every `interval`-th step
/// and always the last one. An interval of 0 examines as 1 does.
pub(crate) fn due(step: usize, steps: usize, interval: usize) -> bool {
    (step + 1).is_multiple_of(interval.max(1)) || step + 1 == steps
}

/// Cost/occurrence accounting for one ABFT run — feeds Figure 3 and
/// Table 1. The three phases are counted from the loop nests (see
/// [`Cost`]), so two runs of one input return equal stats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FtStats {
    /// The numerical kernel itself.
    pub compute: Cost,
    /// Building and maintaining checksums, including the checksum rows
    /// and columns that ride inside the kernel's own updates.
    pub checksum: Cost,
    /// Verification: checksum recomputation and comparison, or report
    /// polls and the repairs they name.
    pub verify: Cost,
    /// Errors corrected by ABFT.
    pub corrections: u64,
    /// Checksum violations seen but not correctable (multi-error in one
    /// column, bad location, ...).
    pub uncorrectable: u64,
    /// Verification rounds executed.
    pub verifications: u64,
}

impl FtStats {
    /// Roofline cycles of the fault-tolerance overhead.
    pub fn overhead_cycles(&self) -> f64 {
        self.checksum.cycles() + self.verify.cycles()
    }

    /// Roofline cycles of the whole run.
    pub fn cycles(&self) -> f64 {
        self.compute.cycles() + self.overhead_cycles()
    }

    /// Fraction of the overhead spent verifying (the Figure 3 split).
    pub fn verify_share(&self) -> f64 {
        if self.checksum + self.verify == Cost::default() {
            0.0
        } else {
            self.verify.cycles() / self.overhead_cycles()
        }
    }

    /// Overhead relative to the pure compute time.
    pub fn overhead_ratio(&self) -> f64 {
        if self.compute == Cost::default() {
            0.0
        } else {
            self.overhead_cycles() / self.compute.cycles()
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "an empty run's shares are exactly zero; the tests pin that")]
mod tests {
    use super::*;
    use crate::cg::{ft_pcg, FtCgOptions};
    use crate::cholesky::{ft_cholesky, FtCholeskyOptions};
    use crate::dgemm::{ft_dgemm, FtDgemmOptions};
    use crate::hpl::{ft_hpl_with, FtHplOptions};
    use abft_linalg::gen::{random_diag_dominant, random_matrix, random_spd};
    use abft_linalg::poisson_2d;

    #[test]
    fn default_mode_is_full() {
        assert!(matches!(VerifyMode::default(), VerifyMode::Full));
    }

    #[test]
    fn stats_shares() {
        // Memory-bound phases: 4 words every 3 cycles on the Table 3 machine.
        let s = FtStats {
            checksum: Cost { flops: 0, words: 400 },
            verify: Cost { flops: 0, words: 1200 },
            compute: Cost { flops: 96_000, words: 0 },
            ..Default::default()
        };
        assert!((s.verify_share() - 0.75).abs() < 1e-12);
        assert!((s.overhead_ratio() - 0.1).abs() < 1e-12);
        assert!((s.cycles() - 13_200.0).abs() < 1e-9);
        assert_eq!(FtStats::default().verify_share(), 0.0);
        assert_eq!(FtStats::default().overhead_ratio(), 0.0);
    }

    #[test]
    fn due_examines_every_interval_and_always_at_the_end() {
        let examined = |steps, interval| -> Vec<usize> {
            (0..steps).filter(|&s| due(s, steps, interval)).collect()
        };
        assert_eq!(examined(7, 3), [2, 5, 6]);
        assert_eq!(examined(6, 3), [2, 5]);
        assert_eq!(examined(4, 1), [0, 1, 2, 3]);
        assert_eq!(examined(4, 0), examined(4, 1));
        assert_eq!(examined(4, 9), [3]);
    }

    /// `verify_interval: 0` used to be a remainder by zero in the kernels;
    /// now all four read it as 1.
    #[test]
    fn interval_zero_examines_as_interval_one_in_every_kernel() {
        type Run = fn(usize) -> (Vec<f64>, FtStats);
        let kernels: [(&str, Run); 4] = [
            ("dgemm", |verify_interval| {
                let (a, b) = (random_matrix(24, 24, 1), random_matrix(24, 24, 2));
                let r = ft_dgemm(
                    &a,
                    &b,
                    &FtDgemmOptions { panel: 6, verify_interval, ..Default::default() },
                );
                (r.c.as_slice().to_vec(), r.stats)
            }),
            ("cholesky", |verify_interval| {
                let opts = FtCholeskyOptions { block: 8, verify_interval, ..Default::default() };
                let r = ft_cholesky(&random_spd(32, 3), &opts).unwrap();
                (r.l.as_slice().to_vec(), r.stats)
            }),
            ("cg", |verify_interval| {
                let a = poisson_2d(8, 8);
                let b = vec![1.0; a.rows()];
                let opts = FtCgOptions { verify_interval, ..Default::default() };
                let r = ft_pcg(&a, &b, &vec![0.0; a.rows()], &opts);
                (r.x, r.stats)
            }),
            ("hpl", |verify_interval| {
                let opts = FtHplOptions { block: 8, verify_interval, ..Default::default() };
                let r = ft_hpl_with(&random_diag_dominant(32, 6), &opts, &[]).unwrap();
                (r.lu.as_slice().to_vec(), r.stats)
            }),
        ];
        for (name, run) in kernels {
            let (every_step, stats) = run(1);
            assert!(stats.verifications > 1, "{name}");
            assert_eq!(run(0), (every_step, stats), "{name}");
        }
    }
}
