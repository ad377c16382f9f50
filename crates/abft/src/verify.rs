//! Verification strategies: full checksum recomputation vs the
//! hardware-assisted ("simplified") verification of Section 3.2.2, which
//! reads the error locations the OS exposed instead of recomputing sums.

use abft_coop_runtime::SysfsChannel;
use std::time::Duration;

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

/// Time/occurrence accounting for one ABFT run — feeds Figure 3 and
/// Table 1.
#[derive(Debug, Clone, Default)]
pub struct FtStats {
    /// Time spent building and maintaining checksums.
    pub checksum_time: Duration,
    /// Time spent in verification (checksum comparison or report polls).
    pub verify_time: Duration,
    /// Time spent in the numerical kernel itself.
    pub compute_time: Duration,
    /// Errors corrected by ABFT.
    pub corrections: u64,
    /// Checksum violations seen but not correctable (multi-error in one
    /// column, bad location, ...).
    pub uncorrectable: u64,
    /// Verification rounds executed.
    pub verifications: u64,
}

impl FtStats {
    /// Total fault-tolerance overhead time.
    pub fn overhead(&self) -> Duration {
        self.checksum_time + self.verify_time
    }

    /// Fraction of the overhead spent verifying (the Figure 3 split).
    pub fn verify_share(&self) -> f64 {
        let o = self.overhead().as_secs_f64();
        // repolint:allow(FP001) exact-zero division guard, not a tolerance check
        if o == 0.0 {
            0.0
        } else {
            self.verify_time.as_secs_f64() / o
        }
    }

    /// Overhead relative to the pure compute time.
    pub fn overhead_ratio(&self) -> f64 {
        let c = self.compute_time.as_secs_f64();
        // repolint:allow(FP001) exact-zero division guard, not a tolerance check
        if c == 0.0 {
            0.0
        } else {
            self.overhead().as_secs_f64() / c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_full() {
        assert!(matches!(VerifyMode::default(), VerifyMode::Full));
    }

    #[test]
    fn stats_shares() {
        let s = FtStats {
            checksum_time: Duration::from_millis(30),
            verify_time: Duration::from_millis(70),
            compute_time: Duration::from_millis(1000),
            ..Default::default()
        };
        assert!((s.verify_share() - 0.7).abs() < 1e-9);
        assert!((s.overhead_ratio() - 0.1).abs() < 1e-9);
        assert_eq!(FtStats::default().verify_share(), 0.0);
    }
}
