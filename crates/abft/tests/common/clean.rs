//! Clean runs of every FT kernel: on error-free input no check may fire.
//! Shared by `crates/abft/tests/clean_runs.rs` (n = 384 and 768) and the
//! root `tests/abft_detection.rs` (n <= 192, tier-1).

use abft_coop_runtime::SysfsChannel;
use abft_kernels::cg::{ft_pcg, FtCgOptions};
use abft_kernels::cholesky::{ft_cholesky, FtCholeskyOptions};
use abft_kernels::dgemm::{ft_dgemm, FtDgemmOptions};
use abft_kernels::hpl::{ft_hpl_with, FtHplOptions};
use abft_kernels::{FtStats, VerifyMode};
use abft_linalg::gen::{random_diag_dominant, random_matrix, random_spd, random_vector};
use abft_linalg::poisson_2d;

/// Assert that a clean run corrected nothing and flagged nothing.
fn silent(kernel: &str, n: usize, seed: u64, s: &FtStats) {
    assert!(s.verifications > 0, "{kernel} n={n} seed={seed}: never examined");
    assert_eq!(
        (s.corrections, s.uncorrectable),
        (0, 0),
        "{kernel} n={n} seed={seed}: a clean run tripped the rule"
    );
}

/// FT-DGEMM, FT-Cholesky (two- and four-vector checksums), FT-CG (full
/// and hardware-assisted) and FT-HPL at dimension `n` (a multiple of 32
/// and of 12), every seed, examining after every step.
#[expect(
    clippy::expect_used,
    reason = "test inputs are SPD and diagonally dominant by construction"
)]
pub fn every_kernel_is_silent(n: usize, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let (a, b) = (random_matrix(n, n, 2 * seed), random_matrix(n, n, 2 * seed + 1));
        let opts = FtDgemmOptions { panel: 32, verify_interval: 1, mode: VerifyMode::Full };
        silent("FT-DGEMM", n, seed, &ft_dgemm(&a, &b, &opts).stats);

        let spd = random_spd(n, seed);
        for multi_error in [false, true] {
            let opts = FtCholeskyOptions {
                block: 32,
                verify_interval: 1,
                mode: VerifyMode::Full,
                multi_error,
            };
            let r = ft_cholesky(&spd, &opts).expect("SPD input factors");
            silent(
                if multi_error { "FT-Cholesky multi" } else { "FT-Cholesky" },
                n,
                seed,
                &r.stats,
            );
        }

        let op = poisson_2d(n / 12, 12);
        let rhs = random_vector(n, seed);
        for mode in [VerifyMode::Full, VerifyMode::HardwareAssisted(SysfsChannel::new())] {
            let opts = FtCgOptions { verify_interval: 1, mode, ..Default::default() };
            let r = ft_pcg(&op, &rhs, &vec![0.0; n], &opts);
            assert!(r.converged, "FT-CG n={n} seed={seed}: residual {}", r.residual_norm);
            silent("FT-CG", n, seed, &r.stats);
        }

        let opts = FtHplOptions { block: 32, verify_interval: 1, ..Default::default() };
        let r = ft_hpl_with(&random_diag_dominant(n, seed), &opts, &[]).expect("factors");
        silent("FT-HPL", n, seed, &r.stats);
    }
}
