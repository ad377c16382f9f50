//! `--seed` → the inputs the library sees.
//!
//! Seed 0 is the repo's default / paper-scale parameters exactly. Any
//! other seed jitters problem sizes from a benchmark-owned xorshift
//! generator, so a performance claim can be re-checked on inputs that were
//! not in front of its author. The library only ever receives the
//! resulting `KernelParams`.
//!
//! The jitter is deliberately narrow: the driver takes the spread of
//! every end-to-end metric *across* seeds, so a seed must change which
//! addresses, sizes and phase boundaries the code meets without changing
//! how much there is to do. Measured 2026-10-01 (README.md has the table):
//!
//! * a tile more or less on FT-Cholesky or FT-HPL moves `peak_rss_mib` of
//!   `grid_replay` by 4%, and a verification interval of 3 instead of 4
//!   adds 5% to FT-CG's miss events, so the dense sizes stay put and the
//!   interval is drawn from {4, 5}, which verify equally often at the
//!   default step counts but at different steps; the default FT-CG grid
//!   moves by at most 3 in 512 (at ±6 the ten-seed spread of
//!   `peak_rss_mib` was 2.2-2.7%, over a third of its 5% bound);
//! * the sampled replay's error is fragile: moving the paper grid from
//!   1024 by 4 takes the worst sampled error from 0.26% to 2.5-4.8%, and 1
//!   k-means seed in 40 takes it to 5.4%, both past the 2% limit
//!   `paper_sampled` enforces, so the paper grid and `SimPointConfig` stay
//!   put too. Every cell of every run must pass its checks.

use abft_memsim::workloads::{CgParams, CholeskyParams, DgemmParams, HplParams};
use abft_memsim::KernelParams;

/// Everything a workload derives from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The fig07 grid's four kernels (FT-DGEMM, FT-Cholesky, FT-CG,
    /// FT-HPL), default scale at seed 0.
    pub grid: [KernelParams; 4],
    /// The paper-scale FT-CG problem of the two `paper_*` workloads.
    pub paper_cg: KernelParams,
}

/// xorshift64 (Marsaglia 13/7/17); the state is never zero.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        // One splitmix64 round spreads small seeds over the state space.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        XorShift((z ^ (z >> 31)).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform integer in `[lo, hi]`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Inputs {
        let mut dgemm = DgemmParams::default();
        let mut cg = CgParams::default();
        let mut paper = CgParams::paper_scale();
        if seed != 0 {
            let mut rng = XorShift::new(seed);
            dgemm.verify_interval = rng.range(4, 5) as usize;
            cg.grid = (cg.grid as i64 + rng.range(-3, 3)) as usize;
            cg.verify_interval = rng.range(4, 5) as usize;
            paper.verify_interval = rng.range(4, 5) as usize;
        }
        Inputs {
            grid: [
                KernelParams::Dgemm(dgemm),
                KernelParams::Cholesky(CholeskyParams::default()),
                KernelParams::Cg(cg),
                KernelParams::Hpl(HplParams::default()),
            ],
            paper_cg: KernelParams::Cg(paper),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_memsim::KernelKind;

    #[test]
    fn seed_zero_is_the_repo_defaults() {
        let inputs = Inputs::from_seed(0);
        for (p, k) in inputs.grid.iter().zip(KernelKind::ALL) {
            assert_eq!(*p, KernelParams::default_for(k));
        }
        assert_eq!(inputs.paper_cg, KernelParams::paper_for(KernelKind::Cg));
    }

    #[test]
    fn a_seed_names_one_input_set() {
        assert_eq!(Inputs::from_seed(7), Inputs::from_seed(7));
        assert_ne!(Inputs::from_seed(7), Inputs::from_seed(8));
        assert_ne!(Inputs::from_seed(7), Inputs::from_seed(0));
    }

    #[test]
    fn jitter_stays_narrow() {
        let base = Inputs::from_seed(0);
        for seed in 1..200 {
            let inputs = Inputs::from_seed(seed);
            assert_eq!(inputs.grid[1], base.grid[1]);
            assert_eq!(inputs.grid[3], base.grid[3]);
            let KernelParams::Cg(cg) = inputs.grid[2] else { panic!("grid[2] is FT-CG") };
            assert!(cg.grid.abs_diff(512) <= 3 && (4..=5).contains(&cg.verify_interval));
        }
    }
}
