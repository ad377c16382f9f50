//! Monte-Carlo fault campaigns: Poisson error arrivals drawn from a
//! realistic pattern mix, accumulated into ARE-vs-ASE outcome
//! distributions — the statistical backing for Section 4's "given the
//! rareness of errors, ARE wins over ASE for most of cases".

use crate::injector::ErrorPattern;
use crate::scenarios::{are_outcome, ase_outcome, classify, ErrorCase, RecoveryCosts};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Relative weights of the error-pattern families (field studies put
/// single-bit events far ahead; whole-chip and burst events are rare).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternMix {
    /// Single-bit upsets.
    pub single_bit: f64,
    /// Whole/partial chip errors.
    pub single_chip: f64,
    /// Scattered one-line multi-chip errors (Case 2 shapes).
    pub scattered: f64,
    /// Repeated strikes in one column within an examining period (Case 3).
    pub repeated_column: f64,
    /// Dispersed bursts (Case 4).
    pub burst: f64,
}

impl Default for PatternMix {
    fn default() -> Self {
        // Roughly after the DRAM field studies the paper cites ([20], [33],
        // [35]): overwhelmingly single-bit, a few percent chip-level, and
        // a long tail of multi-device events.
        PatternMix {
            single_bit: 0.92,
            single_chip: 0.06,
            scattered: 0.015,
            repeated_column: 0.004,
            burst: 0.001,
        }
    }
}

impl PatternMix {
    fn sample(&self, rng: &mut ChaCha8Rng) -> ErrorPattern {
        let total =
            self.single_bit + self.single_chip + self.scattered + self.repeated_column + self.burst;
        let mut x: f64 = rng.random_range(0.0..total);
        if x < self.single_bit {
            return ErrorPattern::SingleBit;
        }
        x -= self.single_bit;
        if x < self.single_chip {
            return ErrorPattern::SingleChip { bits: rng.random_range(1..=8) };
        }
        x -= self.single_chip;
        if x < self.scattered {
            return ErrorPattern::ScatteredOneLine { chips: rng.random_range(3..=36) };
        }
        x -= self.scattered;
        if x < self.repeated_column {
            return ErrorPattern::RepeatedSameColumn { strikes: rng.random_range(3..=12) };
        }
        ErrorPattern::DispersedBurst {
            lines: rng.random_range(8..=64),
            chips_per_line: rng.random_range(2..=8),
        }
    }
}

/// Campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignConfig {
    /// Independent application runs to simulate.
    pub trials: u32,
    /// Expected errors per run (the Poisson mean; scale via Eq 4).
    pub errors_per_run: f64,
    /// Pattern mix.
    pub mix: PatternMix,
    /// ABFT's per-examination correction capability (checksum vectors).
    pub abft_correctable: u32,
    /// Recovery cost model.
    pub costs: RecoveryCosts,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FaultCampaignConfig {
    fn default() -> Self {
        FaultCampaignConfig {
            trials: 10_000,
            errors_per_run: 0.5,
            mix: PatternMix::default(),
            abft_correctable: 2,
            costs: RecoveryCosts::default(),
            seed: 2013,
        }
    }
}

/// Aggregated campaign outcome for one configuration (ARE or ASE).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SideStats {
    /// Mean recovery energy per run (J).
    pub mean_energy_j: f64,
    /// 99th-percentile recovery energy per run (J).
    pub p99_energy_j: f64,
    /// Fraction of runs that restarted at least once.
    pub restart_fraction: f64,
    /// Mean recovery time per run (s).
    pub mean_time_s: f64,
}

/// Full campaign result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultCampaignResult {
    /// Error-case histogram: [both, only-ABFT, only-ECC, neither].
    pub case_counts: [u64; 4],
    /// Total errors sampled.
    pub total_errors: u64,
    /// ARE (ABFT + relaxed ECC).
    pub are: SideStats,
    /// Cooperative ASE (errors exposed to the application).
    pub ase_coop: SideStats,
    /// Traditional ASE (panic on uncorrectable).
    pub ase_blind: SideStats,
}

fn side_stats(per_run: &mut [(f64, f64, bool)]) -> SideStats {
    let n = per_run.len() as f64;
    let mean_energy_j = per_run.iter().map(|r| r.0).sum::<f64>() / n;
    let mean_time_s = per_run.iter().map(|r| r.1).sum::<f64>() / n;
    let restart_fraction = per_run.iter().filter(|r| r.2).count() as f64 / n;
    per_run.sort_by(|a, b| a.0.total_cmp(&b.0));
    let p99 = per_run[((n * 0.99) as usize).min(per_run.len() - 1)].0;
    SideStats { mean_energy_j, p99_energy_j: p99, restart_fraction, mean_time_s }
}

/// Progress snapshot handed to [`run_fault_campaign_with_progress`]'s hook.
#[derive(Debug, Clone, Copy)]
pub struct McProgress {
    /// Trials simulated so far.
    pub trials_done: u32,
    /// Total trials in the campaign.
    pub trials_total: u32,
    /// Errors sampled so far.
    pub errors_sampled: u64,
}

/// Run the campaign, reporting liveness roughly once per percent of
/// trials (and on the final trial). The hook never touches the RNG, so
/// results are bit-identical for the same seed whatever it does.
pub fn run_fault_campaign_with_progress(
    cfg: &FaultCampaignConfig,
    mut progress: impl FnMut(&McProgress),
) -> FaultCampaignResult {
    let report_every = (cfg.trials / 100).max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut result = FaultCampaignResult::default();
    let mut are_runs = Vec::with_capacity(cfg.trials as usize);
    let mut coop_runs = Vec::with_capacity(cfg.trials as usize);
    let mut blind_runs = Vec::with_capacity(cfg.trials as usize);

    for trial in 0..cfg.trials {
        // Poisson(errors_per_run) via exponential thinning.
        let mut k = 0u32;
        let mut acc: f64 = rng.random_range(f64::MIN_POSITIVE..1.0f64).ln();
        let limit = -cfg.errors_per_run;
        while acc > limit {
            k += 1;
            acc += rng.random_range(f64::MIN_POSITIVE..1.0f64).ln();
        }
        let mut are = (0.0, 0.0, false);
        let mut coop = (0.0, 0.0, false);
        let mut blind = (0.0, 0.0, false);
        for _ in 0..k {
            result.total_errors += 1;
            let p = cfg.mix.sample(&mut rng);
            let case = classify(&p, cfg.abft_correctable);
            let idx = match case {
                ErrorCase::BothCorrect => 0,
                ErrorCase::OnlyAbft => 1,
                ErrorCase::OnlyEcc => 2,
                ErrorCase::Neither => 3,
            };
            result.case_counts[idx] += 1;
            let o = are_outcome(case, &cfg.costs);
            are.0 += o.energy_j;
            are.1 += o.time_s;
            are.2 |= o.restarted;
            let o = ase_outcome(case, &cfg.costs, true);
            coop.0 += o.energy_j;
            coop.1 += o.time_s;
            coop.2 |= o.restarted;
            let o = ase_outcome(case, &cfg.costs, false);
            blind.0 += o.energy_j;
            blind.1 += o.time_s;
            blind.2 |= o.restarted;
        }
        are_runs.push(are);
        coop_runs.push(coop);
        blind_runs.push(blind);
        if (trial + 1) % report_every == 0 || trial + 1 == cfg.trials {
            progress(&McProgress {
                trials_done: trial + 1,
                trials_total: cfg.trials,
                errors_sampled: result.total_errors,
            });
        }
    }
    result.are = side_stats(&mut are_runs);
    result.ase_coop = side_stats(&mut coop_runs);
    result.ase_blind = side_stats(&mut blind_runs);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FaultCampaignConfig {
        FaultCampaignConfig { trials: 3000, ..Default::default() }
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let a = run_fault_campaign_with_progress(&small(), |_| {});
        let b = run_fault_campaign_with_progress(&small(), |_| {});
        assert_eq!(a, b);
        let c =
            run_fault_campaign_with_progress(&FaultCampaignConfig { seed: 99, ..small() }, |_| {});
        assert_ne!(a, c);
    }

    #[test]
    fn progress_hook_is_monotone_and_bit_preserving() {
        let mut snapshots: Vec<McProgress> = Vec::new();
        let with = run_fault_campaign_with_progress(&small(), |p| snapshots.push(*p));
        assert_eq!(
            with,
            run_fault_campaign_with_progress(&small(), |_| {}),
            "hook must not perturb the RNG stream"
        );
        assert!(snapshots.len() >= 100, "about one report per percent");
        assert_eq!(snapshots.last().unwrap().trials_done, 3000);
        for w in snapshots.windows(2) {
            assert!(w[0].trials_done < w[1].trials_done);
            assert!(w[0].errors_sampled <= w[1].errors_sampled);
        }
    }

    #[test]
    fn poisson_mean_is_respected() {
        let r = run_fault_campaign_with_progress(&small(), |_| {});
        let mean = r.total_errors as f64 / 3000.0;
        assert!((mean - 0.5).abs() < 0.05, "sampled mean {mean}");
    }

    #[test]
    fn case1_dominates_under_the_field_mix() {
        let r = run_fault_campaign_with_progress(&small(), |_| {});
        let total: u64 = r.case_counts.iter().sum();
        assert!(r.case_counts[0] as f64 / total as f64 > 0.9, "{:?}", r.case_counts);
    }

    #[test]
    fn cooperative_ase_restarts_least() {
        // The Section 4 ranking: blind ASE restarts on Cases 2+4,
        // cooperative ASE only on 4, ARE on 3+4.
        let r = run_fault_campaign_with_progress(&small(), |_| {});
        assert!(r.ase_coop.restart_fraction <= r.ase_blind.restart_fraction);
        assert!(r.ase_coop.restart_fraction <= r.are.restart_fraction);
    }

    #[test]
    fn blind_ase_pays_more_energy_than_cooperative() {
        let r = run_fault_campaign_with_progress(&small(), |_| {});
        assert!(r.ase_blind.mean_energy_j >= r.ase_coop.mean_energy_j);
        assert!(r.ase_blind.p99_energy_j >= r.ase_coop.p99_energy_j);
    }

    #[test]
    fn higher_error_rates_scale_costs() {
        let lo = run_fault_campaign_with_progress(&small(), |_| {});
        let hi = run_fault_campaign_with_progress(
            &FaultCampaignConfig { errors_per_run: 5.0, ..small() },
            |_| {},
        );
        assert!(hi.are.mean_energy_j > 5.0 * lo.are.mean_energy_j);
    }
}
