//! What the ablation and study experiments compute, in one place: their
//! `repro` modules print it, and the claims ledger ([`crate::claims`])
//! reads it. Each function is the experiment's grid or loop, with the
//! experiment's seeds and sizes.

use abft_analysis::checkpoint::{sweep, CheckpointComparison};
use abft_coop_core::{CampaignSpec, Strategy};
use abft_dgms::run_dgms;
use abft_ecc::{classify_against_truth, EccOutcome, EccScheme, ProtectedLine, TruthOutcome};
use abft_faultsim::{ErrorPattern, FaultCampaignConfig, Injector};
use abft_kernels::dgemm::{ft_dgemm, ft_dgemm_with, FtDgemmOptions};
use abft_kernels::{FtStats, VerifyMode};
use abft_linalg::gen::random_matrix;
use abft_memsim::config::{DeviceWidth, RowPolicy};
use abft_memsim::controller::MemoryController;
use abft_memsim::dram::AddressMap;
use abft_memsim::system::{Machine, SimStats};
use abft_memsim::workloads::{CgParams, DgemmParams, KernelKind, KernelParams};
use abft_memsim::{SimInput, SystemConfig, TraceCache};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `fig10_dgms_comparison`: one kernel's default-scale miss stream (the
/// campaign's memoized one) replayed under the DGMS predictor; returns the
/// stats and the fraction of coarse (chipkill) accesses.
pub fn dgms_pass(kind: KernelKind) -> (SimStats, f64) {
    let ms = TraceCache::global()
        .get_filtered(KernelParams::default_for(kind), &SystemConfig::default());
    run_dgms(&Machine::new(SystemConfig::default()), SimInput::MissStream(&ms))
}

/// `monte_carlo_campaign`'s configuration at one error rate.
pub fn monte_carlo_config(errors_per_run: f64) -> FaultCampaignConfig {
    FaultCampaignConfig { errors_per_run, trials: 20_000, ..Default::default() }
}

/// `cases_error_handling`'s population of sampled error patterns.
pub fn case_population() -> Vec<ErrorPattern> {
    let mut inj = Injector::new(2013);
    let mut patterns = vec![ErrorPattern::SingleBit; 900];
    for _ in 0..60 {
        let (e, _) = inj.random_target(36);
        patterns.push(ErrorPattern::SingleChip { bits: (e % 8 + 1) as u32 });
    }
    let mut add = |p, times| patterns.extend(std::iter::repeat_n(p, times));
    add(ErrorPattern::ScatteredOneLine { chips: 33 }, 25);
    add(ErrorPattern::RepeatedSameColumn { strikes: 6 }, 10);
    add(ErrorPattern::DispersedBurst { lines: 40, chips_per_line: 4 }, 5);
    patterns
}

/// `ablation_error_registers`: examination periods simulated per depth.
pub const REGISTER_TRIALS: usize = 2000;

/// Lost error reports at one error-register depth.
pub struct RegisterLoss {
    /// Events overwritten before the drain.
    pub lost: u64,
    /// Periods that lost at least one event.
    pub bad_periods: u64,
    /// Events raised.
    pub total: u64,
}

/// `ablation_error_registers` at depth `n`: Poisson bursts of SECDED-
/// uncorrectable events (mean 2 per examination period) raised between
/// examinations.
pub fn register_loss(n: usize) -> RegisterLoss {
    let cfg = SystemConfig::default();
    let mut inj = Injector::new(7);
    let bursts: Vec<usize> =
        (0..REGISTER_TRIALS).map(|_| inj.poisson_times(2.0, 1.0).len()).collect();
    let mut loss = RegisterLoss { lost: 0, bad_periods: 0, total: 0 };
    for &burst in &bursts {
        let mut mc = MemoryController::new(AddressMap::new(&cfg), EccScheme::Secded);
        mc.set_error_depth(n);
        for k in 0..burst {
            let addr = 0x100000 + (k as u64) * 64;
            mc.write_line(addr, &[3u8; 64]);
            mc.inject_bit_flip(addr, 1);
            mc.inject_bit_flip(addr, 2);
            let _ = mc.read_line(addr, k as f64);
        }
        loss.total += burst as u64;
        loss.lost += mc.errors_overwritten;
        if mc.errors_overwritten > 0 {
            loss.bad_periods += 1;
        }
    }
    loss
}

/// `ablation_verify_interval` at one interval (in panels): FT-DGEMM
/// n = 384, panel 24, clean and with a strike right after panel 0.
pub fn verify_interval_runs(interval: usize) -> (FtStats, FtStats) {
    let n = 384;
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let opts = FtDgemmOptions { panel: 24, verify_interval: interval, mode: VerifyMode::Full };
    let clean = ft_dgemm(&a, &b, &opts).stats;
    let struck = ft_dgemm_with(&a, &b, &opts, |p, cf| {
        if p == 0 {
            cf[(7, 9)] += 1e5;
        }
    });
    (clean, struck.stats)
}

/// The FT-DGEMM workload of the row-policy and device-width ablations.
const ABLATION_DGEMM: DgemmParams = DgemmParams { n: 768, nb: 64, abft: true, verify_interval: 4 };

/// `ablation_row_policy`'s grid: configs `open` and `closed`.
pub fn row_policy_spec() -> CampaignSpec {
    let with = |row_policy| SystemConfig { row_policy, ..SystemConfig::default() };
    CampaignSpec::builder()
        .workload(ABLATION_DGEMM)
        .strategies([Strategy::WholeChipkill, Strategy::PartialChipkillNoEcc])
        .config("open", with(RowPolicy::Open))
        .config("closed", with(RowPolicy::Closed))
        .build()
}

/// `ablation_mlp`'s grid over the given stall factors, one config each,
/// tagged by [`mlp_tag`].
pub fn mlp_spec(stall_factors: &[f64]) -> CampaignSpec {
    let mut spec = CampaignSpec::builder()
        .workload(CgParams { grid: 384, iterations: 6, abft: true, verify_interval: 4 })
        .strategies([Strategy::NoEcc, Strategy::WholeChipkill]);
    for &stall_factor in stall_factors {
        spec = spec.config(
            mlp_tag(stall_factor),
            SystemConfig { stall_factor, ..SystemConfig::default() },
        );
    }
    spec.build()
}

/// The config tag of one stall factor in [`mlp_spec`].
pub fn mlp_tag(stall_factor: f64) -> String {
    format!("sf={stall_factor:.2}")
}

/// `ablation_device_width`'s grid: configs `x4` and `x8`.
pub fn device_width_spec() -> CampaignSpec {
    CampaignSpec::builder()
        .workload(ABLATION_DGEMM)
        .strategies([Strategy::NoEcc, Strategy::WholeChipkill, Strategy::PartialChipkillNoEcc])
        .config("x4", SystemConfig { device_width: DeviceWidth::X4, ..SystemConfig::default() })
        .config("x8", SystemConfig { device_width: DeviceWidth::X8, ..SystemConfig::default() })
        .build()
}

/// `sdc_study`'s schemes, pattern sizes (bits) and trials per cell.
pub const SDC_SCHEMES: [EccScheme; 3] = [EccScheme::Secded, EccScheme::Chipkill, EccScheme::None];
pub const SDC_BITS: [usize; 5] = [1, 2, 3, 4, 8];
const SDC_TRIALS: u32 = 4000;

/// `sdc_study`: the fractions of random `bits`-bit line errors that each
/// scheme truly corrects, detects and passes silently, per
/// (scheme, bits) in [`SDC_SCHEMES`] × [`SDC_BITS`] order, all drawn from
/// one seeded stream.
pub fn sdc_study() -> Vec<[f64; 3]> {
    let mut rng = ChaCha8Rng::seed_from_u64(2013);
    let mut cells = Vec::new();
    for scheme in SDC_SCHEMES {
        for bits in SDC_BITS {
            let mut counts = [0u32; 3];
            for _ in 0..SDC_TRIALS {
                let mut data = [0u8; 64];
                rng.fill(&mut data[..]);
                let mut line = ProtectedLine::encode(scheme, &data);
                let mut flipped = std::collections::BTreeSet::new();
                while flipped.len() < bits {
                    flipped.insert(rng.random_range(0..512usize));
                }
                for &b in &flipped {
                    line.flip_data_bit(b);
                }
                let (out, o) = line.decode();
                counts[match classify_against_truth(o, out == data) {
                    TruthOutcome::TrueCorrection => 0,
                    TruthOutcome::TrueDetection => 1,
                    // Flips landed, so "clean" is a silent corruption too.
                    TruthOutcome::SilentCorruption | TruthOutcome::TrueClean => 2,
                }] += 1;
            }
            cells.push(counts.map(|c| f64::from(c) / f64::from(SDC_TRIALS)));
        }
    }
    cells
}

/// `scrub_study`'s region: 4096 lines, 256 KB under SECDED.
pub const SCRUB_LINES: u64 = 4096;

/// `scrub_study` with a scrub every `interval` strikes (`None`: never)
/// over 6000 random single-bit strikes: (lines the scrubs corrected,
/// lines SECDED-uncorrectable at the final read).
pub fn scrub(interval: Option<u32>) -> (u64, u64) {
    let cfg = SystemConfig::default();
    let strikes = 6000u32;
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut mc = MemoryController::new(AddressMap::new(&cfg), EccScheme::Secded);
    for l in 0..SCRUB_LINES {
        mc.write_line(l * 64, &[0xE7u8; 64]);
    }
    let mut scrub_corrected = 0u64;
    for k in 0..strikes {
        let line = rng.random_range(0..SCRUB_LINES) * 64;
        let bit = rng.random_range(0..512usize);
        mc.inject_bit_flip(line, bit);
        if interval.is_some_and(|i| k % i == i - 1) {
            let (_, c, _) = mc.scrub_range(0, SCRUB_LINES * 64, k as f64);
            scrub_corrected += c;
        }
    }
    let bad = (0..SCRUB_LINES)
        .filter(|l| mc.read_line(l * 64, strikes as f64).1 == EccOutcome::DetectedUncorrectable)
        .count() as u64;
    (scrub_corrected, bad)
}

/// `checkpoint_vs_abft`: 2-minute checkpoint writes, 5-minute restarts, a
/// 3% ABFT tax (the basic tests' measured band) and 1-second ABFT
/// recoveries, at each system MTTF (s).
pub fn checkpoint_sweep(mttfs: &[f64]) -> Vec<CheckpointComparison> {
    sweep(120.0, 300.0, 0.03, 1.0, mttfs)
}
