//! The measuring side of the claims ledger (`abft_coop_core::claims`):
//! [`measure`] runs each experiment a ledger row reads, once, and names
//! every number it yields by a quantity key; [`evaluate`] pairs each row
//! with its number. `repro claims` prints the verdicts, and
//! `tests/claims.rs` fails tier-1 when one disagrees with the ledger's
//! `deviation` column.
//!
//! A key is a name and its arguments joined by `/`, in the labels the
//! experiments print (`saving/mem_energy/FT-CG/P_CK+No_ECC`). The campaigns
//! run on the process-wide trace cache, as in `repro all`.

use crate::studies;
use abft_analysis::{profiles_from_basic_test, strong_scaling, weak_scaling, ScalePoint};
use abft_analysis::{ScalingConfig, StrategyProfile};
use abft_coop_core::claims::{parse, Claim, LedgerError, LEDGER};
use abft_coop_core::Strategy;
use abft_coop_core::{summarize_cases, BasicTest, CampaignClient, CampaignRun, CampaignSpec};
use abft_coop_runtime::SysfsChannel;
use abft_faultsim::scenarios::RecoveryCosts;
use abft_faultsim::{run_fault_campaign_with_progress, table5};
use abft_kernels::overhead::{measure as count, simplified_verification_improvement};
use abft_kernels::overhead::{FailContinueKernel, OverheadScale};
use abft_kernels::VerifyMode;
use abft_memsim::system::SimStats;
use abft_memsim::workloads::{abft_region_ids, KernelKind, KernelParams};
use abft_memsim::{SystemConfig, TraceCache};
use std::collections::BTreeMap;

/// The ledger, each claim with the number [`measure`] gives its key. A
/// key nothing measures is a [`LedgerError::UnknownQuantity`].
pub fn evaluate() -> Result<Vec<(Claim, f64)>, LedgerError> {
    let q = measure();
    let claims = parse(LEDGER, |key| q.contains_key(key))?;
    let values: Vec<f64> =
        claims.iter().map(|c| q.get(&c.quantity).copied().unwrap_or(f64::NAN)).collect();
    Ok(claims.into_iter().zip(values).collect())
}

fn max_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

fn min_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// The memory-energy saving of P_CK+No_ECC over W_CK in one config of a
/// one-kernel campaign.
fn chipkill_saving(run: &CampaignRun, tag: &str) -> f64 {
    let kernel = run.results.first().map_or(KernelKind::Dgemm, |r| r.kernel);
    let mem = |s| run.get(kernel, s, tag).map_or(f64::NAN, |c| c.stats.mem_total_j());
    1.0 - mem(Strategy::PartialChipkillNoEcc) / mem(Strategy::WholeChipkill)
}

/// How one energy is read off a cell.
type Energy = fn(&SimStats) -> f64;

/// Each partial strategy's scaling curve over FT-CG's profiles.
type Curves = Vec<(Strategy, Vec<ScalePoint>)>;

fn curves(
    profiles: &[StrategyProfile],
    scale: fn(&StrategyProfile, &ScalingConfig) -> Vec<ScalePoint>,
) -> Curves {
    let cfg = ScalingConfig::default();
    profiles.iter().map(|p| (p.strategy, scale(p, &cfg))).collect()
}

/// Every quantity a ledger row may read, by key.
pub fn measure() -> BTreeMap<String, f64> {
    let mut q = BTreeMap::new();
    let (wck, ours) = (Strategy::WholeChipkill, Strategy::PartialChipkillSecded);

    // Figures 5-7, Table 4 and the headline: the basic tests' cells.
    let basic = CampaignClient::local().run(&CampaignSpec::basic(KernelKind::ALL)).basic_tests();
    let energies: [(&str, Energy); 3] = [
        ("mem_energy", SimStats::mem_total_j),
        ("mem_dynamic", SimStats::mem_dynamic_j),
        ("system_energy", SimStats::system_j),
    ];
    for (e, energy) in energies {
        for s in Strategy::PARTIAL {
            let of = |bt: &BasicTest| {
                1.0 - energy(&bt.row(s).stats) / energy(&bt.row(s.baseline()).stats)
            };
            let savings: Vec<f64> = basic.iter().map(of).collect();
            for (bt, &x) in basic.iter().zip(&savings) {
                let others = basic.iter().zip(&savings).filter(|(o, _)| o.kernel != bt.kernel);
                let (k, s) = (bt.kernel.label(), s.label());
                q.insert(format!("saving/{e}/{k}/{s}"), x);
                q.insert(
                    format!("largest_saving/{e}/{k}/{s}"),
                    x / max_of(others.map(|(_, &y)| y)),
                );
            }
            q.insert(format!("max_saving/{e}/{}", s.label()), max_of(savings));
        }
    }
    for s in Strategy::ALL {
        let costs: Vec<f64> = basic.iter().map(|bt| bt.mem_energy_norm(s) - 1.0).collect();
        q.insert(
            format!("mean_cost/{}", s.label()),
            costs.iter().sum::<f64>() / costs.len() as f64,
        );
        for (bt, cost) in basic.iter().zip(costs) {
            let (k, l) = (bt.kernel.label(), s.label());
            q.insert(format!("cost/{k}/{l}"), cost);
            q.insert(format!("ipc_norm/{k}/{l}"), bt.ipc_norm(s));
        }
        let speedups =
            basic.iter().map(|bt| bt.row(s).stats.ipc() / bt.row(s.baseline()).stats.ipc() - 1.0);
        q.insert(format!("max_speedup/{}", s.label()), max_of(speedups));
    }
    let spreads = basic.iter().map(|bt| {
        let spread = |f: &dyn Fn(Strategy) -> f64| {
            max_of(Strategy::ALL.map(f)) - min_of(Strategy::ALL.map(f))
        };
        spread(&|s| bt.ipc_norm(s)) / spread(&|s| bt.mem_energy_norm(s))
    });
    q.insert("ipc_over_energy_spread".into(), max_of(spreads));
    for bt in &basic {
        let k = bt.kernel.label();
        q.insert(format!("llc_ratio/{k}"), bt.row(wck).stats.abft_ref_ratio());
        let ms = TraceCache::global()
            .get_filtered(KernelParams::default_for(bt.kernel), &SystemConfig::default());
        q.insert(format!("relaxed_structures/{k}"), abft_region_ids(ms.regions()).len() as f64);
    }

    // Figure 10: DGMS against P_CK+P_SD and W_CK.
    for bt in basic.iter().filter(|bt| matches!(bt.kernel, KernelKind::Dgemm | KernelKind::Cg)) {
        let (d, o, w) = (studies::dgms_pass(bt.kernel).0, &bt.row(ours).stats, &bt.row(wck).stats);
        let k = bt.kernel.label();
        q.insert(format!("dgms_speedup/{k}"), d.seconds / o.seconds - 1.0);
        q.insert(format!("dgms_energy_saving/{k}"), 1.0 - o.mem_total_j() / d.mem_total_j());
        q.insert(format!("dgms_energy_cost/{k}"), d.mem_total_j() / o.mem_total_j() - 1.0);
        q.insert(format!("dgms_over_wck/{k}"), d.mem_total_j() / w.mem_total_j());
    }

    // Figures 8 and 9: Eq. 2-8 over FT-CG's measured profiles.
    let cg = basic.iter().find(|bt| bt.kernel == KernelKind::Cg);
    let profiles = cg.map(profiles_from_basic_test).unwrap_or_default();
    let (weak, strong) = (curves(&profiles, weak_scaling), curves(&profiles, strong_scaling));
    let last = |pts: &[ScalePoint]| pts[pts.len() - 1];
    let growth = weak.iter().flat_map(|(_, pts)| {
        let (a, b) = (pts[0], last(pts));
        let procs = b.procs as f64 / a.procs as f64;
        [b.benefit_kj / a.benefit_kj / procs, b.recovery_kj / a.recovery_kj / procs]
    });
    let farthest = growth.max_by(|a, b| (a - 1.0).abs().total_cmp(&(b - 1.0).abs()));
    q.insert("weak_growth_over_procs".into(), farthest.unwrap_or(f64::NAN));
    let ratios = weak.iter().flat_map(|(_, pts)| pts.iter().map(|p| p.benefit_kj / p.recovery_kj));
    q.insert("weak_benefit_over_recovery".into(), min_of(ratios));
    let peaks = strong.iter().map(|(_, pts)| {
        max_of(pts.iter().map(|p| p.benefit_kj)) / pts[0].benefit_kj.max(last(pts).benefit_kj)
    });
    q.insert("strong_peak_over_ends".into(), min_of(peaks));
    let steps =
        strong.iter().flat_map(|(_, p)| p.windows(2).map(|w| w[1].recovery_kj / w[0].recovery_kj));
    q.insert("strong_recovery_step".into(), max_of(steps));
    for (s, pts) in &weak {
        let others = weak.iter().filter(|(o, _)| o != s).map(|(_, p)| last(p).recovery_kj);
        q.insert(
            format!("weak_recovery_over/{}", s.label()),
            min_of(others) / last(pts).recovery_kj,
        );
    }
    let net = |p: &ScalePoint| p.benefit_kj - p.recovery_kj;
    for (s, pts) in &strong {
        let leads = pts.iter().enumerate().map(|(j, p)| {
            net(p) / max_of(strong.iter().filter(|(o, _)| o != s).map(|(_, o)| net(&o[j])))
        });
        q.insert(format!("strong_net_lead/{}", s.label()), min_of(leads));
    }

    // Figure 3 and Table 1: the counted FT kernels.
    let scale = OverheadScale::default();
    let mut shares = Vec::new();
    for k in FailContinueKernel::ALL {
        let full = count(k, &scale, VerifyMode::Full);
        let assisted = count(k, &scale, VerifyMode::HardwareAssisted(SysfsChannel::new()));
        shares.push(full.verify_share());
        q.insert(
            format!("assisted_gain/{}", k.label()),
            simplified_verification_improvement(&full, &assisted),
        );
    }
    q.insert("min_verify_share".into(), min_of(shares));
    for (label, fit) in table5() {
        q.insert(format!("fit/{label}"), fit);
    }

    // Section 4: restarts of each side over each other's.
    let cases = summarize_cases(&studies::case_population(), 2, &RecoveryCosts::default());
    let mc = run_fault_campaign_with_progress(&studies::monte_carlo_config(2.0), |_| {});
    let by_side = [
        ("ARE", cases.are_restarts, &mc.are),
        ("ASE_cooperative", cases.ase_restarts, &mc.ase_coop),
        ("ASE_traditional", cases.ase_blind_restarts, &mc.ase_blind),
    ];
    for (a, case_a, mc_a) in by_side {
        for (b, case_b, mc_b) in by_side.iter().filter(|(b, ..)| *b != a) {
            q.insert(format!("case_restarts/{a}/{b}"), case_a as f64 / *case_b as f64);
            q.insert(
                format!("monte_carlo_restarts/{a}/{b}"),
                mc_a.restart_fraction / mc_b.restart_fraction,
            );
        }
    }

    // The ablations and studies, each at the setting its row reads.
    let loss = studies::register_loss(6);
    q.insert("register_loss/6".into(), loss.lost as f64 / loss.total.max(1) as f64);
    q.insert("interval_verify_share/16".into(), studies::verify_interval_runs(16).0.verify_share());
    let run = |spec: CampaignSpec| CampaignClient::local().run(&spec);
    let rows = run(studies::row_policy_spec());
    q.insert(
        "closed_over_open_saving".into(),
        chipkill_saving(&rows, "closed") / chipkill_saving(&rows, "open"),
    );
    let widths = run(studies::device_width_spec());
    q.insert(
        "x8_over_x4_saving".into(),
        chipkill_saving(&widths, "x8") / chipkill_saving(&widths, "x4"),
    );
    let mlp = run(studies::mlp_spec(&[1.0]));
    let ipc =
        |s| mlp.get(KernelKind::Cg, s, &studies::mlp_tag(1.0)).map_or(f64::NAN, |c| c.stats.ipc());
    q.insert("wck_ipc_norm_at_stall/1".into(), ipc(wck) / ipc(Strategy::NoEcc));
    let sdc_rows =
        studies::SDC_SCHEMES.iter().flat_map(|s| studies::SDC_BITS.map(|b| (s.label(), b)));
    for ((scheme, bits), fractions) in sdc_rows.zip(studies::sdc_study()) {
        for (outcome, x) in ["corrected", "detected", "silent"].into_iter().zip(fractions) {
            q.insert(format!("sdc/{outcome}/{scheme}/{bits}"), x);
        }
    }
    let scrubbed = studies::scrub(Some(100)).1 as f64 / studies::scrub(None).1 as f64;
    q.insert("scrubbed_over_unscrubbed/100".into(), scrubbed);
    let day = studies::checkpoint_sweep(&[24.0 * 3600.0]);
    let ratio = day.first().map_or(f64::NAN, |r| r.checkpoint_overhead / r.abft_overhead);
    q.insert("checkpoint_over_abft/24h".into(), ratio);
    q
}
