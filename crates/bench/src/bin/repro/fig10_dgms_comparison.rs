//! Figure 10: performance and energy, DGMS (state-of-the-art hardware
//! flexible ECC) vs the cooperative ABFT-directed scheme, for FT-DGEMM
//! (high spatial locality) and FT-Pred-CG (low spatial locality).

use crate::run_grid;
use abft_coop_core::report::{norm, pct, Report, TextTable};
use abft_coop_core::{CampaignSpec, Strategy};
use abft_dgms::run_dgms;
use abft_memsim::system::Machine;
use abft_memsim::workloads::{KernelKind, KernelParams};
use abft_memsim::{SimInput, SystemConfig, TraceCache};

pub fn run(out: &mut Report) {
    let kinds = [KernelKind::Dgemm, KernelKind::Cg];
    let run = run_grid(&CampaignSpec::basic(KernelKind::ALL));
    let mut t = TextTable::new(&[
        "Kernel",
        "Config",
        "Time (norm)",
        "Mem energy (norm)",
        "DGMS coarse frac",
    ]);
    for kind in kinds {
        eprintln!("[fig10] {} DGMS pass ...", kind.label());
        let cell = |s| &run.get(kind, s, "default").expect("campaign cell").stats;
        let base = cell(Strategy::NoEcc);
        let wck = cell(Strategy::WholeChipkill);
        let ours = cell(Strategy::PartialChipkillSecded);
        // The campaign already filtered this kernel's miss stream into the
        // process-wide cache; the DGMS pass replays the same stream under
        // its granularity predictor (bit-identical to the full run).
        let cfg = SystemConfig::default();
        let ms = TraceCache::global().get_filtered(KernelParams::default_for(kind), &cfg);
        let (dgms, coarse) = run_dgms(&Machine::new(cfg), SimInput::MissStream(&ms));
        for (label, s, cf) in [
            ("W_CK", wck, String::new()),
            ("DGMS", &dgms, format!("{coarse:.2}")),
            ("Ours (P_CK+P_SD)", ours, String::new()),
        ] {
            t.row(&[
                kind.label().to_string(),
                label.to_string(),
                norm(s.seconds / base.seconds),
                norm(s.mem_total_j() / base.mem_total_j()),
                cf.clone(),
            ]);
        }
        let perf_gain = dgms.seconds / ours.seconds - 1.0;
        let energy_save = 1.0 - ours.mem_total_j() / dgms.mem_total_j();
        writeln!(
            out,
            "{}: ours vs DGMS — {} faster, {} less memory energy",
            kind.label(),
            pct(perf_gain),
            pct(energy_save)
        );
        let k = kind.label();
        out.quantity(format!("dgms_speedup/{k}"), perf_gain);
        out.quantity(format!("dgms_energy_saving/{k}"), energy_save);
        out.quantity(
            format!("dgms_energy_cost/{k}"),
            dgms.mem_total_j() / ours.mem_total_j() - 1.0,
        );
        out.quantity(format!("dgms_over_wck/{k}"), dgms.mem_total_j() / wck.mem_total_j());
    }
    out.table(&t);
    out.artifact("fig10_cells.csv", &run.to_csv());
}
