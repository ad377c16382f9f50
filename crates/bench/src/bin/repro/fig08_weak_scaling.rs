//! Figure 8: weak-scaling comparison of energy benefit and ABFT recovery
//! cost (FT-CG, 3000x3000-class per process, 100 -> 819,200 processes).

use crate::{cg_curves, min_of};
use abft_analysis::{weak_scaling, ScalePoint};
use abft_coop_core::report::{Report, TextTable};

pub fn run(out: &mut Report) {
    let curves = cg_curves(weak_scaling);
    let mut t = TextTable::new(&[
        "Strategy",
        "Processes",
        "Energy benefit (kJ)",
        "Recovery cost (kJ)",
        "Errors",
    ]);
    for (s, pts) in &curves {
        for p in pts {
            t.row(&[
                s.label().to_string(),
                p.procs.to_string(),
                format!("{:.3e}", p.benefit_kj),
                format!("{:.3e}", p.recovery_kj),
                format!("{:.2e}", p.errors),
            ]);
        }
    }
    out.table(&t);

    let last = |pts: &[ScalePoint]| pts[pts.len() - 1];
    let growth = curves.iter().flat_map(|(_, pts)| {
        let (a, b) = (pts[0], last(pts));
        let procs = b.procs as f64 / a.procs as f64;
        [b.benefit_kj / a.benefit_kj / procs, b.recovery_kj / a.recovery_kj / procs]
    });
    let farthest = growth.max_by(|a, b| (a - 1.0).abs().total_cmp(&(b - 1.0).abs()));
    out.quantity("weak_growth_over_procs", farthest.unwrap_or(f64::NAN));
    let ratios =
        curves.iter().flat_map(|(_, pts)| pts.iter().map(|p| p.benefit_kj / p.recovery_kj));
    out.quantity("weak_benefit_over_recovery", min_of(ratios));
    for (s, pts) in &curves {
        let others = curves.iter().filter(|(o, _)| o != s).map(|(_, p)| last(p).recovery_kj);
        out.quantity(
            format!("weak_recovery_over/{}", s.label()),
            min_of(others) / last(pts).recovery_kj,
        );
    }
}
