//! Figure 9: strong-scaling comparison of energy benefit and ABFT
//! recovery cost (100 x 12K x 12K FT-CG base, strong scaled to 3,200
//! processes).

use crate::{cg_curves, max_of, min_of};
use abft_analysis::{strong_scaling, ScalePoint};
use abft_coop_core::report::{Report, TextTable};

pub fn run(out: &mut Report) {
    let curves = cg_curves(strong_scaling);
    let mut t =
        TextTable::new(&["Strategy", "Processes", "Energy benefit (kJ)", "Recovery cost (kJ)"]);
    for (s, pts) in &curves {
        for p in pts {
            t.row(&[
                s.label().to_string(),
                p.procs.to_string(),
                format!("{:.3e}", p.benefit_kj),
                format!("{:.3e}", p.recovery_kj),
            ]);
        }
    }
    out.table(&t);

    let peaks = curves.iter().map(|(_, pts)| {
        let ends = pts[0].benefit_kj.max(pts[pts.len() - 1].benefit_kj);
        max_of(pts.iter().map(|p| p.benefit_kj)) / ends
    });
    out.quantity("strong_peak_over_ends", min_of(peaks));
    let steps =
        curves.iter().flat_map(|(_, p)| p.windows(2).map(|w| w[1].recovery_kj / w[0].recovery_kj));
    out.quantity("strong_recovery_step", max_of(steps));
    let net = |p: &ScalePoint| p.benefit_kj - p.recovery_kj;
    for (s, pts) in &curves {
        let leads = pts.iter().enumerate().map(|(j, p)| {
            net(p) / max_of(curves.iter().filter(|(o, _)| o != s).map(|(_, o)| net(&o[j])))
        });
        out.quantity(format!("strong_net_lead/{}", s.label()), min_of(leads));
    }
}
