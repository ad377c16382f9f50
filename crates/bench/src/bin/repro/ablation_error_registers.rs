//! Ablation (DESIGN.md 7.3): error-register depth `n` vs the probability
//! of losing an error report before ABFT's next examination.
//!
//! Section 3.1 argues `n = 6` suffices because bursts of more than `n/2`
//! uncorrectable events within one examination period are rare. This
//! study makes that quantitative: Poisson bursts of uncorrectable errors
//! arrive between examinations; any event overwritten in the ring before
//! the drain is lost (ABFT must then fall back to full verification).

use abft_coop::studies::{register_loss, REGISTER_TRIALS};
use abft_coop_core::report::{pct, Report, TextTable};

pub fn run(out: &mut Report) {
    let mut t = TextTable::new(&["n (registers)", "events lost", "periods with loss", "loss rate"]);
    for n in [1usize, 2, 4, 6, 8, 12] {
        let loss = register_loss(n);
        t.row(&[
            n.to_string(),
            loss.lost.to_string(),
            format!("{}/{REGISTER_TRIALS}", loss.bad_periods),
            pct(loss.lost as f64 / loss.total.max(1) as f64),
        ]);
    }
    write!(out, "{}", t.render());
}
