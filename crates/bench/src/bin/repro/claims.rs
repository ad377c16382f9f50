//! The claims ledger, judged: every row of `crates/core/claims.tsv` with
//! the number this reproduction measures for it and its verdict.

use abft_coop::claims::evaluate;
use abft_coop_core::claims::JudgeError;
use abft_coop_core::report::{pct, Report, TextTable};

/// Four significant digits, or a percentage to one decimal.
fn show(x: f64, percent: bool) -> String {
    if percent {
        return pct(x);
    }
    let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 6) as usize;
    format!("{x:.decimals$}")
}

pub fn run(out: &mut Report) {
    let claims = evaluate().expect("crates/core/claims.tsv parses");
    let mut t = TextTable::new(&["claim", "paper", "check", "measured", "verdict"]);
    let mut counts = [0; 3];
    for (c, x) in &claims {
        let (i, verdict) = match c.judge(*x) {
            Ok(true) => (0, "holds"),
            Ok(false) => (1, "misses (deviation below)"),
            Err(JudgeError::UndocumentedMiss { .. }) => (2, "MISSES, no deviation written"),
            Err(JudgeError::DocumentedHold { .. }) => (2, "HOLDS, yet a deviation is written"),
        };
        counts[i] += 1;
        let measured = show(*x, c.percent);
        t.row(&[c.id.clone(), c.paper.clone(), c.check_text.clone(), measured, verdict.into()]);
    }
    let [holds, documented, wrong] = counts;
    writeln!(
        out,
        "{} claims: {holds} hold, {documented} miss with a deviation sentence, {wrong} disagree \
         with the ledger.",
        claims.len()
    );
    writeln!(
        out,
        "Each claim's experiment, quantity and tolerance rule: crates/core/claims.tsv.\n"
    );
    out.table(&t);
    writeln!(out, "\nDeviations:");
    for (c, _) in &claims {
        if let Some(d) = &c.deviation {
            writeln!(out, "  {}: {d}", c.id);
        }
    }
}
