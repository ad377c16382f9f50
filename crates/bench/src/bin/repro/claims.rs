//! The claims ledger, judged: every row of `crates/core/claims.tsv` with
//! the number its experiment recorded beside the text it printed, and its
//! verdict. A verdict that disagrees with the row's `deviation` column is
//! named on stderr and fails the process.

use crate::{quantities_of, Recorded, FAILED};
use abft_coop_core::claims::{parse, Claim, JudgeError, LedgerError, LEDGER};
use abft_coop_core::report::{pct, Report, TextTable};
use std::sync::atomic::Ordering;

/// Four significant digits, or a percentage to one decimal.
fn show(x: f64, percent: bool) -> String {
    if percent {
        return pct(x);
    }
    let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 6) as usize;
    format!("{x:.decimals$}")
}

/// Each row of `ledger` with the number its experiment recorded under its
/// key. A key the row's experiment did not record is a
/// [`LedgerError::UnknownQuantity`], whoever else recorded it.
fn evaluate(ledger: &str, recorded: &Recorded) -> Result<Vec<(Claim, f64)>, LedgerError> {
    let value = |e: &str, k: &str| recorded.get(e).and_then(|q| q.get(k)).copied();
    let claims = parse(ledger, |e, k| value(e, k).is_some())?;
    let values: Vec<f64> =
        claims.iter().map(|c| value(&c.experiment, &c.quantity).unwrap_or(f64::NAN)).collect();
    Ok(claims.into_iter().zip(values).collect())
}

pub fn run(out: &mut Report) {
    let ledger = parse(LEDGER, |_, _| true).expect("crates/core/claims.tsv parses");
    let recorded = quantities_of(ledger.iter().map(|c| c.experiment.as_str()));
    let claims = match evaluate(LEDGER, &recorded) {
        Ok(claims) => claims,
        Err(e) => {
            eprintln!("[claims] crates/core/claims.tsv: {e:?}");
            FAILED.store(true, Ordering::Relaxed);
            return;
        }
    };
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
        if i == 2 {
            eprintln!("[claims] {}: {verdict} (measured {measured})", c.id);
            FAILED.store(true, Ordering::Relaxed);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn a_row_reads_only_the_quantities_its_own_experiment_records() {
        let recorded: Recorded = BTreeMap::from([
            ("fig05_memory_energy", BTreeMap::new()),
            ("fig06_system_energy", BTreeMap::from([("saving/FT-CG".to_string(), 0.3)])),
        ]);
        let row = |experiment: &str| format!("# one row\na\t{experiment}\tsaving/FT-CG\t25%\t±5pp");
        let judged = evaluate(&row("fig06_system_energy"), &recorded).expect("fig06 records it");
        assert_eq!(
            judged.iter().map(|(c, x)| (c.id.as_str(), *x)).collect::<Vec<_>>(),
            [("a", 0.3)]
        );
        for other in ["fig05_memory_energy", "sdc_study"] {
            assert_eq!(
                evaluate(&row(other), &recorded).map(|_| ()),
                Err(LedgerError::UnknownQuantity { line: 2, key: "saving/FT-CG".into() }),
                "{other}"
            );
        }
    }
}
