//! The claims ledger: every number the paper states, written once in
//! `claims.tsv` beside this crate's manifest, each with the one-number
//! check that judges the reproduction against it.
//!
//! A row is tab-separated columns: `id`, `experiment` (the `repro`
//! experiment whose output the number is read from), `quantity` (a key
//! that experiment records beside its text, `report::Report::quantity`),
//! `paper` (the paper's statement), `check` and, on a row that knowingly
//! misses, `deviation`. This module parses rows and judges a measured
//! number; the number itself is the one the row's experiment printed, as
//! `repro claims` collects it.
//!
//! `check` is one predicate on one number:
//!
//! * `±5pp` — within 5 percentage points of the paper's number;
//! * `×1.5` — within a factor of 1.5 of the paper's number;
//! * `=` — equal to the paper's number;
//! * `> 1`, `>= 30%`, `< 1`, `<= 1%` — a bound, for statements the paper
//!   makes without a number.
//!
//! The paper's number is the one numeric token of the `paper` column
//! (`49%`, `+68%`, `654`, `close: 0%`); a band, factor or equality check
//! needs exactly one. A `%` divides by 100, so every number is a fraction.
//!
//! A row with a `deviation` sentence documents a known miss. Judging is
//! strict both ways: an undocumented miss and a documented hold are both
//! errors, so any verdict that flips is seen.

use std::collections::BTreeSet;

/// The ledger as checked in.
pub const LEDGER: &str = include_str!("../claims.tsv");

/// One predicate on a measured number.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Check {
    /// `|measured − paper| ≤ width`.
    Band(f64),
    /// `paper / factor ≤ measured ≤ paper · factor`.
    Factor(f64),
    /// `measured == paper`.
    Equal,
    /// `measured > bound`.
    Above(f64),
    /// `measured ≥ bound`.
    AtLeast(f64),
    /// `measured < bound`.
    Below(f64),
    /// `measured ≤ bound`.
    AtMost(f64),
}

/// One row of the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Unique id.
    pub id: String,
    /// The `repro` experiment the measured number belongs to.
    pub experiment: String,
    /// The measured quantity's key.
    pub quantity: String,
    /// The paper's statement, as the ledger writes it.
    pub paper: String,
    /// The check column as written.
    pub check_text: String,
    /// The parsed check.
    check: Check,
    /// Whether the claim is a percentage (its paper number or bound has a
    /// `%`), for printing the measured number.
    pub percent: bool,
    /// Why the reproduction knowingly misses, if it does.
    pub deviation: Option<String>,
    /// The paper's number, where band, factor and equality checks read it.
    paper_value: Option<f64>,
}

/// A ledger row that cannot be read. Every variant names its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The row has neither five nor six tab-separated columns.
    Columns { line: usize, found: usize },
    /// The `paper` column has no single number where the check needs one,
    /// or the `check` column is not one of the predicates above.
    Value { line: usize, text: String },
    /// The row's experiment records no quantity by this key (another
    /// experiment recording it does not count).
    UnknownQuantity { line: usize, key: String },
    /// Another row already has this id.
    DuplicateId { line: usize, id: String },
}

/// A verdict that disagrees with the row's `deviation` column.
#[derive(Debug, Clone, PartialEq)]
pub enum JudgeError {
    /// The claim misses and no deviation sentence says why.
    UndocumentedMiss { id: String, measured: f64 },
    /// The claim holds, yet a deviation sentence says it misses.
    DocumentedHold { id: String, measured: f64 },
}

/// A number as the ledger writes it: optional sign, optional `%`.
fn number(token: &str) -> Option<(f64, bool)> {
    let token = token.trim_start_matches(['~', '≈']);
    let (digits, percent) = match token.strip_suffix('%') {
        Some(d) => (d, true),
        None => (token, false),
    };
    let x: f64 = digits.strip_prefix('+').unwrap_or(digits).parse().ok()?;
    Some((if percent { x / 100.0 } else { x }, percent))
}

fn parse_check(text: &str) -> Option<(Check, bool)> {
    if text == "=" {
        return Some((Check::Equal, false));
    }
    if let Some(w) = text.strip_prefix('±').and_then(|w| w.strip_suffix("pp")) {
        return Some((Check::Band(w.parse::<f64>().ok()? / 100.0), false));
    }
    if let Some(f) = text.strip_prefix('×') {
        return Some((Check::Factor(f.parse().ok()?), false));
    }
    let (op, bound) = text.split_once(' ')?;
    let (b, percent) = number(bound)?;
    let check = match op {
        ">" => Check::Above(b),
        ">=" => Check::AtLeast(b),
        "<" => Check::Below(b),
        "<=" => Check::AtMost(b),
        _ => return None,
    };
    Some((check, percent))
}

/// Read the ledger. `known(experiment, key)` says whether the experiment a
/// row names records the row's quantity key; blank lines and `#` comments
/// are skipped.
pub fn parse(text: &str, known: impl Fn(&str, &str) -> bool) -> Result<Vec<Claim>, LedgerError> {
    let mut claims = Vec::new();
    let mut ids = BTreeSet::new();
    for (i, row) in text.lines().enumerate() {
        let line = i + 1;
        if row.trim().is_empty() || row.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = row.split('\t').collect();
        let (id, experiment, quantity, paper, check_text, deviation) = match cols[..] {
            [id, e, q, p, c] => (id, e, q, p, c, ""),
            [id, e, q, p, c, d] => (id, e, q, p, c, d),
            _ => return Err(LedgerError::Columns { line, found: cols.len() }),
        };
        let bad = |text: &str| LedgerError::Value { line, text: text.to_string() };
        let (check, bound_percent) = parse_check(check_text).ok_or_else(|| bad(check_text))?;
        let numbers: Vec<(f64, bool)> = paper.split([' ', ':']).filter_map(number).collect();
        let paper_value = match (check, numbers.as_slice()) {
            (Check::Band(_) | Check::Factor(_) | Check::Equal, [(x, _)]) => Some(*x),
            (Check::Band(_) | Check::Factor(_) | Check::Equal, _) => return Err(bad(paper)),
            _ => None,
        };
        if !known(experiment, quantity) {
            return Err(LedgerError::UnknownQuantity { line, key: quantity.to_string() });
        }
        if !ids.insert(id) {
            return Err(LedgerError::DuplicateId { line, id: id.to_string() });
        }
        claims.push(Claim {
            id: id.to_string(),
            experiment: experiment.to_string(),
            quantity: quantity.to_string(),
            paper: paper.to_string(),
            check_text: check_text.to_string(),
            check,
            percent: match paper_value {
                Some(_) => numbers[0].1,
                None => bound_percent,
            },
            deviation: (!deviation.is_empty()).then(|| deviation.to_string()),
            paper_value,
        });
    }
    Ok(claims)
}

impl Claim {
    /// Whether `measured` satisfies the check.
    #[expect(clippy::float_cmp, reason = "an `=` row states an exact input value")]
    fn holds(&self, measured: f64) -> bool {
        let paper = self.paper_value.unwrap_or(f64::NAN);
        match self.check {
            Check::Band(w) => (measured - paper).abs() <= w + 1e-12,
            Check::Factor(f) => measured >= paper / f && measured <= paper * f,
            Check::Equal => measured == paper,
            Check::Above(b) => measured > b,
            Check::AtLeast(b) => measured >= b,
            Check::Below(b) => measured < b,
            Check::AtMost(b) => measured <= b,
        }
    }

    /// Judge `measured`: `Ok(true)` for a hold, `Ok(false)` for a
    /// documented miss, an error when the verdict and the `deviation`
    /// column disagree.
    pub fn judge(&self, measured: f64) -> Result<bool, JudgeError> {
        let id = self.id.clone();
        match (self.holds(measured), &self.deviation) {
            (true, None) => Ok(true),
            (false, Some(_)) => Ok(false),
            (false, None) => Err(JudgeError::UndocumentedMiss { id, measured }),
            (true, Some(_)) => Err(JudgeError::DocumentedHold { id, measured }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: [&str; 2] = ["saving", "ratio"];

    fn ledger(rows: &[&str]) -> Result<Vec<Claim>, LedgerError> {
        parse(&rows.join("\n"), |_, k| KNOWN.contains(&k))
    }

    fn one(row: &str) -> Claim {
        ledger(&["# a comment", "", row]).expect("a good row").remove(0)
    }

    #[test]
    fn checks_read_the_paper_number_and_their_bounds() {
        let band = one("a\tfig05\tsaving\tup to 49%\t±5pp");
        assert!(band.percent);
        assert!(band.holds(0.44) && band.holds(0.54) && !band.holds(0.43) && !band.holds(0.55));
        let factor = one("b\ttab04\tratio\t654\t×1.5");
        assert!(!factor.percent);
        assert!(factor.holds(437.0) && factor.holds(981.0) && !factor.holds(435.0));
        let close = one("c\tfig10\tsaving\tclose: 0%\t±5pp");
        assert!(close.holds(0.037) && close.holds(-0.05) && !close.holds(0.051));
        assert!(one("d\ttab05\tratio\t0.02\t=").holds(0.02));
        let order = one("e\tfig06\tratio\tCG largest\t> 1");
        assert!(order.holds(1.01) && !order.holds(1.0) && !order.holds(f64::NAN));
        let share = one("f\tfig03\tsaving\ta large part\t>= 30%");
        assert!(share.percent && share.holds(0.3) && !share.holds(0.29));
        assert!(one("g\tx\tratio\tmonotone\t< 1").holds(0.99));
        assert!(one("h\tx\tsaving\trare\t<= 1%").holds(0.01));
    }

    #[test]
    fn an_undocumented_miss_and_a_documented_hold_are_errors() {
        let plain = one("a\tfig05\tsaving\t49%\t±5pp");
        assert_eq!(plain.judge(0.50), Ok(true));
        assert_eq!(
            plain.judge(0.30),
            Err(JudgeError::UndocumentedMiss { id: "a".into(), measured: 0.30 })
        );
        let documented = one("b\tfig05\tsaving\t38%\t±5pp\tThe CSR matrix stays strong.");
        assert_eq!(documented.deviation.as_deref(), Some("The CSR matrix stays strong."));
        assert_eq!(documented.judge(0.29), Ok(false));
        assert_eq!(
            documented.judge(0.38),
            Err(JudgeError::DocumentedHold { id: "b".into(), measured: 0.38 })
        );
    }

    #[test]
    fn malformed_rows_are_typed_errors() {
        let good = "a\tfig05\tsaving\t49%\t±5pp";
        assert_eq!(
            ledger(&[good, "b\tfig05\tsaving\t49%"]),
            Err(LedgerError::Columns { line: 2, found: 4 })
        );
        assert_eq!(
            ledger(&["b\tfig05\tsaving\t49%\t±5pp\twhy\tmore"]),
            Err(LedgerError::Columns { line: 1, found: 7 })
        );
        assert_eq!(
            ledger(&["a\tfig05\tsaving\tforty-nine\t±5pp"]),
            Err(LedgerError::Value { line: 1, text: "forty-nine".into() })
        );
        assert_eq!(
            ledger(&["a\tfig05\tsaving\t49% or 38%\t±5pp"]),
            Err(LedgerError::Value { line: 1, text: "49% or 38%".into() })
        );
        for check in ["±5", "×", "~ 1", "> one", "1"] {
            let row = format!("a\tfig05\tsaving\t49%\t{check}");
            assert_eq!(
                ledger(&[&row]),
                Err(LedgerError::Value { line: 1, text: check.into() }),
                "{check}"
            );
        }
        assert_eq!(
            ledger(&["a\tfig05\tsavings\t49%\t±5pp"]),
            Err(LedgerError::UnknownQuantity { line: 1, key: "savings".into() })
        );
        assert_eq!(
            ledger(&[good, good]),
            Err(LedgerError::DuplicateId { line: 2, id: "a".into() })
        );
    }

    #[test]
    fn the_checked_in_ledger_parses_with_unique_ids() {
        let claims = parse(LEDGER, |_, _| true).expect("claims.tsv");
        assert!(claims.len() >= 40, "{} rows", claims.len());
    }
}
