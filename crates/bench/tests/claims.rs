//! The claims ledger, judged in tier-1: every row of
//! `crates/core/claims.tsv` is judged by `repro claims` against the number
//! its experiment printed, and a verdict that disagrees with the row's
//! `deviation` column fails — an undocumented miss, or a documented miss
//! that now holds.

use abft_coop_core::claims::{parse, LEDGER};
use std::path::Path;
use std::process::Command;

#[test]
fn every_claim_holds_or_misses_as_the_ledger_says() {
    let run = Command::new(env!("CARGO_BIN_EXE_repro")).arg("claims").output().expect("repro runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let disagrees = |l: &&str| l.contains("MISSES, no deviation") || l.contains("HOLDS, yet a");
    let wrong: Vec<&str> = stdout.lines().filter(disagrees).collect();
    assert!(
        run.status.success() && wrong.is_empty(),
        "`repro claims` exited with {}; {} verdict(s) disagree with the ledger:\n{}\nstderr:\n{}",
        run.status,
        wrong.len(),
        wrong.join("\n"),
        String::from_utf8_lossy(&run.stderr)
    );
}

/// perfbench keeps its own copy of eight Figure 5/6 claims
/// (`benchmarks/paper_claims.tsv`: kernel, quantity, strategy, paper %)
/// until it reads the ledger; each must equal the ledger row that reads
/// the same cell.
#[test]
fn perfbench_claims_equal_the_ledger() {
    let claims = parse(LEDGER, |_, _| true).expect("crates/core/claims.tsv parses");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let copy = std::fs::read_to_string(root.join("benchmarks/paper_claims.tsv"))
        .expect("benchmarks/paper_claims.tsv");
    let rows: Vec<&str> =
        copy.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()).collect();
    assert_eq!(rows.len(), 8);
    for row in rows {
        let [kernel, quantity, strategy, paper] = row.split('\t').collect::<Vec<_>>()[..] else {
            panic!("not 4 columns: {row:?}");
        };
        let key = format!("saving/{quantity}/{kernel}/{strategy}");
        let claim = claims
            .iter()
            .find(|c| c.quantity == key)
            .unwrap_or_else(|| panic!("no ledger row reads {key}"));
        let number = claim.paper.rsplit(' ').next().and_then(|n| n.strip_suffix('%'));
        assert_eq!(number, Some(paper), "{key}: ledger {:?}, perfbench {paper}", claim.paper);
    }
}
