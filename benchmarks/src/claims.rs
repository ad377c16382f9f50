//! `paper_dev_pp`: how far the simulated headline savings sit from the
//! paper's, over the fixed claim list in `paper_claims.tsv`.
//!
//! A host-only optimisation must leave this number bit-for-bit where it
//! was; a model fix is what moves it. The repo holds no other reference
//! for the simulated results (no hardware measurement, no more detailed
//! model), so this is the only accuracy figure the benchmark states.

use abft_memsim::SimStats;

const CLAIMS: &str = include_str!("../paper_claims.tsv");

/// The whole-chipkill row every claim's saving is measured against.
const BASELINE: &str = "W_CK";

/// One simulated fig07 cell, by the paper's labels.
pub struct GridCell<'a> {
    pub kernel: &'a str,
    pub strategy: &'a str,
    pub stats: &'a SimStats,
}

/// Mean absolute deviation, in percentage points, of the simulated
/// savings from the paper's. Errors name a malformed claim line or a
/// claim whose cells the grid did not run.
pub fn paper_dev_pp(grid: &[GridCell<'_>]) -> Result<f64, String> {
    let find = |kernel: &str, strategy: &str| {
        grid.iter()
            .find(|c| c.kernel == kernel && c.strategy == strategy)
            .map(|c| c.stats)
            .ok_or_else(|| format!("claim needs the {kernel} x {strategy} cell"))
    };
    let mut deviations = Vec::new();
    for line in CLAIMS.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let cols: Vec<&str> = line.split('\t').collect();
        let [kernel, quantity, strategy, paper] = cols[..] else {
            return Err(format!("claim line needs 4 tab-separated columns: {line:?}"));
        };
        let paper: f64 = paper.parse().map_err(|e| format!("claim value {paper:?}: {e}"))?;
        let energy = |s: &SimStats| match quantity {
            "mem_energy" => Ok(s.mem_total_j()),
            "system_energy" => Ok(s.system_j()),
            other => Err(format!("unknown claim quantity {other:?}")),
        };
        let saved =
            100.0 * (1.0 - energy(find(kernel, strategy)?)? / energy(find(kernel, BASELINE)?)?);
        deviations.push((saved - paper).abs());
    }
    if deviations.is_empty() {
        return Err("paper_claims.tsv lists no claims".to_string());
    }
    Ok(deviations.iter().sum::<f64>() / deviations.len() as f64)
}
