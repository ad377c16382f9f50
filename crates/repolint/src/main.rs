//! repolint CLI: `cargo run -p repolint -- check [--json] [--update-baseline]`
//! plus `explain RULEID` for each rule's rationale and fix pattern.

use repolint::baseline::Baseline;
use repolint::config::{Config, RULES};
use repolint::diag::Severity;
use repolint::{check_workspace, rules, Report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: repolint check [--json] [--sarif] [--update-baseline] \
                     [--rules PREFIX[,..]] [--ratchet FILE] [--explain RULEID] \
                     [--root DIR] [--config FILE] [--baseline FILE]\n\
                     \x20      repolint explain RULEID";

struct Args {
    json: bool,
    sarif: bool,
    update_baseline: bool,
    root: PathBuf,
    config: Option<PathBuf>,
    baseline: Option<PathBuf>,
    /// Rule-code prefixes to keep enabled (e.g. `CONC`, `DET004,CONC`).
    rules: Option<Vec<String>>,
    /// Reference file (a prior `--json` report, or just its
    /// `"rule_totals":{..}` object) no rule's total may regress above.
    ratchet: Option<PathBuf>,
}

enum Mode {
    Check(Args),
    Explain(String),
}

fn parse_args() -> Result<Mode, String> {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("check") => {}
        Some("explain") | Some("--explain") => {
            let code = argv.next().ok_or_else(|| format!("explain needs a rule id\n{USAGE}"))?;
            return Ok(Mode::Explain(code));
        }
        _ => return Err(USAGE.to_string()),
    }
    let mut args = Args {
        json: false,
        sarif: false,
        update_baseline: false,
        root: PathBuf::from("."),
        config: None,
        baseline: None,
        rules: None,
        ratchet: None,
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            // The `cargo repolint` alias already contains `check`, so a
            // user-supplied `--` separator arrives as a literal argument.
            "--" => {}
            "--json" => args.json = true,
            "--sarif" => args.sarif = true,
            "--update-baseline" => args.update_baseline = true,
            "--root" => args.root = next_value(&mut argv, "--root")?.into(),
            "--config" => args.config = Some(next_value(&mut argv, "--config")?.into()),
            "--baseline" => args.baseline = Some(next_value(&mut argv, "--baseline")?.into()),
            "--ratchet" => args.ratchet = Some(next_value(&mut argv, "--ratchet")?.into()),
            "--rules" => {
                args.rules = Some(
                    next_value(&mut argv, "--rules")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            // Both spellings reach here through the `cargo repolint`
            // alias (which always prepends `check`).
            "--explain" | "explain" => {
                return Ok(Mode::Explain(next_value(&mut argv, a.as_str())?))
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(Mode::Check(args))
}

fn next_value(argv: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    argv.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}

fn run() -> Result<ExitCode, String> {
    let args = match parse_args()? {
        Mode::Explain(code) => {
            let code = code.to_uppercase();
            match rules::explain(&code) {
                Some(text) => {
                    println!("{text}");
                    return Ok(ExitCode::SUCCESS);
                }
                None => {
                    return Err(format!("unknown rule {code}; known rules: {}", RULES.join(", ")))
                }
            }
        }
        Mode::Check(args) => args,
    };

    let config_path = args.config.clone().unwrap_or_else(|| args.root.join("repolint.toml"));
    let mut cfg = if config_path.exists() {
        let text = std::fs::read_to_string(&config_path)
            .map_err(|e| format!("{}: {e}", config_path.display()))?;
        Config::parse(&text).map_err(|e| format!("{}: {e}", config_path.display()))?
    } else {
        Config::default()
    };

    if let Some(prefixes) = &args.rules {
        for p in prefixes {
            let p = p.to_uppercase();
            if !RULES.iter().any(|r| r.starts_with(&p)) {
                return Err(format!(
                    "--rules {p} matches no rule; known rules: {}",
                    RULES.join(", ")
                ));
            }
        }
        for (code, rule) in cfg.rules.iter_mut() {
            if !prefixes.iter().any(|p| code.starts_with(&p.to_uppercase())) {
                rule.severity = Severity::Allow;
            }
        }
    }

    let baseline_path =
        args.baseline.clone().unwrap_or_else(|| args.root.join("repolint.baseline"));
    let base = if baseline_path.exists() {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        Baseline::parse(&text)?
    } else {
        Baseline::default()
    };

    let report = check_workspace(&args.root, &cfg, &base)?;

    if args.update_baseline {
        std::fs::write(&baseline_path, Baseline::render(&report.counts))
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        eprintln!("repolint: baseline rewritten at {}", baseline_path.display());
        return Ok(ExitCode::SUCCESS);
    }

    let mut ratchet_failures = Vec::new();
    if let Some(prior) = &args.ratchet {
        // A missing reference is an error, not "nothing to compare": a
        // fresh clone must not ratchet against thin air.
        let text = std::fs::read_to_string(prior)
            .map_err(|e| format!("--ratchet {}: {e}", prior.display()))?;
        let prior_totals = parse_rule_totals(&text);
        if prior_totals.is_empty() {
            return Err(format!(
                "--ratchet {}: no \"rule_totals\" to compare with",
                prior.display()
            ));
        }
        for (rule, &n) in &report.rule_totals {
            if let Some(&allowed) = prior_totals.get(rule.as_str()) {
                if n > allowed {
                    ratchet_failures
                        .push(format!("{rule}: {n} finding(s), ratchet allows {allowed}"));
                }
            }
        }
    }

    if args.sarif {
        println!("{}", report.to_sarif());
    } else if args.json {
        println!("{}", report.to_json());
    } else {
        print_human(&report);
    }
    for f in &ratchet_failures {
        eprintln!("repolint: ratchet regression — {f}");
    }
    let failed = report.failed() || !ratchet_failures.is_empty();
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Pull the `"rule_totals":{"RULE":N,..}` object out of a ratchet
/// reference (a full JSON report or the committed `repolint.ratchet`,
/// which holds only that object) with plain string ops (the build
/// vendors no JSON parser).
fn parse_rule_totals(text: &str) -> std::collections::BTreeMap<String, usize> {
    let mut out = std::collections::BTreeMap::new();
    let Some(start) = text.find("\"rule_totals\":{") else { return out };
    let body = &text[start + "\"rule_totals\":{".len()..];
    let Some(end) = body.find('}') else { return out };
    for pair in body[..end].split(',') {
        let Some((k, v)) = pair.split_once(':') else { continue };
        let k = k.trim().trim_matches('"');
        if let Ok(n) = v.trim().parse::<usize>() {
            out.insert(k.to_string(), n);
        }
    }
    out
}

fn print_human(report: &Report) {
    for d in &report.diagnostics {
        println!("{d}");
    }
    let verdict = if report.failed() { "FAIL" } else { "ok" };
    println!(
        "repolint: {} — {} file(s), {} finding(s), {} baselined, {} ms",
        verdict,
        report.files,
        report.diagnostics.len(),
        report.baselined,
        report.analysis_ms
    );
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("repolint: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratchet_parser_reads_prior_rule_totals() {
        let prior = "{\"diagnostics\":[],\"counts\":{},\
                     \"rule_totals\":{\"CONC001\":2,\"DET004\":0},\"total\":2,\
                     \"baselined\":0,\"files\":9,\"analysis_ms\":41}";
        let totals = parse_rule_totals(prior);
        assert_eq!(totals.get("CONC001"), Some(&2));
        assert_eq!(totals.get("DET004"), Some(&0));
        assert_eq!(totals.len(), 2);
    }

    #[test]
    fn ratchet_parser_finds_nothing_without_the_section() {
        // `run` turns an empty result into an error: a reference that
        // constrains no rule is a ratchet that checks nothing.
        assert!(parse_rule_totals("{\"diagnostics\":[],\"counts\":{}}").is_empty());
        assert!(parse_rule_totals("").is_empty());
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for code in RULES {
            assert!(rules::explain(code).is_some(), "no explain text for {code}");
        }
    }
}
