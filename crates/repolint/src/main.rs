//! repolint CLI: `cargo run -p repolint -- check [--root DIR]` plus
//! `explain RULEID` for each rule's rationale and fix pattern.

use repolint::config::{Config, RULES};
use repolint::{check_workspace, rules};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: repolint check [--root DIR]\n\
                     \x20      repolint explain RULEID";

enum Mode {
    Check { root: PathBuf },
    Explain(String),
}

fn parse_args() -> Result<Mode, String> {
    let mut argv = std::env::args().skip(1);
    let explain = |argv: &mut dyn Iterator<Item = String>| {
        argv.next().map(Mode::Explain).ok_or_else(|| format!("explain needs a rule id\n{USAGE}"))
    };
    match argv.next().as_deref() {
        Some("check") => {}
        Some("explain") => return explain(&mut argv),
        _ => return Err(USAGE.to_string()),
    }
    let mut root = PathBuf::from(".");
    while let Some(a) = argv.next() {
        match a.as_str() {
            // The `cargo repolint` alias already contains `check`, so a
            // user-supplied `--` separator arrives as a literal argument,
            // and `cargo repolint explain RULEID` arrives behind `check`.
            "--" => {}
            "explain" => return explain(&mut argv),
            "--root" => {
                root = argv.next().ok_or_else(|| format!("--root needs a value\n{USAGE}"))?.into();
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(Mode::Check { root })
}

fn run() -> Result<ExitCode, String> {
    let root = match parse_args()? {
        Mode::Explain(code) => {
            let code = code.to_uppercase();
            let text = rules::explain(&code)
                .ok_or_else(|| format!("unknown rule {code}; known rules: {}", RULES.join(", ")))?;
            println!("{text}");
            return Ok(ExitCode::SUCCESS);
        }
        Mode::Check { root } => root,
    };

    let config_path = root.join("repolint.toml");
    let cfg = if config_path.exists() {
        let text = std::fs::read_to_string(&config_path)
            .map_err(|e| format!("{}: {e}", config_path.display()))?;
        Config::parse(&text).map_err(|e| format!("{}: {e}", config_path.display()))?
    } else {
        Config::default()
    };

    let report = check_workspace(&root, &cfg)?;
    for d in &report.diagnostics {
        println!("{d}");
    }
    println!(
        "repolint: {} — {} file(s), {} finding(s), {} ms",
        if report.failed() { "FAIL" } else { "ok" },
        report.files,
        report.diagnostics.len(),
        report.analysis_ms
    );
    Ok(if report.failed() { ExitCode::FAILURE } else { ExitCode::SUCCESS })
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
    fn every_rule_has_an_explanation() {
        for code in RULES {
            assert!(rules::explain(code).is_some(), "no explain text for {code}");
        }
    }
}
