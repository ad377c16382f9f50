//! `repolint.toml` parsing.
//!
//! The build environment vendors no `toml` crate, so the config format is
//! the small TOML subset the file actually needs: `[run]` / `[rules.CODE]`
//! section headers, `key = ["a", "b"]` assignments, `#` comments.
//! Anything else is a hard error so typos cannot silently disable a rule.

use std::collections::BTreeMap;

/// All rule codes the engine knows about.
pub const RULES: &[&str] = &["API001", "PERF001", "PERF002", "PERF003", "PERF004"];

/// The `[rules.CODE]` section a rule is configured under: its own,
/// except that PERF001–PERF004 share one hot set and one crate scope,
/// both set under `[rules.PERF001]`.
fn section_of(code: &str) -> &str {
    if code.starts_with("PERF") {
        "PERF001"
    } else {
        code
    }
}

/// Per-rule configuration.
#[derive(Debug, Clone)]
pub struct RuleCfg {
    /// When set, the rule only applies to files of these crates. A name
    /// that matches no workspace package is a hard error, like an unknown
    /// entry point.
    pub crates: Option<Vec<String>>,
    /// PERF001: the hot set's roots, as `Type::method` or bare function
    /// names. Binaries print and allocate as their job, so only the
    /// replay entry points define hotness.
    pub entry_points: Vec<String>,
    /// Whether `entry_points` came from the config file rather than the
    /// built-in defaults. A listed name that matches no workspace
    /// function is a hard error (a rename would otherwise turn the rules
    /// into a silent no-op); the defaults are exempt so fixture
    /// workspaces need not define every root.
    pub entry_points_listed: bool,
}

impl RuleCfg {
    fn new(code: &str) -> RuleCfg {
        let entry_points: &[&str] = match code {
            "PERF001" => &[
                "CampaignClient::run",
                "Machine::simulate",
                "MissStream::build",
                "MissStream::events_from",
            ],
            _ => &[],
        };
        RuleCfg {
            crates: None,
            entry_points: entry_points.iter().map(|s| (*s).to_string()).collect(),
            entry_points_listed: false,
        }
    }

    /// Whether the rule's crate scope includes `crate_name`.
    pub fn covers(&self, crate_name: &str) -> bool {
        self.crates.as_ref().is_none_or(|crates| crates.iter().any(|c| c == crate_name))
    }
}

/// Whole-run configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Repo-relative path prefixes to skip entirely.
    pub excludes: Vec<String>,
    /// Per-rule settings, keyed by config section (a rule code; the PERF
    /// family has the one entry `PERF001`).
    pub rules: BTreeMap<String, RuleCfg>,
}

impl Default for Config {
    fn default() -> Config {
        let mut rules = BTreeMap::new();
        for code in RULES.iter().filter(|code| section_of(code) == **code) {
            rules.insert((*code).to_string(), RuleCfg::new(code));
        }
        Config { excludes: vec!["crates/compat".to_string(), "target".to_string()], rules }
    }
}

impl Config {
    /// Look up a known rule's config.
    pub fn rule(&self, code: &str) -> &RuleCfg {
        &self.rules[section_of(code)]
    }

    /// Parse the config file text.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((n, raw)) = lines.next() {
            let mut line = raw.trim().to_string();
            let lineno = n + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Multi-line arrays: join until the brackets balance.
            while line.contains('[')
                && !line.starts_with('[')
                && line.matches('[').count() > line.matches(']').count()
            {
                let Some((_, cont)) = lines.next() else {
                    return Err(format!("line {lineno}: unterminated array"));
                };
                let cont = cont.trim();
                if !cont.starts_with('#') {
                    line.push_str(cont);
                }
            }
            let line = line.as_str();
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: malformed section header"))?;
                if name != "run" {
                    let code = name
                        .strip_prefix("rules.")
                        .ok_or_else(|| format!("line {lineno}: unknown section [{name}]"))?;
                    if !cfg.rules.contains_key(code) {
                        let known: Vec<&str> = cfg.rules.keys().map(String::as_str).collect();
                        return Err(format!(
                            "line {lineno}: no section [rules.{code}]; there are: {}",
                            known.join(", ")
                        ));
                    }
                }
                section = name.to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let key = key.trim();
            let value = value.trim();
            match section.as_str() {
                "run" => match key {
                    "exclude" => cfg.excludes = parse_list(value, lineno)?,
                    _ => return Err(format!("line {lineno}: unknown [run] key {key}")),
                },
                s if s.starts_with("rules.") => {
                    let code = &s["rules.".len()..];
                    let Some(rule) = cfg.rules.get_mut(code) else {
                        return Err(format!("line {lineno}: unknown rule {code}"));
                    };
                    match key {
                        "crates" => rule.crates = Some(parse_list(value, lineno)?),
                        "entry_points" => {
                            rule.entry_points = parse_list(value, lineno)?;
                            rule.entry_points_listed = true;
                        }
                        _ => return Err(format!("line {lineno}: unknown rule key {key}")),
                    }
                }
                _ => return Err(format!("line {lineno}: assignment outside a section")),
            }
        }
        Ok(cfg)
    }
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("line {lineno}: expected a quoted string, got {value}"))?;
    Ok(inner.to_string())
}

fn parse_list(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("line {lineno}: expected a [\"...\"] list, got {value}"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, lineno)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_lists() {
        let cfg = Config::parse(
            "# comment\n[run]\nexclude = [\"crates/compat\", \"target\"]\n\n\
             [rules.API001]\ncrates = [\"abft-memsim\"]\n\
             [rules.PERF001]\nentry_points = [\n    \"Engine::run\",\n]\n",
        )
        .unwrap();
        assert_eq!(cfg.excludes, vec!["crates/compat", "target"]);
        assert!(cfg.rule("API001").covers("abft-memsim") && !cfg.rule("API001").covers("abft-ecc"));
        assert!(cfg.rule("PERF001").covers("abft-ecc"));
        // The PERF family reads the one section.
        assert_eq!(cfg.rule("PERF003").entry_points, vec!["Engine::run"]);
        assert!(cfg.rule("PERF003").entry_points_listed);
    }

    #[test]
    fn rejects_unknown_rules_and_keys() {
        assert!(Config::parse("[rules.NOPE]\n").is_err());
        assert!(Config::parse("[rules.PERF002]\n").is_err(), "the family's section is PERF001");
        assert!(Config::parse("[run]\nfrobnicate = \"x\"\n").is_err());
        assert!(Config::parse("[rules.API001]\nseverity = \"error\"\n").is_err());
        assert!(Config::parse("[rules.DET002]\n").is_err(), "a retired rule's section is unknown");
    }

    /// The grammar's own pieces, known and unknown codes among them.
    const PIECES: [&str; 18] = [
        "[",
        "]",
        "rules.",
        "run",
        "=",
        "\"",
        ",",
        "#",
        "\n",
        " ",
        "exclude",
        "crates",
        "entry_points",
        "API001",
        "PERF001",
        "PERF002",
        "NOPE",
        "x",
    ];
    /// List items: anything without a quote, a comma or a bracket.
    const NAMES: [&str; 7] =
        ["abft-memsim", "Machine::simulate", "crates/compat", "", "a b", "é", "#x"];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn parse_never_panics_and_lists_round_trip(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            picks in proptest::collection::vec(0usize..PIECES.len(), 0..40),
            names in proptest::collection::vec(0usize..NAMES.len(), 0..6),
            multi_line: bool,
        ) {
            use proptest::prelude::*;
            // Any text at all, and strings of the grammar's pieces: an
            // answer, never a panic, and an answer with no section but the
            // known ones.
            let known: Vec<String> = Config::default().rules.into_keys().collect();
            let soup: String = picks.iter().map(|&i| PIECES[i]).collect();
            for text in [String::from_utf8_lossy(&bytes).into_owned(), soup] {
                if let Ok(cfg) = Config::parse(&text) {
                    prop_assert!(cfg.rules.keys().eq(&known), "{text:?}: {:?}", cfg.rules.keys());
                }
            }

            // A list reads back as written, on one line or over several.
            let names: Vec<String> = names.iter().map(|&i| NAMES[i].to_string()).collect();
            let sep = if multi_line { ",\n    " } else { ", " };
            let list: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
            let list = list.join(sep);
            let text = format!(
                "[run]\nexclude = [{list}]\n[rules.PERF001]\nentry_points = [{list}]\n\
                 crates = [{list}]\n"
            );
            let cfg = Config::parse(&text).map_err(TestCaseError::fail)?;
            prop_assert_eq!(&cfg.excludes, &names);
            prop_assert_eq!(&cfg.rule("PERF003").entry_points, &names);
            prop_assert_eq!(cfg.rule("PERF001").crates.as_ref(), Some(&names));
        }
    }
}
