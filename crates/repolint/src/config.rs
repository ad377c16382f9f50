//! `repolint.toml` parsing.
//!
//! The build environment vendors no `toml` crate, so the config format is
//! the small TOML subset the file actually needs: one `[run]` section,
//! `key = ["a", "b"]` assignments, `#` comments. Anything else is a hard
//! error, so a section left over from a retired rule cannot sit there
//! looking as if it still configured something.

/// All rule codes the engine knows about.
pub const RULES: &[&str] = &["API001"];

/// Whole-run configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Repo-relative path prefixes to skip entirely.
    pub excludes: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config { excludes: vec!["crates/compat".to_string(), "target".to_string()] }
    }
}

impl Config {
    /// Parse the config file text.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut in_run = false;
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
                    return Err(format!(
                        "line {lineno}: unknown section [{name}]; the only section is [run]"
                    ));
                }
                in_run = true;
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            match (in_run, key.trim()) {
                (true, "exclude") => cfg.excludes = parse_list(value.trim(), lineno)?,
                (true, key) => return Err(format!("line {lineno}: unknown [run] key {key}")),
                (false, _) => return Err(format!("line {lineno}: assignment outside a section")),
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
    fn parses_the_run_section() {
        let cfg = Config::parse(
            "# comment\n[run]\nexclude = [\n    \"crates/compat\",\n    \"target\",\n]\n",
        )
        .unwrap();
        assert_eq!(cfg.excludes, vec!["crates/compat", "target"]);
    }

    #[test]
    fn rejects_unknown_sections_and_keys() {
        assert!(Config::parse("[rules.API001]\n").is_err());
        assert!(Config::parse("[rules.PERF001]\n").is_err(), "a retired rule's section is unknown");
        assert!(Config::parse("[run]\nfrobnicate = \"x\"\n").is_err());
        assert!(Config::parse("exclude = [\"x\"]\n").is_err());
    }

    /// The grammar's own pieces, known and unknown names among them.
    const PIECES: [&str; 15] = [
        "[", "]", "rules.", "run", "=", "\"", ",", "#", "\n", " ", "exclude", "crates", "API001",
        "PERF001", "x",
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
            // answer, never a panic.
            let soup: String = picks.iter().map(|&i| PIECES[i]).collect();
            for text in [String::from_utf8_lossy(&bytes).into_owned(), soup] {
                let _ = Config::parse(&text);
            }

            // A list reads back as written, on one line or over several.
            let names: Vec<String> = names.iter().map(|&i| NAMES[i].to_string()).collect();
            let sep = if multi_line { ",\n    " } else { ", " };
            let list: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
            let text = format!("[run]\nexclude = [{}]\n", list.join(sep));
            let cfg = Config::parse(&text).map_err(TestCaseError::fail)?;
            prop_assert_eq!(&cfg.excludes, &names);
        }
    }
}
