//! Per-file lint context: file classification, `#[cfg(test)]` line
//! ranges and suppression comments.

use std::cell::Cell;
use syn::{Comment, File, Item, Token};

/// What kind of target a `.rs` file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Part of a library target (`src/` outside `bin/`).
    Lib,
    /// A binary (`src/main.rs`, `src/bin/*`).
    Bin,
    /// An integration test (`tests/`).
    Test,
    /// An example (`examples/`).
    Example,
    /// A benchmark (`benches/`).
    Bench,
}

/// Classify a repo-relative path.
pub fn file_kind(rel: &str) -> FileKind {
    if rel.contains("/src/bin/") || rel.ends_with("src/main.rs") {
        FileKind::Bin
    } else if rel.contains("/tests/") || rel.starts_with("tests/") {
        FileKind::Test
    } else if rel.contains("/examples/") || rel.starts_with("examples/") {
        FileKind::Example
    } else if rel.contains("/benches/") || rel.starts_with("benches/") {
        FileKind::Bench
    } else {
        FileKind::Lib
    }
}

/// One rule of one parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule code the comment allows.
    pub rule: String,
    /// Line of the comment itself.
    pub line: usize,
    /// Source line the suppression covers.
    pub target_line: usize,
    /// True when a justification follows the `allow(...)`.
    pub has_reason: bool,
    /// Set once the comment has suppressed a finding; one that never
    /// does is stale ([`crate::rules::check_allows`]).
    pub used: Cell<bool>,
}

/// Everything a rule needs to know about one file.
pub struct FileCtx<'a> {
    /// Repo-relative path, forward slashes.
    pub path: &'a str,
    /// Cargo package name the file belongs to.
    pub crate_name: &'a str,
    /// Target classification.
    pub kind: FileKind,
    /// Line ranges of `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(usize, usize)>,
    /// Parsed `// repolint:allow(...)` comments.
    pub suppressions: Vec<Suppression>,
}

impl<'a> FileCtx<'a> {
    /// Build the context for one parsed file.
    pub fn new(path: &'a str, crate_name: &'a str, file: &'a File) -> FileCtx<'a> {
        let mut test_ranges = Vec::new();
        collect_test_ranges(&file.items, &mut test_ranges);
        let suppressions = collect_suppressions(&file.comments, &file.tokens);
        FileCtx { path, crate_name, kind: file_kind(path), test_ranges, suppressions }
    }

    /// True when the line falls inside a test-marked item.
    pub fn in_test(&self, line: usize) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// True when a documented `repolint:allow` covers this rule + line;
    /// marks every such comment as used.
    pub fn suppressed(&self, rule: &str, line: usize) -> bool {
        let mut hit = false;
        for s in &self.suppressions {
            if s.has_reason && s.rule == rule && s.target_line == line {
                s.used.set(true);
                hit = true;
            }
        }
        hit
    }
}

fn collect_test_ranges(items: &[Item], out: &mut Vec<(usize, usize)>) {
    for item in items {
        if item.attrs.iter().any(syn::Attribute::is_test_marker) {
            out.push((item.line, item.end_line));
        }
        collect_test_ranges(&item.children, out);
    }
}

/// Parse `// repolint:allow(RULE[,RULE]) reason` comments — plain line
/// comments that start with the marker, so prose that merely mentions
/// the syntax is not one. A suppression covers the code on its own line
/// (trailing comment) or, for a comment on a line of its own, the next
/// line that has any token.
fn collect_suppressions(comments: &[Comment], tokens: &[Token]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        let Some(body) = c.text.strip_prefix("//") else { continue };
        let Some(rest) = body.trim_start().strip_prefix("repolint:allow(") else { continue };
        let Some(close) = rest.find(')') else { continue };
        let reason = rest[close + 1..].trim();
        let has_reason = !reason.is_empty();
        let target_line = if tokens.iter().any(|t| t.line == c.line) {
            c.line
        } else {
            tokens.iter().map(|t| t.line).filter(|&l| l > c.line).min().unwrap_or(c.line)
        };
        for rule in rest[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                out.push(Suppression {
                    rule: rule.to_string(),
                    line: c.line,
                    target_line,
                    has_reason,
                    used: Cell::new(false),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_paths() {
        assert_eq!(file_kind("crates/memsim/src/dram.rs"), FileKind::Lib);
        assert_eq!(file_kind("crates/bench/src/bin/repro/trace_stats.rs"), FileKind::Bin);
        assert_eq!(file_kind("src/main.rs"), FileKind::Bin);
        assert_eq!(file_kind("tests/streaming_equivalence.rs"), FileKind::Test);
        assert_eq!(file_kind("examples/quickstart.rs"), FileKind::Example);
        assert_eq!(file_kind("crates/linalg/benches/gemm.rs"), FileKind::Bench);
    }

    #[test]
    fn test_ranges_cover_cfg_test_mods() {
        let src = "pub fn a() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        let file = syn::parse_file(src).unwrap();
        let ctx = FileCtx::new("crates/x/src/lib.rs", "x", &file);
        assert!(!ctx.in_test(1));
        assert!(ctx.in_test(4));
        assert!(ctx.in_test(5));
    }

    #[test]
    fn suppression_targets_own_or_next_line() {
        let src =
            "fn a() {\n    // repolint:allow(PERF001) one buffer per call\n    let t = vec![];\n\
                   \n    let u = vec![]; // repolint:allow(PERF001) also fine\n\
                   \n    // repolint:allow(PERF001)\n    let v = vec![];\n}\n";
        let file = syn::parse_file(src).unwrap();
        let ctx = FileCtx::new("crates/x/src/lib.rs", "x", &file);
        assert!(ctx.suppressed("PERF001", 3), "standalone comment covers next code line");
        assert!(ctx.suppressed("PERF001", 5), "trailing comment covers its own line");
        assert!(!ctx.suppressed("PERF001", 8), "suppression without a reason is ignored");
        assert!(!ctx.suppressed("PERF002", 3), "other rules stay live");
    }
}
