//! Per-file lint context: file classification and suppression comments.

use std::cell::Cell;
use syn::{Comment, File, Token};

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
    /// Target classification.
    pub kind: FileKind,
    /// Parsed `// repolint:allow(...)` comments.
    pub suppressions: Vec<Suppression>,
}

impl<'a> FileCtx<'a> {
    /// Build the context for one parsed file.
    pub fn new(path: &'a str, file: &'a File) -> FileCtx<'a> {
        let suppressions = collect_suppressions(&file.comments, &file.tokens);
        FileCtx { path, kind: file_kind(path), suppressions }
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
    fn suppression_targets_own_or_next_line() {
        let src = "// repolint:allow(API001) reached from a sibling package\npub fn a() {}\n\
                   \npub fn b() {} // repolint:allow(API001) also reached\n\
                   \n// repolint:allow(API001)\npub fn c() {}\n";
        let file = syn::parse_file(src).unwrap();
        let ctx = FileCtx::new("crates/x/src/lib.rs", &file);
        assert!(ctx.suppressed("API001", 2), "standalone comment covers next code line");
        assert!(ctx.suppressed("API001", 4), "trailing comment covers its own line");
        assert!(!ctx.suppressed("API001", 7), "suppression without a reason is ignored");
        assert!(!ctx.suppressed("ALLOW", 2), "other rules stay live");
    }
}
