//! Diagnostic model and rendering.

use std::fmt;

/// One finding at a source location. Every finding fails the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule code (`API001`, or `ALLOW` for a bad suppression comment).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: {}:{}: {}", self.rule, self.path, self.line, self.message)
    }
}

/// Sort diagnostics into the canonical reporting order.
pub fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
}
