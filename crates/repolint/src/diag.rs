//! Diagnostic model and rendering.

use std::fmt;

/// A secondary location attached to a finding — one hop of a
/// reconstructed call chain. The text rendering inlines the chain into
/// the message; this is the same chain in structured form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Related {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// What this location contributes (e.g. "calls `replay_event` inside
    /// a loop (x1)").
    pub message: String,
}

/// One finding at a source location. Every finding fails the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule code (`API001`, `PERF001`, ..., or `ALLOW`).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// Call-chain hops behind the finding, root first (empty but for
    /// PERF001–PERF004).
    pub related: Vec<Related>,
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
