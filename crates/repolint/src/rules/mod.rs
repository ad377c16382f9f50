//! The rule set: API001 over one workspace symbol table, and the check
//! of the suppression comments themselves. Suppressions are applied here
//! so the rule stays focused on the analysis.

use crate::config::RULES;
use crate::diag::Diagnostic;
use crate::source::FileCtx;
use crate::symbols::SymbolTable;
use crate::Workspace;

pub mod api001;

/// Shared input to the workspace-wide (semantic) rules: the parsed
/// workspace plus the symbol table built over it.
pub struct SemanticCtx<'a> {
    /// Parsed workspace files.
    pub ws: &'a Workspace,
    /// Per-file lint contexts, indexed like [`Workspace::files`].
    pub ctxs: &'a [FileCtx<'a>],
    /// Workspace symbol table.
    pub table: SymbolTable,
}

/// Run the rules over the whole workspace and keep the findings no
/// documented `repolint:allow` suppresses.
pub fn run_semantic(ws: &Workspace, ctxs: &[FileCtx<'_>], out: &mut Vec<Diagnostic>) {
    let sem = SemanticCtx { ws, ctxs, table: SymbolTable::build(ws) };
    let mut found = Vec::new();
    api001::check(&sem, &mut found);
    out.extend(
        found
            .into_iter()
            .filter(|d| !ctxs.iter().any(|c| c.path == d.path && c.suppressed(d.rule, d.line))),
    );
}

/// Report every `repolint:allow` comment of one file that names no rule,
/// or that suppressed nothing. Call it after every rule has had its
/// chance to use the comment.
pub fn check_allows(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for s in &ctx.suppressions {
        let message = if !RULES.contains(&s.rule.as_str()) {
            format!("`repolint:allow({})` names no rule; known rules: {}", s.rule, RULES.join(", "))
        } else if !s.used.get() {
            format!(
                "stale `repolint:allow({0})`: it suppresses nothing — {0} does not fire on line \
                 {1} (or the comment gives no reason); delete the comment",
                s.rule, s.target_line
            )
        } else {
            continue;
        };
        out.push(diag_at("ALLOW", ctx.path, s.line, message));
    }
}

/// Shared constructor so every rule emits the same shape.
pub(crate) fn diag_at(rule: &'static str, path: &str, line: usize, message: String) -> Diagnostic {
    Diagnostic { rule, path: path.to_string(), line, message }
}

/// Human-readable rationale and fix pattern per rule, for
/// `repolint explain RULEID`.
pub fn explain(code: &str) -> Option<&'static str> {
    Some(match code {
        "API001" => {
            "API001 — dead `pub` items.\n\
             Why: an exported item that no other crate and no other target (binary,\n\
             example, bench, integration test) reaches backs nothing the workspace ships.\n\
             The crate's own `#[cfg(test)]` code does not count: an item only its unit test\n\
             calls is dead code with a test attached.\n\
             Fix: delete it with that unit test, narrow it to `pub(crate)`, or — for a\n\
             test fixture — move it under `#[cfg(test)]`."
        }
        _ => return None,
    })
}
