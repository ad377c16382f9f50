//! DET002: wall-clock reads in simulation library code.
//!
//! Simulated time must come from the simulator's own clock; host
//! wall-clock (`Instant::now`, `SystemTime::now`) feeding any simulated
//! quantity makes runs irreproducible. Binaries, benches and tests may
//! time things for reporting, so only library code is in scope: the
//! crates of the `crates` list in `repolint.toml`, which names every
//! library crate of the workspace.

use crate::config::RuleCfg;
use crate::diag::Diagnostic;
use crate::rules::diag;
use crate::source::{ident_at, punct_at, FileCtx, FileKind};

/// Run the rule over one file.
pub fn check(ctx: &FileCtx<'_>, _cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    if ctx.kind != FileKind::Lib {
        return;
    }
    let toks = &ctx.file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(t.line) {
            continue;
        }
        let clock = if t.is_ident("Instant") {
            "Instant::now"
        } else if t.is_ident("SystemTime") {
            "SystemTime::now"
        } else {
            continue;
        };
        if punct_at(toks, i + 1, "::") && ident_at(toks, i + 2, "now") {
            out.push(diag(
                ctx,
                "DET002",
                t.line,
                format!(
                    "wall-clock `{clock}` in simulation library code; derive time from the \
                     simulated clock, or annotate if the value is reporting-only metadata"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine_tests::lint_str;

    #[test]
    fn fires_on_instant_and_system_time() {
        let src = "use std::time::{Instant, SystemTime};\n\
                   pub fn stamp() -> Instant {\n    Instant::now()\n}\n\
                   pub fn wall() -> SystemTime {\n    SystemTime::now()\n}\n";
        let diags = lint_str("crates/memsim/src/x.rs", "abft-memsim", src);
        let det: Vec<_> = diags.iter().filter(|d| d.rule == "DET002").collect();
        assert_eq!(det.len(), 2, "{det:?}");
        assert!(det.iter().any(|d| d.line == 3));
        assert!(det.iter().any(|d| d.line == 6));
    }

    #[test]
    fn quiet_in_bins_tests_and_suppressed_sites() {
        let bin = "fn main() {\n    let t = std::time::Instant::now();\n    let _ = t;\n}\n";
        assert!(lint_str("crates/bench/src/bin/x.rs", "abft-bench", bin).is_empty());

        let tests = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = std::time::Instant::now();\n    }\n}\n";
        assert!(lint_str("crates/memsim/src/x.rs", "abft-memsim", tests).is_empty());

        let allowed = "pub fn stamp() -> u64 {\n    // repolint:allow(DET002) wall time is reporting-only metadata\n    let _t = std::time::Instant::now();\n    0\n}\n";
        assert!(lint_str("crates/memsim/src/x.rs", "abft-memsim", allowed).is_empty());
    }
}
