//! PERF001–PERF004: hot-path performance rules over the loop-aware
//! hotness analysis ([`crate::hotness`]).
//!
//! All four rules share one shape: a *sink* (allocation, clone, `dyn`
//! dispatch, formatted output) found by the token scanner, joined
//! against the workspace hot set. A sink fires when its **total heat** —
//! the enclosing function's transitive heat plus the sink's local
//! loop depth — says it executes inside a loop reachable from a replay
//! entry point (PERF001–PERF003), or simply when the function is
//! hot-reachable at all (PERF004: formatted output has no business on
//! any replay path). Sinks only count in library code; binaries
//! allocate and print as their job, and crate scoping narrows the rules
//! to the crates whose throughput the campaign actually depends on.
//!
//! Every diagnostic carries the call chain that makes the function hot,
//! with loop-carrying frames marked (`in loop x2`), so the *why* is
//! auditable without rerunning the analysis.

use crate::config::RuleCfg;
use crate::diag::{Diagnostic, Related};
use crate::hotness::{SinkKind, HEAT_CAP};
use crate::rules::{diag_at, SemanticCtx};
use crate::source::FileKind;

/// A sink must carry at least this much total heat (function heat plus
/// local loop depth) before PERF001–PERF003 fire. Heat 1 means "runs
/// once per strategy / per replay call" — setup work, not the per-event
/// inner loop; two loop levels is where a cost starts scaling with the
/// access stream.
const FIRE_AT: u32 = 2;

/// The rule a sink of this kind breaks at this total heat, with what it
/// is called and how to pay less.
///
/// - PERF001 — heap allocation inside a loop in hot code. `format!` is an
///   allocation too; on cold error paths it is idiomatic, so it only
///   counts with loop heat behind it, like every other allocation here.
/// - PERF002 — `.clone()` / `.to_owned()` in a hot loop.
/// - PERF003 — dynamic dispatch through `dyn` in a hot loop.
/// - PERF004 — formatted *output* (`println!`/`write!`-family) anywhere
///   in hot-reachable library code: reporting belongs to binaries and the
///   reporting layer, so any heat at all is a finding.
fn rule_for(kind: SinkKind, total: u32) -> Option<(&'static str, &'static str, &'static str)> {
    let looped = total >= FIRE_AT;
    Some(match kind {
        SinkKind::Alloc | SinkKind::Format if looped => (
            "PERF001",
            "heap allocation",
            "hoist the allocation out of the loop or reuse a preallocated buffer",
        ),
        SinkKind::Clone if looped => {
            ("PERF002", "clone", "borrow instead of cloning, or move the clone out of the loop")
        }
        SinkKind::DynCall if looped => (
            "PERF003",
            "dynamic dispatch",
            "devirtualize: make the caller generic over the trait so the callee can inline",
        ),
        SinkKind::Fmt => (
            "PERF004",
            "formatted output",
            "move reporting to the caller or gate it behind the reporting layer",
        ),
        _ => return None,
    })
}

/// PERF001–PERF004: the join of token-level sinks against the workspace
/// hot set, scoped by the one `[rules.PERF001]` config the family shares.
pub fn check(sem: &SemanticCtx<'_>, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    let hot = &sem.hot;
    for (fi, f) in sem.table.fns.iter().enumerate() {
        let Some(base) = hot.heat.get(fi).copied().flatten() else { continue };
        let ctx = &sem.ctxs[f.file];
        if ctx.kind != FileKind::Lib {
            continue;
        }
        if !cfg.covers(&f.crate_name) {
            continue;
        }
        for s in &sem.graph.loops[fi].sinks {
            let total = base.saturating_add(s.depth).min(HEAT_CAP);
            let Some((rule, noun, advice)) = rule_for(s.kind, total) else { continue };
            if ctx.in_test(s.line) {
                continue;
            }
            let (chain, related) = hot_chain(sem, fi);
            let heat_note = if s.depth > 0 {
                format!("loop depth {total} (function heat {base} + local loop x{})", s.depth)
            } else {
                format!("function heat {base}")
            };
            let mut d = diag_at(
                rule,
                ctx.path,
                s.line,
                format!(
                    "{noun} `{}` on the hot replay path at {heat_note}; hot via: {chain} -> `{}` \
                     ({}:{}); {advice}",
                    s.display, s.display, ctx.path, s.line,
                ),
            );
            d.related = related;
            out.push(d);
        }
    }
}

/// Reconstruct the hottest-path chain `root -> ... -> fns[fi]` as the
/// message fragment plus one [`Related`] location per hop. Loop-carrying
/// frames are marked with the call-site depth that amplified the heat.
fn hot_chain(sem: &SemanticCtx<'_>, fi: usize) -> (String, Vec<Related>) {
    let table = &sem.table;
    let hot = &sem.hot;
    let mut rev: Vec<String> = Vec::new();
    let mut rel_rev: Vec<Related> = Vec::new();
    let mut cur = fi;
    let mut hops = 0usize;
    loop {
        match hot.via.get(cur).copied().flatten() {
            // The hop budget is defensive: `via` cannot cycle, because
            // every edge was recorded on a strict heat increase.
            Some((parent, line, depth)) if hops <= table.fns.len() => {
                let path = sem.ctxs[table.fns[parent].file].path;
                let mark = if depth > 0 {
                    format!(" (called at {path}:{line}, in loop x{depth})")
                } else {
                    format!(" (called at {path}:{line})")
                };
                rev.push(format!("`{}`{mark}", table.fns[cur].qual()));
                rel_rev.push(Related {
                    path: path.to_string(),
                    line,
                    message: if depth > 0 {
                        format!("calls `{}` inside a loop (x{depth})", table.fns[cur].qual())
                    } else {
                        format!("calls `{}`", table.fns[cur].qual())
                    },
                });
                cur = parent;
                hops += 1;
            }
            _ => {
                rev.push(format!("`{}` (entry point)", table.fns[cur].qual()));
                break;
            }
        }
    }
    rev.reverse();
    rel_rev.reverse();
    (rev.join(" -> "), rel_rev)
}
