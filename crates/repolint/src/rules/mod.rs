//! The rule set: workspace-wide analyses over one symbol table, call
//! graph and hot set. Suppressions and the config's name checks are
//! applied here so the rules themselves stay focused on the analysis.

use crate::callgraph::CallGraph;
use crate::config::{Config, RuleCfg, RULES};
use crate::diag::Diagnostic;
use crate::hotness::Hotness;
use crate::source::FileCtx;
use crate::symbols::{FnSym, SymbolTable};
use crate::Workspace;

pub mod api001;
pub mod perf;

/// Shared input to the workspace-wide (semantic) rules: the parsed
/// workspace plus the symbol table, call graph and hot set built over it.
pub struct SemanticCtx<'a> {
    /// Parsed workspace files.
    pub ws: &'a Workspace,
    /// Per-file lint contexts, indexed like [`Workspace::files`].
    pub ctxs: &'a [FileCtx<'a>],
    /// Workspace symbol table.
    pub table: SymbolTable,
    /// Workspace call graph, with each function's loop facts and sinks.
    pub graph: CallGraph,
    /// Loop-aware hot set from the PERF entry points.
    pub hot: Hotness,
}

type SemanticFn = fn(&SemanticCtx<'_>, &RuleCfg, &mut Vec<Diagnostic>);

/// The rules, keyed by the config section they read (`perf::check`
/// reports all of PERF001–PERF004). Crate scoping is interpreted *inside*
/// each rule, so only suppressions are generic here.
pub const SEMANTIC: &[(&str, SemanticFn)] = &[("API001", api001::check), ("PERF001", perf::check)];

/// Whether an `entry_points` name (`Type::method` or a bare function
/// name) names `f`.
pub(crate) fn is_entry_point(entry: &str, f: &FnSym) -> bool {
    f.qual() == entry || f.name == entry
}

/// Run the rules over the whole workspace; the symbol table, call graph
/// and hot set are built once and shared. Fails when the config file
/// lists a crate or an entry point that names nothing in the workspace:
/// both are matched by name, so a renamed crate or function would
/// otherwise drop out of the rules' scope without a single finding.
pub fn run_semantic(
    ws: &Workspace,
    ctxs: &[FileCtx<'_>],
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) -> Result<(), String> {
    let table = SymbolTable::build(ws);
    for (section, rule) in &cfg.rules {
        for c in rule.crates.iter().flatten() {
            if !table.crates.contains(c) {
                return Err(format!(
                    "[rules.{section}] crates: `{c}` matches no package in the workspace \
                     (renamed or deleted? the rules would silently skip it)"
                ));
            }
        }
    }
    // The hot set's roots are the configured entry points (`Type::method`
    // or bare names — binary `main`s are deliberately *not* roots: a
    // binary's own loops are its business).
    let perf_cfg = cfg.rule("PERF001");
    let mut roots = Vec::new();
    for e in &perf_cfg.entry_points {
        let before = roots.len();
        roots.extend((0..table.fns.len()).filter(|&i| is_entry_point(e, &table.fns[i])));
        if perf_cfg.entry_points_listed && roots.len() == before {
            return Err(format!(
                "[rules.PERF001] entry_points: `{e}` matches no function in the workspace \
                 (renamed or deleted? the rules would silently check nothing)"
            ));
        }
    }
    roots.sort_unstable();
    roots.dedup();
    let graph = CallGraph::build(ws, &table);
    let hot = Hotness::build(&table, &graph, &roots);
    let sem = SemanticCtx { ws, ctxs, table, graph, hot };
    for (code, check) in SEMANTIC {
        let mut found = Vec::new();
        check(&sem, cfg.rule(code), &mut found);
        out.extend(
            found
                .into_iter()
                .filter(|d| !ctxs.iter().any(|c| c.path == d.path && c.suppressed(d.rule, d.line))),
        );
    }
    Ok(())
}

/// Report every `repolint:allow` comment of one file that names no rule,
/// or that suppressed nothing although its rule was checked on the file.
/// Call it after every rule has had its chance to use the comment.
pub fn check_allows(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    for s in &ctx.suppressions {
        let message = if !RULES.contains(&s.rule.as_str()) {
            format!("`repolint:allow({})` names no rule; known rules: {}", s.rule, RULES.join(", "))
        } else if !s.used.get() && cfg.rule(&s.rule).covers(ctx.crate_name) {
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
    Diagnostic { rule, path: path.to_string(), line, message, related: Vec::new() }
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
        "PERF001" => {
            "PERF001 — heap allocation inside a loop in hot code.\n\
             Why: the campaign's wall-clock is bounded by the filtered-replay inner loops\n\
             (perfbench measures them as `campaign_ns_per_event` on `grid_replay`); an allocator\n\
             round-trip per event or per phase dwarfs the arithmetic it feeds. The hotness analysis proves the loop\n\
             is reachable from a replay entry point and the diagnostic prints that chain.\n\
             Fix: hoist the allocation above the loop, reuse a preallocated buffer\n\
             (`clear()` + refill), or write into a caller-provided slice."
        }
        "PERF002" => {
            "PERF002 — `.clone()` / `.to_owned()` of a non-Copy value in a hot loop.\n\
             Why: cloning a Vec or String per iteration is a hidden allocation plus a\n\
             memcpy; snapshot-style clones inside replay loops (e.g. per-phase rank-busy\n\
             copies) scale with event count, not result size.\n\
             Fix: borrow (`&[...]` accessors instead of cloning getters), restructure to\n\
             copy once before the loop, or use `copy_from_slice` into a reused buffer."
        }
        "PERF003" => {
            "PERF003 — dynamic dispatch through `dyn` in a hot loop.\n\
             Why: an indirect call per replay event blocks inlining of the callee (and\n\
             everything behind it, e.g. the MC's range lookup), costing more than the\n\
             dispatch itself. One virtual call per *request* is the difference between a\n\
             devirtualized inner loop and a pipeline stall per event.\n\
             Fix: make the driving function generic over the trait (`P: Policy + ?Sized`)\n\
             so each concrete policy gets its own monomorphized, inlinable loop; keep the\n\
             `dyn` boundary at the API surface where it runs once."
        }
        "PERF004" => {
            "PERF004 — formatted output in hot-reachable library code.\n\
             Why: `println!`/`write!` reachable from a replay entry point does\n\
             formatting work (and possibly I/O plus a stdout lock) inside the simulation's\n\
             call tree; reporting belongs in binaries and the reporting layer, where it\n\
             runs once per campaign rather than once per event.\n\
             Fix: return data and let the caller render it; if a site is genuinely\n\
             diagnostic-only, annotate it `// repolint:allow(PERF004) reason`."
        }
        _ => return None,
    })
}
