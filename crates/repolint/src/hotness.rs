//! The function-body token scan and the loop-aware hot set built on it.
//!
//! One bracket-frame pass over each function's body tokens ([`scan_fn`])
//! yields everything the call graph and the PERF rules (PERF001–PERF004)
//! need from a body:
//!
//! 1. **Loop-nesting depth per token.** A `{` opened by a pending
//!    `for`/`while`/`loop` keyword is a loop frame, and the argument list
//!    of an iterator adapter (`.map(..)`, `.fold(..)`, `.retain(..)`, ...)
//!    counts as a loop frame too, because its closure runs once per
//!    element.
//! 2. **Call sites** ([`ScannedCall`]): `name(..)`, `a::b::name(..)` and
//!    `.name(..)` (turbofish skipped), each with the exact loop depth of
//!    its name token. Keywords, `fn name(` definitions, `name!(` macro
//!    heads and `#[..]` statement attributes are not calls; macro
//!    *arguments* are ordinary tokens and are scanned like the rest. A
//!    bare name bound in the function — a parameter, a closure parameter,
//!    a `let` or `for` pattern, a nested `fn` — is a call through a local,
//!    not a call to a same-named workspace function, and is not recorded.
//! 3. **PERF sinks** (heap allocations, clones, `dyn` dispatch, formatted
//!    output) with their loop depth, so the rules in
//!    [`crate::rules::perf`] only join sinks against the hot set.
//!
//! [`CallGraph::build`] runs the scan and resolves the call sites;
//! [`Hotness::build`] then propagates heat forward from the configured
//! replay entry points (`Machine::simulate`, `MissStream::build`,
//! `CampaignClient::run`, ...): a callee's heat is its caller's heat plus
//! the loop depth of the call site, capped at [`HEAT_CAP`]. A function
//! whose call site sits inside a loop is therefore *hotter* than its
//! caller — the transitive loop amplification the diagnostics report.
//!
//! Known approximations (DESIGN.md §3.12): `dyn` receivers are
//! recognised from `fn` parameters and `let` bindings, not struct fields
//! (and an `Option<..dyn..>`/`Result<..dyn..>` wrapper does not count —
//! methods on the wrapper are not virtual calls); a `while` condition is
//! scanned at the depth outside its loop; a local binding hides a
//! same-named function from where it is introduced to the end of the
//! enclosing function, not just to the end of its block. Heat does
//! **not** propagate through method-name fan-out wider than
//! [`HOT_FANOUT_CAP`] candidates: a bare `.new()`/`.push()` site that
//! matches half the workspace says nothing about what is actually hot,
//! and precision is the point of a performance triage. `for` loops
//! desugar to nothing at this token level, so each one contributes a
//! synthetic call edge to the workspace's `next` methods at the loop's
//! body depth — that is how the per-event miss-stream decoder gets hot.

use crate::callgraph::{resolve_method, CallGraph};
use crate::symbols::SymbolTable;
use std::collections::{BTreeSet, VecDeque};
use syn::{Token, TokenKind};

/// Transitive heat is clamped here so recursive cycles terminate; any
/// depth at the cap is already "as hot as it gets" for triage purposes.
pub const HEAT_CAP: u32 = 8;

/// Method-call sites whose name matches more than this many workspace
/// methods are too ambiguous to carry heat (see the module docs).
pub const HOT_FANOUT_CAP: usize = 3;

/// Iterator adapters whose closure argument executes once per element:
/// their argument list counts as one loop level.
const ITER_METHODS: &[&str] = &[
    "for_each",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "try_fold",
    "try_for_each",
    "retain",
    "scan",
    "inspect",
    "take_while",
    "skip_while",
    "position",
    "find",
    "find_map",
    "any",
    "all",
    "partition",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
];

/// Allocation sinks spelled as paths (`Type::assoc`).
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

/// Allocation sinks spelled as method calls.
const ALLOC_METHODS: &[&str] = &["collect", "to_vec"];

/// Formatted-output macros (`format!` is reported by PERF001 when inside
/// a loop and by PERF004 otherwise; the rules dedupe on [`SinkKind`]).
const FMT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "write", "writeln"];

/// What kind of hot-path liability a sink is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// Heap allocation (`Vec::new`, `vec!`, `.collect()`, `Box::new`, ...).
    Alloc,
    /// `.clone()` / `.to_owned()` call.
    Clone,
    /// Method call through a `dyn`-typed receiver.
    DynCall,
    /// `println!`/`write!`-family formatted output.
    Fmt,
    /// `format!` — an allocation *and* formatting; PERF001 claims it in
    /// loops, PERF004 outside them.
    Format,
}

/// One potential PERF sink inside a function body.
#[derive(Debug, Clone)]
pub struct LoopSink {
    /// Classification.
    pub kind: SinkKind,
    /// Source spelling (`Vec::new`, `.clone`, `policy.choose`, `format!`).
    pub display: String,
    /// 1-based source line.
    pub line: usize,
    /// Loop-nesting depth of the sink token within its function.
    pub depth: u32,
}

/// One call site as the body scan sees it, before it is resolved
/// against the symbol table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedCall {
    /// Path segments in source order (`a::b::c(..)` → three); for a
    /// method call, the method name alone.
    pub segs: Vec<String>,
    /// True for `.name(..)`.
    pub method: bool,
    /// 1-based line of the called name.
    pub line: usize,
    /// Loop-nesting depth of the called name within its function.
    pub depth: u32,
}

impl ScannedCall {
    /// Source spelling: `a::b::c` for paths, `.name` for method calls.
    pub fn display(&self) -> String {
        match self.method {
            true => format!(".{}", self.segs[0]),
            false => self.segs.join("::"),
        }
    }
}

/// Loop facts for one function body.
#[derive(Debug, Clone, Default)]
pub struct FnLoops {
    /// PERF sink candidates, in token order.
    pub sinks: Vec<LoopSink>,
    /// `(line, body depth)` of each `for` loop — the synthetic
    /// `Iterator::next` call edges the fixpoint adds per iteration.
    pub for_loops: Vec<(usize, u32)>,
}

/// The workspace hot set: per-function heat plus the provenance needed
/// to reconstruct "why is this hot" call chains.
#[derive(Debug, Default)]
pub struct Hotness {
    /// Heat per function (indexed like [`SymbolTable::fns`]); `None`
    /// means not reachable from any entry point.
    pub heat: Vec<Option<u32>>,
    /// For non-root hot functions: `(caller, call line, call-site loop
    /// depth)` of the path that *first discovered* the function. Set
    /// exactly once per function, so walking `via` upward strictly
    /// decreases discovery time — the chain is acyclic by construction
    /// even through recursion (whose later heat bumps keep the original
    /// provenance).
    pub via: Vec<Option<(usize, usize, u32)>>,
}

impl Hotness {
    /// Run the heat fixpoint over `graph` from `roots`.
    pub fn build(table: &SymbolTable, graph: &CallGraph, roots: &[usize]) -> Self {
        let mut heat: Vec<Option<u32>> = vec![None; table.fns.len()];
        let mut via: Vec<Option<(usize, usize, u32)>> = vec![None; table.fns.len()];
        let mut queue = VecDeque::new();
        for &r in roots {
            if !table.fns[r].is_test && heat[r].is_none() {
                heat[r] = Some(0);
                queue.push_back(r);
            }
        }
        // The synthetic `for`-loop callees: every workspace
        // `Iterator`-style `next` method (subject to the same fan-out
        // cap as explicit sites).
        let next_methods = resolve_method(table, "next");

        // Worklist max-fixpoint: heat only grows and is capped, so the
        // queue drains even through recursion.
        while let Some(f) = queue.pop_front() {
            let base = match heat[f] {
                Some(h) => h,
                None => continue,
            };
            let push = |targets: &[usize],
                        line: usize,
                        d: u32,
                        heat: &mut Vec<Option<u32>>,
                        via: &mut Vec<Option<(usize, usize, u32)>>,
                        queue: &mut VecDeque<usize>| {
                if targets.len() > HOT_FANOUT_CAP {
                    return;
                }
                let cand = (base + d).min(HEAT_CAP);
                for &t in targets {
                    if table.fns[t].is_test {
                        continue;
                    }
                    if heat[t].is_none_or(|h| cand > h) {
                        if heat[t].is_none() {
                            via[t] = Some((f, line, d));
                        }
                        heat[t] = Some(cand);
                        queue.push_back(t);
                    }
                }
            };
            for site in &graph.calls[f] {
                push(&site.targets, site.line, site.depth, &mut heat, &mut via, &mut queue);
            }
            for &(line, d) in &graph.loops[f].for_loops {
                push(&next_methods, line, d, &mut heat, &mut via, &mut queue);
            }
        }
        Hotness { heat, via }
    }
}

/// Find the start of a function's signature: walk back from the body's
/// opening brace to the nearest `fn` keyword. (A `fn`-pointer *type* in
/// an earlier parameter stops the walk early; parameters before it are
/// then not scanned for `dyn` — a benign under-approximation.)
fn sig_start(tokens: &[Token], body_lo: usize) -> usize {
    let mut i = body_lo.saturating_sub(1);
    while i > 0 {
        if tokens[i].is_ident("fn") {
            return i;
        }
        i -= 1;
    }
    0
}

/// Index just past the balanced `<..>` group opening at `open`.
fn skip_angles(tokens: &[Token], open: usize) -> usize {
    let mut angle = 0i32;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
        }
        j += 1;
        if angle <= 0 {
            break;
        }
    }
    j
}

/// True when a type region names a `dyn` that is not behind an
/// `Option`/`Result` wrapper — methods called on the wrapper are
/// ordinary calls, so it does not make the *binding* dyn.
fn bare_dyn(ty: &[Token]) -> bool {
    let mut wrapped = false;
    for t in ty {
        if t.is_ident("Option") || t.is_ident("Result") {
            wrapped = true;
        } else if t.is_ident("dyn") && !wrapped {
            return true;
        }
    }
    false
}

/// The names a signature binds: `(every parameter, the parameters with
/// a bare-`dyn` type such as `policy: &mut dyn ProtectionPolicy`)`. The
/// parameter list is the first paren group after `fn name<..>` (a
/// generic bound such as `F: Fn(u64)` has parens of its own); inside it,
/// an ident immediately followed by `:` opens a parameter whose type
/// runs to the next `,` at depth 1 or to the closing paren.
fn param_bindings(
    tokens: &[Token],
    sig_lo: usize,
    body_lo: usize,
) -> (BTreeSet<&str>, BTreeSet<&str>) {
    let (mut params, mut dyns) = (BTreeSet::new(), BTreeSet::new());
    let mut i = sig_lo + 1;
    if tokens.get(i).is_some_and(|t| t.kind == TokenKind::Ident) {
        i += 1;
    }
    if tokens.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(tokens, i);
    }
    let mut depth = 0usize;
    // The parameter being read: its name and where its type starts.
    let mut open: Option<(&str, usize)> = None;
    while i < body_lo {
        let t = &tokens[i];
        let punct = if t.kind == TokenKind::Punct { t.text.as_str() } else { "" };
        let closes = matches!(punct, ")" | "]" | "}");
        if closes {
            depth = depth.saturating_sub(1);
        }
        if (closes && depth == 0) || (depth == 1 && punct == ",") {
            if let Some((name, ty)) = open.take() {
                if bare_dyn(&tokens[ty..i]) {
                    dyns.insert(name);
                }
            }
            if closes {
                break;
            }
        } else if matches!(punct, "(" | "[" | "{") {
            depth += 1;
        } else if depth == 1
            && open.is_none()
            && t.kind == TokenKind::Ident
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(":"))
        {
            params.insert(t.text.as_str());
            open = Some((t.text.as_str(), i + 2));
        }
        i += 1;
    }
    (params, dyns)
}

/// After a called name at `i`, skip an optional turbofish (`::<..>`)
/// and return the index of the argument-list `(` when this is a call.
fn call_paren_after(tokens: &[Token], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct("::"))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct("<"))
    {
        j = skip_angles(tokens, j + 1);
    }
    tokens.get(j).is_some_and(|t| t.is_punct("(")).then_some(j)
}

/// Index just past the `#[..]` / `#![..]` attribute whose `#` is at `i`.
fn attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct("!")) {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("[")) {
        return None;
    }
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct("[") {
            depth += 1;
        } else if tokens[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    Some(j + 1)
}

/// Whether a `|` after `prev` opens a closure header rather than being
/// a binary or a pattern alternative: it does unless something that
/// ends an operand (a name, a literal, a closing bracket) precedes it.
fn opens_closure(prev: &Token) -> bool {
    match prev.kind {
        TokenKind::Punct => !matches!(prev.text.as_str(), ")" | "]" | "}" | "?"),
        TokenKind::Ident => matches!(prev.text.as_str(), "move" | "return" | "else" | "in"),
        _ => false,
    }
}

/// The identifier tokens of a pattern or header.
fn idents(tokens: &[Token]) -> impl Iterator<Item = &str> {
    tokens.iter().filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.as_str())
}

/// Keywords that can stand directly before a `(` without calling anything.
const NOT_CALLEES: &[&str] = &[
    "if", "while", "match", "for", "in", "return", "let", "mut", "ref", "as", "else", "break",
    "move", "loop", "unsafe", "fn", "pub", "dyn", "impl", "where", "yield",
];

/// Scan one function body (`body` is the token range inside the
/// braces): its loop facts and PERF sink candidates, and its call sites
/// in token order.
pub fn scan_fn(tokens: &[Token], body: (usize, usize)) -> (FnLoops, Vec<ScannedCall>) {
    let (lo, hi) = (body.0, body.1.min(tokens.len()));
    // Names bound so far: a bare call through one of them reaches no
    // workspace function.
    let (mut locals, mut dyn_names) = param_bindings(tokens, sig_start(tokens, lo), lo);
    // What a `let`/`for` pattern introduces becomes visible at the next
    // `;` or `{`, so the initialiser of `let f = f(x);` still calls `f`.
    let mut pending: Vec<&str> = Vec::new();

    let mut out = FnLoops::default();
    let mut calls = Vec::new();
    // Open bracket frames: `true` marks a loop frame (a `{` opened by a
    // pending loop keyword, or an iterator adapter's argument list).
    let mut frames: Vec<bool> = Vec::new();
    let mut loop_depth = 0u32;
    let mut pending_loop = false;
    // Set when the pending loop keyword was `for`: its `{` also records
    // a synthetic `Iterator::next` edge at the loop's line.
    let mut pending_for: Option<usize> = None;
    let mut loop_paren_at: Option<usize> = None;

    let mut i = lo;
    while i < hi {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                // A statement attribute (`#[cfg(feature = "x")]`) holds
                // no code of this function.
                "#" => {
                    if let Some(end) = attr_end(tokens, i) {
                        i = end;
                        continue;
                    }
                }
                // A closure header `|a, (b, c): T|` binds every name in it.
                "|" if i > lo && opens_closure(&tokens[i - 1]) => {
                    if let Some(close) = (i + 1..hi).find(|&j| tokens[j].is_punct("|")) {
                        locals.extend(idents(&tokens[i + 1..close]));
                        i = close + 1;
                        continue;
                    }
                }
                ";" => locals.extend(pending.drain(..)),
                "{" => {
                    locals.extend(pending.drain(..));
                    let is_loop = pending_loop;
                    pending_loop = false;
                    frames.push(is_loop);
                    if is_loop {
                        loop_depth += 1;
                        if let Some(line) = pending_for.take() {
                            out.for_loops.push((line, loop_depth));
                        }
                    }
                }
                "(" => {
                    let is_loop = loop_paren_at == Some(i);
                    frames.push(is_loop);
                    if is_loop {
                        loop_depth += 1;
                    }
                }
                "[" => frames.push(false),
                "}" | ")" | "]" => {
                    if let Some(is_loop) = frames.pop() {
                        if is_loop {
                            loop_depth = loop_depth.saturating_sub(1);
                        }
                    }
                }
                _ => {}
            },
            TokenKind::Ident => {
                let name = t.text.as_str();
                let prev_dot = i > lo && tokens[i - 1].is_punct(".");
                let next_bang = tokens.get(i + 1).is_some_and(|n| n.is_punct("!"));

                // Binders: a `let` pattern (with its annotation) runs to
                // the `=`, a `for` pattern to the `in`.
                if name == "let" || (name == "for" && !prev_dot) {
                    let ends = |n: &Token| match name {
                        "let" => n.is_punct("=") || n.is_punct(";"),
                        _ => n.is_ident("in"),
                    };
                    let end = (i + 1..hi).find(|&j| ends(&tokens[j])).unwrap_or(hi);
                    let pat = &tokens[i + 1..end];
                    pending.extend(idents(pat));
                    // `let [mut] name: .. dyn .. =` is a dyn receiver.
                    let at = usize::from(pat.first().is_some_and(|t| t.is_ident("mut")));
                    if pat.get(at + 1).is_some_and(|t| t.is_punct(":")) && bare_dyn(&pat[at + 2..])
                    {
                        dyn_names.insert(pat[at].text.as_str());
                    }
                }

                // A nested `fn`: its name and its parameters are local to
                // this body (its own body is scanned as part of this one).
                if name == "fn" {
                    let (params, dyns) = param_bindings(tokens, i, hi);
                    locals.extend(idents(&tokens[i + 1..(i + 2).min(hi)]));
                    locals.extend(params);
                    dyn_names.extend(dyns);
                }

                // Call sites: `name(`, `a::b::name(` and `.name(`.
                if !next_bang
                    && !NOT_CALLEES.contains(&name)
                    && call_paren_after(tokens, i).is_some()
                {
                    let mut first = i;
                    while !prev_dot
                        && first >= lo + 2
                        && tokens[first - 1].is_punct("::")
                        && tokens[first - 2].kind == TokenKind::Ident
                    {
                        first -= 2;
                    }
                    if prev_dot || first < i || !locals.contains(name) {
                        calls.push(ScannedCall {
                            segs: tokens[first..=i]
                                .iter()
                                .step_by(2)
                                .map(|t| t.text.clone())
                                .collect(),
                            method: prev_dot,
                            line: t.line,
                            depth: loop_depth,
                        });
                    }
                }

                match name {
                    "for" | "while" | "loop" if !prev_dot => {
                        pending_loop = true;
                        pending_for = (name == "for").then_some(t.line);
                    }
                    "vec" if next_bang => out.sinks.push(LoopSink {
                        kind: SinkKind::Alloc,
                        display: "vec!".to_string(),
                        line: t.line,
                        depth: loop_depth,
                    }),
                    "format" if next_bang => out.sinks.push(LoopSink {
                        kind: SinkKind::Format,
                        display: "format!".to_string(),
                        line: t.line,
                        depth: loop_depth,
                    }),
                    name if FMT_MACROS.contains(&name) && next_bang => out.sinks.push(LoopSink {
                        kind: SinkKind::Fmt,
                        display: format!("{name}!"),
                        line: t.line,
                        depth: loop_depth,
                    }),
                    name if prev_dot
                        && ("clone" == name || "to_owned" == name)
                        && call_paren_after(tokens, i).is_some() =>
                    {
                        out.sinks.push(LoopSink {
                            kind: SinkKind::Clone,
                            display: format!(".{name}"),
                            line: t.line,
                            depth: loop_depth,
                        });
                    }
                    name if prev_dot
                        && ALLOC_METHODS.contains(&name)
                        && call_paren_after(tokens, i).is_some() =>
                    {
                        out.sinks.push(LoopSink {
                            kind: SinkKind::Alloc,
                            display: format!(".{name}"),
                            line: t.line,
                            depth: loop_depth,
                        });
                    }
                    name if prev_dot && ITER_METHODS.contains(&name) => {
                        if let Some(p) = call_paren_after(tokens, i) {
                            loop_paren_at = Some(p);
                        }
                    }
                    name if !prev_dot
                        && dyn_names.contains(name)
                        && tokens.get(i + 1).is_some_and(|n| n.is_punct(".")) =>
                    {
                        if let Some(m) = tokens.get(i + 2) {
                            if m.kind == TokenKind::Ident
                                && call_paren_after(tokens, i + 2).is_some()
                            {
                                out.sinks.push(LoopSink {
                                    kind: SinkKind::DynCall,
                                    display: format!("{name}.{}", m.text),
                                    line: m.line,
                                    depth: loop_depth,
                                });
                            }
                        }
                    }
                    name if !prev_dot
                        && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
                        && tokens.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident) =>
                    {
                        let assoc = &tokens[i + 2];
                        if ALLOC_PATHS.iter().any(|&(ty, m)| ty == name && m == assoc.text)
                            && call_paren_after(tokens, i + 2).is_some()
                        {
                            out.sinks.push(LoopSink {
                                kind: SinkKind::Alloc,
                                display: format!("{name}::{}", assoc.text),
                                line: t.line,
                                depth: loop_depth,
                            });
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        i += 1;
    }
    (out, calls)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_all(src: &str) -> (FnLoops, Vec<ScannedCall>) {
        let file = syn::parse_file(src).expect("fixture parses");
        // Single top-level fn fixture.
        scan_fn(&file.tokens, file.items[0].body.expect("fn has a body"))
    }

    fn scan(src: &str) -> FnLoops {
        scan_all(src).0
    }

    /// `(spelling, depth)` of every scanned call, methods as `.name`.
    fn calls(src: &str) -> Vec<(String, u32)> {
        scan_all(src).1.iter().map(|c| (c.display(), c.depth)).collect()
    }

    fn named(list: &[(&str, u32)]) -> Vec<(String, u32)> {
        list.iter().map(|&(n, d)| (n.to_string(), d)).collect()
    }

    #[test]
    fn call_sites_carry_their_nested_loop_depth() {
        let got = calls(
            "fn f(n: usize) {\n\
             \x20   let a = first();\n\
             \x20   for i in 0..n {\n\
             \x20       step(i);\n\
             \x20       while go() {\n\
             \x20           m::inner::<u8>();\n\
             \x20       }\n\
             \x20   }\n\
             \x20   last(); for _ in 0..2 { tick(); }\n\
             }\n",
        );
        // `go()` sits in the `while` head, outside the frame it opens;
        // `last()` shares a line with a loop and still reads depth 0.
        assert_eq!(
            got,
            named(&[
                ("first", 0),
                ("step", 1),
                ("go", 1),
                ("m::inner", 2),
                ("last", 0),
                ("tick", 1)
            ])
        );
    }

    #[test]
    fn iterator_adapters_count_as_loops() {
        let got = calls(
            "fn f(v: &[u32]) -> u32 {\n\
             \x20   v.iter().map(|x| {\n\
             \x20       expensive(*x)\n\
             \x20   }).sum()\n\
             }\n",
        );
        // The map closure body runs per element; `.map` itself runs once.
        assert_eq!(got, named(&[(".iter", 0), (".map", 0), ("expensive", 1), (".sum", 0)]));
    }

    #[test]
    fn keywords_definitions_macro_heads_and_attributes_are_not_calls() {
        let got = calls(
            "fn f(x: Option<u32>) -> u32 {\n\
             \x20   fn nested(y: u32) -> u32 { y }\n\
             \x20   #[cfg(feature = \"x\")]\n\
             \x20   audit(x);\n\
             \x20   if (x.is_some()) { return (nested(1)); }\n\
             \x20   match (x, 1) { _ => assert!(check(x), \"{}\", 2) }\n\
             \x20   0\n\
             }\n",
        );
        // `nested` is an item of this body, not a workspace function.
        assert_eq!(got, named(&[("audit", 0), (".is_some", 0), ("check", 0)]));
    }

    #[test]
    fn a_bare_call_through_a_local_binding_is_dropped() {
        let got = calls(
            "fn f<F: Fn(u64) -> u64>(apply: F, hook: &dyn Fn()) {\n\
             \x20   hook();\n\
             \x20   let made = made(1);\n\
             \x20   let g = pick();\n\
             \x20   g(apply(2));\n\
             \x20   each(|item, (a, b): (u8, u8)| item(a | b));\n\
             \x20   for cb in list() { cb(); }\n\
             \x20   m::apply(3);\n\
             \x20   x.apply(4);\n\
             }\n",
        );
        // `made(1)` initialises the binding that shadows it; a qualified
        // path or a method of the same name is not the local.
        let want =
            [("made", 0), ("pick", 0), ("each", 0), ("list", 0), ("m::apply", 0), (".apply", 0)];
        assert_eq!(got, named(&want));
    }

    #[test]
    fn collects_alloc_clone_and_fmt_sinks_with_depth() {
        let l = scan(
            "fn f(n: usize, v: Vec<u32>) {\n\
             \x20   let base = Vec::new();\n\
             \x20   for i in 0..n {\n\
             \x20       let w = v.clone();\n\
             \x20       let s = format!(\"{i}\");\n\
             \x20       println!(\"{s}\");\n\
             \x20       let u = w.to_vec();\n\
             \x20   }\n\
             }\n",
        );
        let got: Vec<(SinkKind, &str, u32)> =
            l.sinks.iter().map(|s| (s.kind, s.display.as_str(), s.depth)).collect();
        assert_eq!(
            got,
            vec![
                (SinkKind::Alloc, "Vec::new", 0),
                (SinkKind::Clone, ".clone", 1),
                (SinkKind::Format, "format!", 1),
                (SinkKind::Fmt, "println!", 1),
                (SinkKind::Alloc, ".to_vec", 1),
            ]
        );
    }

    #[test]
    fn dyn_receivers_from_params_and_lets() {
        let l = scan(
            "fn f(policy: &mut dyn Policy, n: usize) {\n\
             \x20   let local: &dyn Other = make();\n\
             \x20   for i in 0..n {\n\
             \x20       policy.choose(i);\n\
             \x20       local.probe();\n\
             \x20       n.checked_add(i);\n\
             \x20   }\n\
             }\n",
        );
        let dyns: Vec<(&str, u32)> = l
            .sinks
            .iter()
            .filter(|s| s.kind == SinkKind::DynCall)
            .map(|s| (s.display.as_str(), s.depth))
            .collect();
        assert_eq!(dyns, vec![("policy.choose", 1), ("local.probe", 1)]);
    }

    #[test]
    fn turbofish_collect_is_still_an_alloc() {
        let l = scan(
            "fn f(v: &[u32]) {\n\
             \x20   for _ in 0..2 {\n\
             \x20       let w = v.iter().collect::<Vec<_>>();\n\
             \x20       drop(w);\n\
             \x20   }\n\
             }\n",
        );
        assert!(
            l.sinks.iter().any(|s| s.kind == SinkKind::Alloc && s.display == ".collect"),
            "{:?}",
            l.sinks
        );
    }
}
