//! Cross-crate call-graph resolution, checked against a three-crate
//! fixture workspace: a `driver` binary crate calling into `engine`,
//! which calls into `util` — through plain paths, `use` renames, and
//! trait methods.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "fixture helpers outside `#[test]` fns: a broken fixture should fail the test"
)]

use repolint::callgraph::CallGraph;
use repolint::symbols::SymbolTable;
use repolint::Workspace;

/// `driver` (bin) -> `engine` -> `util`, with a `use`-renamed import and
/// a trait whose only implementor lives in `util`.
fn fixture() -> Workspace {
    Workspace::from_sources(&[
        (
            "crates/driver/src/bin/run.rs",
            "driver",
            "use engine::step;\n\
             fn main() {\n\
             \x20   step();\n\
             }\n",
        ),
        (
            "crates/engine/src/lib.rs",
            "engine",
            "use util::checksum as fold;\n\
             use util::Accumulate;\n\
             pub fn step() {\n\
             \x20   let _ = fold(&[1, 2]);\n\
             \x20   helper();\n\
             }\n\
             fn helper() {\n\
             \x20   let acc = util::Ring::default();\n\
             \x20   acc.absorb(7);\n\
             }\n",
        ),
        (
            "crates/util/src/lib.rs",
            "util",
            "pub fn checksum(xs: &[u64]) -> u64 {\n\
             \x20   xs.iter().sum()\n\
             }\n\
             pub trait Accumulate {\n\
             \x20   fn absorb(&self, v: u64);\n\
             }\n\
             #[derive(Default)]\n\
             pub struct Ring;\n\
             impl Accumulate for Ring {\n\
             \x20   fn absorb(&self, _v: u64) {}\n\
             }\n",
        ),
    ])
    .expect("fixture parses")
}

fn build(ws: &Workspace) -> (SymbolTable, CallGraph) {
    let table = SymbolTable::build(ws);
    let graph = CallGraph::build(ws, &table);
    (table, graph)
}

fn fn_index(table: &SymbolTable, qual: &str) -> usize {
    table
        .fns
        .iter()
        .position(|f| f.qual() == qual)
        .unwrap_or_else(|| panic!("no fn {qual} in {:?}", qual_names(table)))
}

fn qual_names(table: &SymbolTable) -> Vec<String> {
    table.fns.iter().map(|f| f.qual()).collect()
}

#[test]
fn cross_crate_edges_resolve_to_the_defining_crate() {
    let ws = fixture();
    let (table, graph) = build(&ws);
    let main = fn_index(&table, "main");
    let step = fn_index(&table, "step");
    let sites = &graph.calls[main];
    assert!(
        sites.iter().any(|s| s.targets.contains(&step)),
        "main must call engine::step: {sites:?}"
    );
    assert_eq!(table.fns[step].crate_name, "engine");
}

#[test]
fn use_renames_resolve_to_the_original_item() {
    let ws = fixture();
    let (table, graph) = build(&ws);
    let step = fn_index(&table, "step");
    let checksum = fn_index(&table, "checksum");
    assert_eq!(table.fns[checksum].crate_name, "util");
    let site = graph.calls[step]
        .iter()
        .find(|s| s.display.contains("fold"))
        .expect("renamed call site recorded");
    assert!(
        site.targets.contains(&checksum),
        "`fold` must resolve through the rename to util::checksum: {site:?}"
    );
}

#[test]
fn trait_method_calls_fall_back_to_all_implementors() {
    let ws = fixture();
    let (table, graph) = build(&ws);
    let helper = fn_index(&table, "helper");
    let absorb = fn_index(&table, "Ring::absorb");
    let site = graph.calls[helper]
        .iter()
        .find(|s| s.display.contains("absorb"))
        .expect("method call site recorded");
    assert!(
        site.targets.contains(&absorb),
        "method call must fan out to the trait implementor: {site:?}"
    );
}

/// Every `(callee, line)` edge out of `caller`.
fn edges(table: &SymbolTable, graph: &CallGraph, caller: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for site in &graph.calls[fn_index(table, caller)] {
        out.extend(site.targets.iter().map(|&t| (table.fns[t].qual(), site.line)));
    }
    out
}

#[test]
fn calls_in_let_else_if_let_closures_and_loop_heads_are_edges_and_attributes_are_not() {
    // The shapes a statement-level expression parser tends to lose.
    let src = "pub fn walk(v: &[Vec<u64>], i: usize) -> u64 {\n\
               \x20   let Some(first) = v.first() else { return fallback(); };\n\
               \x20   if let Some(x) = probe(first) { return x; }\n\
               \x20   let fold = |a: u64, b: &u64| combine(a, *b);\n\
               \x20   for x in &v[index_of(i)] { visit(*x); }\n\
               \x20   #[cfg(feature = \"x\")]\n\
               \x20   audit(v);\n\
               \x20   first.iter().fold(0, fold)\n\
               }\n\
               fn fallback() -> u64 { 0 }\n\
               fn probe(v: &[u64]) -> Option<u64> { v.first().copied() }\n\
               fn combine(a: u64, b: u64) -> u64 { a + b }\n\
               fn index_of(i: usize) -> usize { i }\n\
               fn visit(_x: u64) {}\n\
               fn audit(_v: &[Vec<u64>]) {}\n\
               fn cfg(_on: bool) {}\n";
    let ws = Workspace::from_sources(&[("crates/a/src/lib.rs", "a", src)]).expect("parses");
    let (table, graph) = build(&ws);
    let want = [
        ("fallback", 2),
        ("probe", 3),
        ("combine", 4),
        ("index_of", 5),
        ("visit", 5),
        ("audit", 7),
    ];
    let want: Vec<(String, usize)> = want.iter().map(|&(n, l)| (n.to_string(), l)).collect();
    assert_eq!(edges(&table, &graph, "walk"), want, "and no edge to `cfg` from the attribute");
}

#[test]
fn a_call_through_a_local_is_not_a_call_to_a_workspace_function() {
    let src = "pub fn drive(encode: impl Fn(u64) -> u64, items: &[u64]) -> u64 {\n\
               \x20   let decode = pick();\n\
               \x20   items.iter().map(|scale| encode(decode(*scale))).sum::<u64>() + crate::scale(1)\n\
               }\n\
               fn pick() -> fn(u64) -> u64 { decode }\n\
               pub fn encode(x: u64) -> u64 { x }\n\
               pub fn decode(x: u64) -> u64 { x }\n\
               pub fn scale(x: u64) -> u64 { x }\n";
    let ws = Workspace::from_sources(&[("crates/a/src/lib.rs", "a", src)]).expect("parses");
    let (table, graph) = build(&ws);
    // The parameter, the `let` and the closure parameter hide the three
    // same-named functions from bare calls; a qualified path still
    // reaches the function.
    assert_eq!(
        edges(&table, &graph, "drive"),
        vec![("pick".to_string(), 2), ("scale".to_string(), 3)]
    );
}
