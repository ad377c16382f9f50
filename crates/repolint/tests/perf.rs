//! PERF001–PERF004 behavioral contract over a seeded two-crate fixture:
//! an entry-point replay loop in `sim` that calls into `enc`, with one
//! planted sink per rule — an allocation in a nested loop two hops from
//! the entry point (transitive amplification), a `.to_owned()` in the
//! replay loop, a `dyn` dispatch behind a loop-carried helper, and a
//! `println!` in hot-reachable library code. Each case asserts the
//! exact rule, file:line, heat arithmetic, and reconstructed hot chain.
//! Plus: a direct probe of the hotness analysis (loop-depth tracking
//! and transitive heat), a clean-tree green case, and a property test
//! that code outside the hot set never fires, sinks or not.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "fixture helpers outside `#[test]` fns: a broken fixture should fail the test"
)]

use proptest::prelude::*;
use repolint::callgraph::CallGraph;
use repolint::config::Config;
use repolint::diag::Diagnostic;
use repolint::hotness::{Hotness, SinkKind};
use repolint::symbols::SymbolTable;
use repolint::Workspace;

/// The seeded-bug crate pair. Line numbers are load-bearing — the
/// assertions below name them.
const SIM: &str = "pub struct Engine;\n\
                   impl Engine {\n\
                   \x20   pub fn run(&mut self) {\n\
                   \x20       for ev in 0..4 {\n\
                   \x20           self.step(ev);\n\
                   \x20       }\n\
                   \x20   }\n\
                   \x20   fn step(&mut self, ev: u64) {\n\
                   \x20       for b in 0..8 {\n\
                   \x20           let name = label().to_owned();\n\
                   \x20           drop(name);\n\
                   \x20           let w = enc::encode_word(b);\n\
                   \x20           let _ = apply(&mut Fixed, w);\n\
                   \x20       }\n\
                   \x20       println!(\"step {ev}\");\n\
                   \x20   }\n\
                   }\n\
                   pub trait Policy {\n\
                   \x20   fn weigh(&mut self, w: u64) -> u64;\n\
                   }\n\
                   pub struct Fixed;\n\
                   impl Policy for Fixed {\n\
                   \x20   fn weigh(&mut self, w: u64) -> u64 {\n\
                   \x20       w\n\
                   \x20   }\n\
                   }\n\
                   fn apply(policy: &mut dyn Policy, w: u64) -> u64 {\n\
                   \x20   policy.weigh(w)\n\
                   }\n\
                   fn label() -> &'static str {\n\
                   \x20   \"region\"\n\
                   }\n\
                   pub fn cold_setup() -> Vec<u64> {\n\
                   \x20   let mut v = Vec::new();\n\
                   \x20   for i in 0..4 {\n\
                   \x20       v.push(i);\n\
                   \x20   }\n\
                   \x20   v\n\
                   }\n";

const ENC: &str = "pub fn encode_word(w: u64) -> u64 {\n\
                   \x20   let mut acc = 0u64;\n\
                   \x20   for i in 0..8 {\n\
                   \x20       let mut buf = Vec::with_capacity(8);\n\
                   \x20       buf.push(w ^ i);\n\
                   \x20       acc += buf[0];\n\
                   \x20   }\n\
                   \x20   acc\n\
                   }\n";

/// Config whose PERF rules treat `Engine::run` as the replay entry
/// point (the fixture's stand-in for `Machine::simulate`).
fn perf_cfg() -> Config {
    let mut cfg = Config::default();
    cfg.rules.get_mut("PERF001").unwrap().entry_points = vec!["Engine::run".to_string()];
    cfg
}

fn perf_diags(sources: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
    let ws = Workspace::from_sources(sources).expect("fixture parses");
    ws.lint(&perf_cfg()).expect("lint").into_iter().filter(|d| d.rule.starts_with("PERF")).collect()
}

fn seeded() -> Vec<Diagnostic> {
    perf_diags(&[("crates/sim/src/lib.rs", "sim", SIM), ("crates/enc/src/lib.rs", "enc", ENC)])
}

#[test]
fn perf001_allocation_two_hops_from_entry_amplifies_through_loops() {
    let diags = seeded();
    let d = diags
        .iter()
        .find(|d| d.rule == "PERF001" && d.path == "crates/enc/src/lib.rs" && d.line == 4)
        .unwrap_or_else(|| panic!("no PERF001 in enc: {diags:?}"));
    // heat(run)=0 -> +loop -> heat(step)=1 -> +loop -> heat(encode_word)=2,
    // sink inside encode_word's own loop: total 3.
    assert!(d.message.contains("`Vec::with_capacity`"), "{}", d.message);
    assert!(d.message.contains("loop depth 3 (function heat 2 + local loop x1)"), "{}", d.message);
    assert!(
        d.message.contains(
            "hot via: `Engine::run` (entry point) -> \
             `Engine::step` (called at crates/sim/src/lib.rs:5, in loop x1) -> \
             `encode_word` (called at crates/sim/src/lib.rs:12, in loop x1)"
        ),
        "{}",
        d.message
    );
    // The chain also rides as structured related locations.
    assert_eq!(d.related.len(), 2, "{:?}", d.related);
    assert_eq!(d.related[0].path, "crates/sim/src/lib.rs");
    assert_eq!(d.related[0].line, 5);
    assert!(d.related[0].message.contains("calls `Engine::step` inside a loop (x1)"));
    assert_eq!(d.related[1].line, 12);
    assert!(d.related[1].message.contains("calls `encode_word` inside a loop (x1)"));
}

#[test]
fn perf002_to_owned_in_the_replay_loop() {
    let diags = seeded();
    let d = diags
        .iter()
        .find(|d| d.rule == "PERF002" && d.path == "crates/sim/src/lib.rs" && d.line == 10)
        .unwrap_or_else(|| panic!("no PERF002: {diags:?}"));
    assert!(d.message.contains("clone `.to_owned`"), "{}", d.message);
    assert!(d.message.contains("loop depth 2 (function heat 1 + local loop x1)"), "{}", d.message);
    assert!(d.message.contains("`Engine::run` (entry point)"), "{}", d.message);
}

#[test]
fn perf003_dyn_dispatch_behind_a_loop_carried_helper() {
    let diags = seeded();
    let d = diags
        .iter()
        .find(|d| d.rule == "PERF003" && d.path == "crates/sim/src/lib.rs" && d.line == 28)
        .unwrap_or_else(|| panic!("no PERF003: {diags:?}"));
    // `apply` itself has no loop; its heat 2 comes entirely from being
    // called inside `step`'s replay loop.
    assert!(d.message.contains("dynamic dispatch `policy.weigh`"), "{}", d.message);
    assert!(d.message.contains("function heat 2"), "{}", d.message);
    assert!(
        d.message.contains("`apply` (called at crates/sim/src/lib.rs:13, in loop x1)"),
        "{}",
        d.message
    );
}

#[test]
fn perf004_println_in_hot_reachable_library_code() {
    let diags = seeded();
    let d = diags
        .iter()
        .find(|d| d.rule == "PERF004" && d.path == "crates/sim/src/lib.rs" && d.line == 15)
        .unwrap_or_else(|| panic!("no PERF004: {diags:?}"));
    // Formatted output fires at any heat — no loop required.
    assert!(d.message.contains("formatted output `println!`"), "{}", d.message);
    assert!(d.message.contains("function heat 1"), "{}", d.message);
}

#[test]
fn exactly_the_four_seeded_findings_and_nothing_in_cold_code() {
    let diags = seeded();
    let mut got: Vec<(&str, &str, usize)> =
        diags.iter().map(|d| (d.rule, d.path.as_str(), d.line)).collect();
    got.sort_unstable();
    assert_eq!(
        got,
        vec![
            ("PERF001", "crates/enc/src/lib.rs", 4),
            ("PERF002", "crates/sim/src/lib.rs", 10),
            ("PERF003", "crates/sim/src/lib.rs", 28),
            ("PERF004", "crates/sim/src/lib.rs", 15),
        ],
        "cold_setup's Vec::new (sim:34) must not fire — it is unreachable from the entry point"
    );
}

#[test]
fn a_call_through_a_closure_parameter_does_not_heat_a_same_named_function() {
    // `simulate` calls its `encode` *parameter* in a loop; the free
    // function `encode` below is never called, so its allocation is cold.
    let src = "pub struct Engine;\n\
               impl Engine { pub fn run(&self, encode: impl Fn()) { for _ in 0..3 { encode(); } } }\n\
               pub fn encode() { for _ in 0..2 { let v: Vec<u8> = Vec::new(); drop(v); } }\n";
    let diags = perf_diags(&[("crates/sim/src/lib.rs", "sim", src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn hotness_tracks_loop_depth_and_amplifies_transitively() {
    let ws = Workspace::from_sources(&[
        ("crates/sim/src/lib.rs", "sim", SIM),
        ("crates/enc/src/lib.rs", "enc", ENC),
    ])
    .expect("fixture parses");
    let table = SymbolTable::build(&ws);
    let graph = CallGraph::build(&ws, &table);
    let fi = |q: &str| {
        table.fns.iter().position(|f| f.qual() == q).unwrap_or_else(|| panic!("no fn {q}"))
    };
    let roots = vec![fi("Engine::run")];
    let hot = Hotness::build(&table, &graph, &roots);

    // Transitive heat: +1 per loop-carrying hop from the entry point.
    assert_eq!(hot.heat[fi("Engine::run")], Some(0));
    assert_eq!(hot.heat[fi("Engine::step")], Some(1));
    assert_eq!(hot.heat[fi("encode_word")], Some(2));
    assert_eq!(hot.heat[fi("apply")], Some(2));
    // Unreferenced code stays out of the hot set entirely.
    assert_eq!(hot.heat[fi("cold_setup")], None);

    // Loop-depth tracking: the allocation in encode_word is one loop
    // deep, and so is every call `step` makes from its replay loop.
    let depths: Vec<(&str, u32)> =
        graph.calls[fi("Engine::step")].iter().map(|s| (s.display.as_str(), s.depth)).collect();
    assert_eq!(depths, vec![("label", 1), ("enc::encode_word", 1), ("apply", 1)]);
    let alloc = graph.loops[fi("encode_word")]
        .sinks
        .iter()
        .find(|s| s.kind == SinkKind::Alloc && s.line == 4)
        .expect("Vec::with_capacity sink recorded");
    assert_eq!(alloc.depth, 1);
}

#[test]
fn clean_tree_is_green() {
    // Same shape, no sinks: the replay loop does arithmetic only.
    let clean = "pub struct Engine;\n\
                 impl Engine {\n\
                 \x20   pub fn run(&mut self) -> u64 {\n\
                 \x20       let mut acc = 0;\n\
                 \x20       for ev in 0..4 {\n\
                 \x20           acc += self.step(ev);\n\
                 \x20       }\n\
                 \x20       acc\n\
                 \x20   }\n\
                 \x20   fn step(&mut self, ev: u64) -> u64 {\n\
                 \x20       ev.wrapping_mul(3)\n\
                 \x20   }\n\
                 }\n";
    let diags = perf_diags(&[("crates/sim/src/lib.rs", "sim", clean)]);
    assert!(diags.is_empty(), "{diags:?}");
}

/// Render one standalone function whose body wraps a planted sink in
/// `depth` nested loops. None of these functions is ever called from
/// the entry point, so none may fire a PERF rule.
fn cold_fn(name: &str, depth: usize, sink: usize) -> String {
    let mut src = format!("pub fn f_{name}() {{\n");
    for i in 0..depth {
        src.push_str(&format!("    for i{i} in 0..4 {{\n"));
    }
    src.push_str(match sink % 4 {
        0 => "    let v: Vec<u64> = Vec::new();\n    drop(v);\n",
        1 => "    let s = String::new().clone();\n    drop(s);\n",
        2 => "    println!(\"tick\");\n",
        _ => "    let s = format!(\"x\");\n    drop(s);\n",
    });
    for _ in 0..depth {
        src.push_str("    }\n");
    }
    src.push_str("}\n");
    src
}

proptest! {
    /// Code outside the hot set never fires, no matter how many sinks
    /// it nests inside how many loops: hotness is reachability-rooted,
    /// not a syntactic sweep.
    #[test]
    fn cold_code_never_fires(specs in prop::collection::vec(0usize..12, 1..6)) {
        // Each spec packs (loop depth 0..3, sink kind 0..4).
        let fns: Vec<(String, (usize, usize))> = specs
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("c{i}"), (v % 3, v / 3)))
            .collect();
        let mut src = String::from(
            "pub struct Engine;\n\
             impl Engine {\n\
            \x20   pub fn run(&mut self) -> u64 {\n\
            \x20       let mut acc = 0;\n\
            \x20       for ev in 0..4 {\n\
            \x20           acc += ev;\n\
            \x20       }\n\
            \x20       acc\n\
            \x20   }\n\
             }\n",
        );
        for (name, (depth, sink)) in &fns {
            src.push_str(&cold_fn(name, *depth, *sink));
        }
        let diags = perf_diags(&[("crates/sim/src/lib.rs", "sim", &src)]);
        prop_assert!(diags.is_empty(), "cold sinks fired: {diags:?}\nsource:\n{src}");
    }
}
