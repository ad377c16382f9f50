//! Property tests for the guard-liveness tracker: random programs of
//! nested lock scopes, early `drop(guard)`, shadowed rebinds, block
//! expressions and temporaries are rendered to source, and the
//! tracker's notion of "which guards are live at this call" is checked
//! against an independent reference interpreter at every probe point.
//!
//! The CONC001 contract rides on top: re-rendering the same program
//! with a blocking `ch.recv()` at every probe point where the reference
//! model says *no* guard is live must produce zero CONC001 findings.

use proptest::prelude::*;
use repolint::config::Config;
use repolint::guards;
use repolint::Workspace;

/// One randomly generated program plus its reference liveness model.
struct Program {
    /// Body lines (the `fn f() {` header is line 1, so body line `i`
    /// is source line `i + 2`).
    lines: Vec<String>,
    /// Probe points: `(source line, sorted live-lock multiset)`.
    probes: Vec<(usize, Vec<String>)>,
}

fn build(kinds: &[u8], which: &[u8]) -> Program {
    let mut lines: Vec<String> = Vec::new();
    let mut live: Vec<(String, String)> = Vec::new(); // (binding, lock)
    let mut scopes: Vec<usize> = Vec::new();
    let mut probes = Vec::new();
    let mut probe_n = 0usize;
    let pick = |i: usize| which[i % which.len()] as usize;

    let probe = |lines: &mut Vec<String>,
                 live: &[(String, String)],
                 probes: &mut Vec<(usize, Vec<String>)>,
                 probe_n: &mut usize| {
        lines.push(format!("probe{probe_n}();",));
        let mut locks: Vec<String> = live.iter().map(|(_, l)| l.clone()).collect();
        locks.sort_unstable();
        probes.push((lines.len() + 1, locks));
        *probe_n += 1;
    };

    for (i, kind) in kinds.iter().enumerate() {
        match kind % 6 {
            0 => {
                // Shadowing-prone `let` acquisition: three binding names
                // over three locks.
                let name = format!("g{}", pick(i) % 3);
                let lock = format!("l{}", pick(i + 1) % 3);
                lines.push(format!("let {name} = {lock}.lock();"));
                live.push((name, format!("t/{lock}")));
            }
            1 => {
                // Early drop of the newest binding with this name; a
                // no-op (in both model and tracker) when unbound.
                let name = format!("g{}", pick(i) % 3);
                lines.push(format!("drop({name});"));
                if let Some(p) = live.iter().rposition(|(b, _)| *b == name) {
                    live.remove(p);
                }
            }
            2 => {
                if scopes.len() < 4 {
                    lines.push("{".to_string());
                    scopes.push(live.len());
                } else {
                    probe(&mut lines, &live, &mut probes, &mut probe_n);
                }
            }
            3 => {
                if let Some(base) = scopes.pop() {
                    lines.push("}".to_string());
                    live.truncate(base);
                } else {
                    probe(&mut lines, &live, &mut probes, &mut probe_n);
                }
            }
            4 => probe(&mut lines, &live, &mut probes, &mut probe_n),
            _ => {
                // Unbound temporary: the guard dies at the end of its
                // own statement, before any probe can see it.
                lines.push(format!("l{}.lock();", pick(i) % 3));
            }
        }
    }
    while let Some(base) = scopes.pop() {
        lines.push("}".to_string());
        live.truncate(base);
    }
    Program { lines, probes }
}

fn render(lines: &[String]) -> String {
    format!("fn f() {{\n{}\n}}\n", lines.join("\n"))
}

/// Tracker-reported live-lock multiset at a probe call.
fn tracker_live_at(fc: &guards::FnConc, probe: usize, line: usize) -> Vec<String> {
    let display = format!("probe{probe}");
    let mut locks: Vec<String> = fc
        .regions
        .iter()
        .filter(|r| r.uses.iter().any(|u| u.display == display && u.line == line))
        .map(|r| r.lock.clone())
        .collect();
    locks.sort_unstable();
    locks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tracker_matches_reference_interpreter(
        kinds in prop::collection::vec(0..6u8, 1..40),
        which in prop::collection::vec(0..9u8, 1..40),
    ) {
        let prog = build(&kinds, &which);
        let src = render(&prog.lines);
        let file = syn::parse_file(&src).expect("generated program parses");
        let item = file
            .items
            .iter()
            .find(|i| i.kind == syn::ItemKind::Fn)
            .expect("generated fn");
        let (lo, hi) = item.body.expect("generated body");
        let fc = guards::analyze_body("t", &file.tokens, lo, hi);
        for (k, (line, expected)) in prog.probes.iter().enumerate() {
            let got = tracker_live_at(&fc, k, *line);
            prop_assert!(
                &got == expected,
                "probe{k} at line {line}: tracker {got:?} vs reference {expected:?}\nsource:\n{src}"
            );
        }
    }

    #[test]
    fn no_false_conc001_outside_live_regions(
        kinds in prop::collection::vec(0..6u8, 1..40),
        which in prop::collection::vec(0..9u8, 1..40),
    ) {
        let prog = build(&kinds, &which);
        // Blocking calls at exactly the probe points where no guard is
        // live; probes under a live guard stay inert calls.
        let mut lines = prog.lines.clone();
        let mut recv_lines = Vec::new();
        for (k, (line, expected)) in prog.probes.iter().enumerate() {
            if expected.is_empty() {
                lines[line - 2] = "ch.recv();".to_string();
                recv_lines.push(*line);
            } else {
                // Keep line numbering identical either way.
                lines[line - 2] = format!("probe{k}();");
            }
        }
        let src = render(&lines);
        let ws = Workspace::from_sources(&[("crates/t/src/lib.rs", "t", &src)])
            .expect("generated program parses");
        let conc001: Vec<_> =
            ws.lint(&Config::default()).expect("lint").into_iter().filter(|d| d.rule == "CONC001").collect();
        prop_assert!(
            conc001.is_empty(),
            "blocking calls at {recv_lines:?} are all outside live regions, \
             but CONC001 fired: {conc001:?}\nsource:\n{src}"
        );
    }
}
