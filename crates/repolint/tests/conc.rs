//! CONC001–CONC004 behavioral contract over a seeded two-crate fixture:
//! a cross-crate lock-order cycle, a guard held across `mpsc::recv`
//! (directly) and across a channel send (through a callee), an `Rc` and
//! a `static mut` reachable from `thread::spawn`, and a leaked
//! `JoinHandle` — each asserting the exact rule, file:line, and
//! reconstructed call chain. Plus a clean-tree green case.

use repolint::config::Config;
use repolint::diag::Diagnostic;
use repolint::Workspace;

fn conc_diags(sources: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
    let ws = Workspace::from_sources(sources).expect("fixture parses");
    ws.lint(&Config::default())
        .expect("lint")
        .into_iter()
        .filter(|d| d.rule.starts_with("CONC"))
        .collect()
}

/// The seeded-bug crate pair. Line numbers are load-bearing — the
/// assertions below name them.
const SVC: &str = "pub fn ab() {\n\
                   \x20   let g = state_a.lock();\n\
                   \x20   util::grab_b();\n\
                   \x20   drop(g);\n\
                   }\n\
                   pub fn grab_a() {\n\
                   \x20   let g = state_a.lock();\n\
                   \x20   drop(g);\n\
                   }\n\
                   pub fn pump() {\n\
                   \x20   let g = chan.lock();\n\
                   \x20   let v = g.recv();\n\
                   \x20   drop(v);\n\
                   }\n\
                   pub fn publish() {\n\
                   \x20   let g = state_a.lock();\n\
                   \x20   notify();\n\
                   \x20   drop(g);\n\
                   }\n\
                   fn notify() {\n\
                   \x20   let _ = events.send(1);\n\
                   }\n\
                   pub fn start_worker() {\n\
                   \x20   let h = std::thread::spawn(|| {\n\
                   \x20       let cache = std::rc::Rc::new(1);\n\
                   \x20       drop(cache);\n\
                   \x20       helper();\n\
                   \x20   });\n\
                   \x20   let _ = h.join();\n\
                   }\n\
                   fn helper() -> u64 {\n\
                   \x20   unsafe { COUNTER }\n\
                   }\n\
                   static mut COUNTER: u64 = 0;\n\
                   pub fn detach() {\n\
                   \x20   let _ = std::thread::spawn(|| tick());\n\
                   }\n\
                   fn tick() {}\n";

const UTIL: &str = "pub fn grab_b() {\n\
                    \x20   let h = state_b.lock();\n\
                    \x20   drop(h);\n\
                    }\n\
                    pub fn ba() {\n\
                    \x20   let h = state_b.lock();\n\
                    \x20   svc::grab_a();\n\
                    \x20   drop(h);\n\
                    }\n";

fn seeded() -> Vec<Diagnostic> {
    conc_diags(&[("crates/svc/src/lib.rs", "svc", SVC), ("crates/util/src/lib.rs", "util", UTIL)])
}

#[test]
fn conc001_guard_across_direct_recv() {
    let diags = seeded();
    let d = diags
        .iter()
        .find(|d| d.rule == "CONC001" && d.path == "crates/svc/src/lib.rs" && d.line == 12)
        .unwrap_or_else(|| panic!("no direct-recv CONC001: {diags:?}"));
    assert!(d.message.contains("guard on `svc/chan`"), "{}", d.message);
    assert!(d.message.contains("acquired at crates/svc/src/lib.rs:11"), "{}", d.message);
    assert!(d.message.contains("`.recv`"), "{}", d.message);
}

#[test]
fn conc001_guard_across_transitive_send_reports_chain() {
    let diags = seeded();
    let d = diags
        .iter()
        .find(|d| d.rule == "CONC001" && d.path == "crates/svc/src/lib.rs" && d.line == 17)
        .unwrap_or_else(|| panic!("no transitive-send CONC001: {diags:?}"));
    assert!(d.message.contains("guard on `svc/state_a`"), "{}", d.message);
    assert!(d.message.contains("acquired at crates/svc/src/lib.rs:16"), "{}", d.message);
    assert!(
        d.message.contains("`publish` -> `notify` (called at crates/svc/src/lib.rs:17)"),
        "{}",
        d.message
    );
    assert!(d.message.contains("`.send` (crates/svc/src/lib.rs:21)"), "{}", d.message);
}

#[test]
fn conc002_cross_crate_lock_order_cycle() {
    let diags = seeded();
    let cyc: Vec<_> = diags.iter().filter(|d| d.rule == "CONC002").collect();
    assert_eq!(cyc.len(), 1, "one cycle knot expected: {diags:?}");
    let d = cyc[0];
    // Anchored at the first witness of the canonical (min-node) edge:
    // `ab` holding state_a while calling into util::grab_b.
    assert_eq!((d.path.as_str(), d.line), ("crates/svc/src/lib.rs", 3));
    assert!(d.message.contains("lock-order cycle"), "{}", d.message);
    assert!(
        d.message.contains(
            "`svc/state_a` -> `util/state_b` \
             (acquired via `grab_b` called at crates/svc/src/lib.rs:3 in `ab`)"
        ),
        "{}",
        d.message
    );
    assert!(
        d.message.contains(
            "-> `svc/state_a` (acquired via `grab_a` called at crates/util/src/lib.rs:7 in `ba`)"
        ),
        "{}",
        d.message
    );
}

#[test]
fn conc003_rc_in_spawned_closure() {
    let diags = seeded();
    let d = diags
        .iter()
        .find(|d| d.rule == "CONC003" && d.line == 25)
        .unwrap_or_else(|| panic!("no Rc::new CONC003: {diags:?}"));
    assert_eq!(d.path, "crates/svc/src/lib.rs");
    assert!(d.message.contains("Rc::new"), "{}", d.message);
    assert!(d.message.contains("`start_worker` (spawn site)"), "{}", d.message);
}

#[test]
fn conc003_static_mut_behind_a_call() {
    let diags = seeded();
    let d = diags
        .iter()
        .find(|d| d.rule == "CONC003" && d.line == 32)
        .unwrap_or_else(|| panic!("no static-mut CONC003: {diags:?}"));
    assert_eq!(d.path, "crates/svc/src/lib.rs");
    assert!(d.message.contains("static mut `COUNTER`"), "{}", d.message);
    assert!(
        d.message.contains(
            "`start_worker` (spawn site) -> `helper` (called at crates/svc/src/lib.rs:27)"
        ),
        "{}",
        d.message
    );
}

#[test]
fn conc004_leaked_join_handle() {
    let diags = seeded();
    let d = diags
        .iter()
        .find(|d| d.rule == "CONC004")
        .unwrap_or_else(|| panic!("no CONC004: {diags:?}"));
    assert_eq!((d.path.as_str(), d.line), ("crates/svc/src/lib.rs", 36));
    assert!(d.message.contains("JoinHandle is discarded"), "{}", d.message);
    // The joined spawn in start_worker must NOT fire.
    assert_eq!(diags.iter().filter(|d| d.rule == "CONC004").count(), 1, "{diags:?}");
}

#[test]
fn seeded_fixture_has_no_other_conc_findings() {
    let diags = seeded();
    // Exactly the five seeded bugs (two CONC001, one CONC002, two
    // CONC003, one CONC004) — nothing else.
    let mut got: Vec<_> = diags.iter().map(|d| (d.rule, d.line)).collect();
    got.sort_unstable();
    assert_eq!(
        got,
        vec![
            ("CONC001", 12),
            ("CONC001", 17),
            ("CONC002", 3),
            ("CONC003", 25),
            ("CONC003", 32),
            ("CONC004", 36)
        ],
        "{diags:?}"
    );
}

#[test]
fn well_scoped_tree_is_green() {
    let diags = conc_diags(&[(
        "crates/svc/src/lib.rs",
        "svc",
        "pub fn tidy() {\n\
         \x20   let n = {\n\
         \x20       let g = buf.lock();\n\
         \x20       g.count()\n\
         \x20   };\n\
         \x20   let _ = events.send(n);\n\
         }\n\
         pub fn run_pool() {\n\
         \x20   let h = std::thread::spawn(|| tick());\n\
         \x20   let _ = h.join();\n\
         }\n\
         fn tick() {}\n",
    )]);
    assert!(diags.is_empty(), "clean tree must stay green: {diags:?}");
}
