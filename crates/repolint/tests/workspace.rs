//! End-to-end checks against a scratch mini-workspace on disk: the walk
//! and its excludes, DET002 below an entry point, and the hard error on
//! a config-listed entry point that names nothing.

use repolint::check_workspace;
use repolint::config::Config;
use std::fs;
use std::path::PathBuf;

struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!("repolint-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("scratch root");
        Scratch { root }
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, text).expect("write");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const MANIFEST: &str = "[package]\nname = \"demo\"\n";
const DIRTY: &str = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
/// Binary consumer so the fixtures' pub fns have a caller (API001).
const USER: &str = "fn main() {\n    let _ = demo::f(Some(1));\n    let _ = demo::g;\n}\n";

#[test]
fn walks_excludes_and_reports() {
    let ws = Scratch::new("walk");
    ws.write("Cargo.toml", MANIFEST);
    ws.write("crates/demo/Cargo.toml", MANIFEST);
    ws.write("crates/demo/src/lib.rs", DIRTY);
    ws.write("crates/demo/src/bin/tool.rs", USER);
    ws.write("crates/compat/fake/src/lib.rs", "pub fn f() { None::<u32>.unwrap(); }\n");
    ws.write("target/debug/build/gen.rs", "pub fn f() { None::<u32>.unwrap(); }\n");

    let report = check_workspace(&ws.root, &Config::default()).expect("check");
    assert_eq!(report.files, 2, "compat and target are excluded");
    assert_eq!(report.diagnostics.len(), 1);
    let d = &report.diagnostics[0];
    assert_eq!((d.rule, d.path.as_str(), d.line), ("PANIC001", "crates/demo/src/lib.rs", 2));
    assert!(report.failed());
}

#[test]
fn clean_tree_passes() {
    let ws = Scratch::new("clean");
    ws.write("Cargo.toml", MANIFEST);
    ws.write("crates/demo/Cargo.toml", MANIFEST);
    ws.write(
        "crates/demo/src/lib.rs",
        "pub fn f(x: Option<u32>) -> Result<u32, ()> {\n    x.ok_or(())\n}\n",
    );
    ws.write("crates/demo/src/bin/tool.rs", USER);
    let report = check_workspace(&ws.root, &Config::default()).expect("check");
    assert!(!report.failed());
    assert!(report.diagnostics.is_empty());
}

const CLEAN_HELPERS: &str = "fn tally() { fold(); }\nfn fold() {}\n";
const DIRTY_HELPERS: &str = "fn tally() { fold(); }\n\
                             fn fold() { let _t = std::time::Instant::now(); }\n\
                             pub fn orphan() { let _t = std::time::Instant::now(); }\n";

/// A campaign crate whose entry point reaches `fold` through `tally`.
fn campaign_ws(tag: &str, helpers: &str) -> Scratch {
    let ws = Scratch::new(tag);
    ws.write("Cargo.toml", MANIFEST);
    ws.write("crates/core/Cargo.toml", "[package]\nname = \"demo-core\"\n");
    ws.write(
        "crates/core/src/lib.rs",
        &format!(
            "pub struct CampaignClient;\n\
             impl CampaignClient {{\n\
             \x20   pub fn run(&self) {{ tally(); }}\n\
             }}\n\
             {helpers}"
        ),
    );
    ws
}

#[test]
fn a_wall_clock_read_is_a_finding_whether_or_not_an_entry_point_reaches_it() {
    // One `Instant::now()` two calls below `CampaignClient::run`, one in
    // a function nothing calls: DET002 needs no roots, so it sees both.
    let ws = campaign_ws("dirty", DIRTY_HELPERS);
    let report = check_workspace(&ws.root, &Config::default()).expect("check runs");
    let det: Vec<(&str, usize)> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "DET002")
        .map(|d| (d.path.as_str(), d.line))
        .collect();
    assert_eq!(
        det,
        vec![("crates/core/src/lib.rs", 6), ("crates/core/src/lib.rs", 7)],
        "{:?}",
        report.diagnostics
    );
    assert!(report.failed());

    let ws = campaign_ws("undirty", CLEAN_HELPERS);
    let report = check_workspace(&ws.root, &Config::default()).expect("check runs");
    assert!(report.diagnostics.iter().all(|d| d.rule != "DET002"), "{:?}", report.diagnostics);
}

#[test]
fn a_config_listed_entry_point_that_matches_nothing_is_a_hard_error() {
    let ws = campaign_ws("stale", CLEAN_HELPERS);

    // The pre-rename name: without the check the PERF rules would lose
    // their only root and have nothing to call hot.
    let stale = "[rules.PERF001]\nentry_points = [\"Campaign::run\"]\n";
    let err = check_workspace(&ws.root, &Config::parse(stale).expect("parses"))
        .expect_err("a stale entry point must not lint as clean");
    assert!(err.contains("PERF001") && err.contains("`Campaign::run`"), "{err}");

    // Through the CLI the same config exits 2, naming both.
    ws.write("repolint.toml", stale);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repolint"))
        .args(["check", "--root"])
        .arg(&ws.root)
        .output()
        .expect("repolint runs");
    assert_eq!(out.status.code(), Some(2), "exit status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("PERF001") && stderr.contains("`Campaign::run`"), "{stderr}");

    // Listing the name the function really has resolves.
    let live = "[rules.PERF001]\nentry_points = [\"CampaignClient::run\"]\n";
    check_workspace(&ws.root, &Config::parse(live).expect("parses"))
        .expect("a live entry point lints");
}
