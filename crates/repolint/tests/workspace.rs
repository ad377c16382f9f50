//! End-to-end checks against a scratch mini-workspace on disk: the walk
//! and its excludes, and the hard error on a config-listed entry point or
//! crate that names nothing.

#![expect(
    clippy::expect_used,
    reason = "fixture helpers outside `#[test]` fns: a broken fixture should fail the test"
)]

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
/// `orphan` has no caller in any other crate or target (API001).
const DIRTY: &str =
    "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\npub fn orphan() {}\n";
/// Binary consumer so the fixtures' other pub fns have a caller.
const USER: &str = "fn main() {\n    let _ = demo::f(Some(1));\n}\n";
/// A dead pub fn the walk must never reach.
const EXCLUDED: &str = "pub fn orphan() {}\n";

#[test]
fn walks_excludes_and_reports() {
    let ws = Scratch::new("walk");
    ws.write("Cargo.toml", MANIFEST);
    ws.write("crates/demo/Cargo.toml", MANIFEST);
    ws.write("crates/demo/src/lib.rs", DIRTY);
    ws.write("crates/demo/src/bin/tool.rs", USER);
    ws.write("crates/compat/fake/src/lib.rs", EXCLUDED);
    ws.write("target/debug/build/gen.rs", EXCLUDED);

    let report = check_workspace(&ws.root, &Config::default()).expect("check");
    assert_eq!(report.files, 2, "compat and target are excluded");
    assert_eq!(report.diagnostics.len(), 1);
    let d = &report.diagnostics[0];
    assert_eq!((d.rule, d.path.as_str(), d.line), ("API001", "crates/demo/src/lib.rs", 4));
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

/// A campaign crate whose entry point reaches `fold` through `tally`.
fn campaign_ws(tag: &str) -> Scratch {
    let ws = Scratch::new(tag);
    ws.write("Cargo.toml", MANIFEST);
    ws.write("crates/core/Cargo.toml", "[package]\nname = \"demo-core\"\n");
    ws.write(
        "crates/core/src/lib.rs",
        "pub struct CampaignClient;\n\
         impl CampaignClient {\n\
         \x20   pub fn run(&self) { tally(); }\n\
         }\n\
         fn tally() { fold(); }\n\
         fn fold() {}\n",
    );
    ws
}

/// Run the CLI over `ws`, expecting a hard error (exit 2); its stderr.
fn cli_hard_error(ws: &Scratch) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repolint"))
        .args(["check", "--root"])
        .arg(&ws.root)
        .output()
        .expect("repolint runs");
    assert_eq!(out.status.code(), Some(2), "exit status {:?}", out.status);
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_config_listed_entry_point_that_matches_nothing_is_a_hard_error() {
    let ws = campaign_ws("stale");

    // The pre-rename name: without the check the PERF rules would lose
    // their only root and have nothing to call hot.
    let stale = "[rules.PERF001]\nentry_points = [\"Campaign::run\"]\n";
    let err = check_workspace(&ws.root, &Config::parse(stale).expect("parses"))
        .expect_err("a stale entry point must not lint as clean");
    assert!(err.contains("PERF001") && err.contains("`Campaign::run`"), "{err}");

    // Through the CLI the same config exits 2, naming both.
    ws.write("repolint.toml", stale);
    let stderr = cli_hard_error(&ws);
    assert!(stderr.contains("PERF001") && stderr.contains("`Campaign::run`"), "{stderr}");

    // Listing the name the function really has resolves.
    let live = "[rules.PERF001]\nentry_points = [\"CampaignClient::run\"]\n";
    check_workspace(&ws.root, &Config::parse(live).expect("parses"))
        .expect("a live entry point lints");
}

#[test]
fn a_config_listed_crate_that_matches_no_package_is_a_hard_error() {
    let ws = campaign_ws("crate");

    // A renamed package: without the check it would silently leave the
    // PERF rules' scope.
    let stale = "[rules.PERF001]\ncrates = [\"demo-campaign\"]\n";
    let err = check_workspace(&ws.root, &Config::parse(stale).expect("parses"))
        .expect_err("a stale crate name must not lint as clean");
    assert!(err.contains("PERF001") && err.contains("`demo-campaign`"), "{err}");

    ws.write("repolint.toml", stale);
    let stderr = cli_hard_error(&ws);
    assert!(stderr.contains("PERF001") && stderr.contains("`demo-campaign`"), "{stderr}");

    let live = "[rules.PERF001]\ncrates = [\"demo-core\"]\n";
    check_workspace(&ws.root, &Config::parse(live).expect("parses")).expect("a live crate lints");
}
