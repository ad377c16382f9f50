//! End-to-end checks against a scratch mini-workspace on disk: the walk
//! and its excludes, and the hard error on a config section no rule
//! reads.

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

#[test]
fn a_leftover_rule_section_is_a_hard_error() {
    // An older repolint.toml configured the retired loop-heat rules; the
    // CLI must refuse it by name (exit 2), not lint as if it applied.
    let ws = Scratch::new("leftover");
    ws.write("Cargo.toml", MANIFEST);
    ws.write("crates/demo/Cargo.toml", MANIFEST);
    ws.write("crates/demo/src/lib.rs", "pub fn f() {}\n");
    ws.write(
        "repolint.toml",
        "[run]\nexclude = [\"target\"]\n\n[rules.PERF001]\nentry_points = [\"Machine::simulate\"]\n",
    );
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repolint"))
        .args(["check", "--root"])
        .arg(&ws.root)
        .output()
        .expect("repolint runs");
    assert_eq!(out.status.code(), Some(2), "exit status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 4: unknown section [rules.PERF001]"), "{stderr}");
}
