//! Acceptance check for DET004: injecting a synthetic `Instant::now()`
//! two calls below `CampaignClient::run` into an otherwise-clean scratch
//! workspace must produce a diagnostic naming the full call chain, and
//! removing the injection must return the tree to green. Roots are
//! matched by name, so a config file that lists an entry point no
//! function answers to must stop the run instead of checking nothing.

use repolint::baseline::Baseline;
use repolint::check_workspace;
use repolint::config::Config;
use std::fs;
use std::path::PathBuf;

struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root =
            std::env::temp_dir().join(format!("repolint-det004-{}-{tag}", std::process::id()));
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

const CLEAN_HELPERS: &str = "fn tally() { fold(); }\nfn fold() {}\n";
const DIRTY_HELPERS: &str =
    "fn tally() { fold(); }\nfn fold() { let _t = std::time::Instant::now(); }\n";

fn campaign_crate(helpers: &str) -> String {
    format!(
        "pub struct CampaignClient;\n\
         impl CampaignClient {{\n\
         \x20   pub fn run(&self) {{ tally(); }}\n\
         }}\n\
         {helpers}"
    )
}

fn check(ws: &Scratch) -> repolint::Report {
    check_workspace(&ws.root, &Config::default(), &Baseline::default()).expect("check runs")
}

#[test]
fn injected_entropy_two_calls_below_the_entry_point_is_chained() {
    let ws = Scratch::new("dirty");
    ws.write("Cargo.toml", "[package]\nname = \"demo\"\n");
    ws.write("crates/core/Cargo.toml", "[package]\nname = \"demo-core\"\n");
    ws.write("crates/core/src/lib.rs", &campaign_crate(DIRTY_HELPERS));

    let report = check(&ws);
    let det: Vec<_> = report.diagnostics.iter().filter(|d| d.rule == "DET004").collect();
    assert_eq!(det.len(), 1, "{:?}", report.diagnostics);
    let d = det[0];
    assert!(report.failed());
    assert_eq!((d.path.as_str(), d.line), ("crates/core/src/lib.rs", 6));
    // The chain names every hop from the entry point to the sink, with
    // the call sites that connect them.
    for hop in ["`CampaignClient::run`", "`tally`", "`fold`", "`Instant::now`"] {
        assert!(d.message.contains(hop), "missing {hop} in: {}", d.message);
    }
    assert!(
        d.message.contains("crates/core/src/lib.rs:5"),
        "chain must cite the call site reaching fold: {}",
        d.message
    );
}

#[test]
fn the_same_tree_without_the_injection_is_green() {
    let ws = Scratch::new("clean");
    ws.write("Cargo.toml", "[package]\nname = \"demo\"\n");
    ws.write("crates/core/Cargo.toml", "[package]\nname = \"demo-core\"\n");
    ws.write("crates/core/src/lib.rs", &campaign_crate(CLEAN_HELPERS));

    let report = check(&ws);
    assert!(report.diagnostics.iter().all(|d| d.rule != "DET004"), "{:?}", report.diagnostics);
}

#[test]
fn a_config_listed_entry_point_that_matches_nothing_is_a_hard_error() {
    let ws = Scratch::new("stale");
    ws.write("Cargo.toml", "[package]\nname = \"demo\"\n");
    ws.write("crates/core/Cargo.toml", "[package]\nname = \"demo-core\"\n");
    ws.write("crates/core/src/lib.rs", &campaign_crate(DIRTY_HELPERS));

    // The pre-rename name: without the check DET004 would lose its only
    // root and report the dirty tree as clean.
    let stale = "[rules.DET004]\nentry_points = [\"Campaign::run\"]\n";
    let err =
        check_workspace(&ws.root, &Config::parse(stale).expect("parses"), &Baseline::default())
            .expect_err("a stale entry point must not lint as clean");
    assert!(err.contains("DET004") && err.contains("`Campaign::run`"), "{err}");

    // Through the CLI the same config exits non-zero, naming both.
    ws.write("repolint.toml", stale);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repolint"))
        .args(["check", "--root"])
        .arg(&ws.root)
        .output()
        .expect("repolint runs");
    assert!(!out.status.success(), "exit status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DET004") && stderr.contains("`Campaign::run`"), "{stderr}");

    // Listing the name the function really has resolves, and finds the sink.
    let live = "[rules.DET004]\nentry_points = [\"CampaignClient::run\"]\n";
    let report =
        check_workspace(&ws.root, &Config::parse(live).expect("parses"), &Baseline::default())
            .expect("a live entry point lints");
    assert!(report.diagnostics.iter().any(|d| d.rule == "DET004"), "{:?}", report.diagnostics);
}
