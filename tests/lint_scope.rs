//! The determinism, panic and print gates are clippy lints, so they hold
//! only where clippy is told to check them: every package — the root one
//! and each under `crates/` — inherits the root manifest's
//! `[workspace.lints]`, `clippy.toml` bans the wall clock and the hash
//! containers, and the simulator crates deny printing. A new or edited
//! crate that drops out of any of them fails here, not silently.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside `#[test]` fns: a missing or malformed manifest should fail the test"
)]

use std::fs;
use std::path::Path;

/// The crates whose library code the campaign grid runs on.
const PRODUCT_CRATES: [&str; 9] = [
    "abft-memsim",
    "abft-faultsim",
    "abft-coop-core",
    "abft-coop-runtime",
    "abft-dgms",
    "abft-ecc",
    "abft-linalg",
    "abft-kernels",
    "abft-analysis",
];

/// The simulator crates, whose library code returns data and never
/// prints: the directories under `crates/` whose `lib.rs` must deny it.
const SILENT_CRATES: [&str; 4] = ["memsim", "ecc", "dgms", "faultsim"];

fn read(rel: &str) -> String {
    fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)).expect(rel)
}

/// The `[package]` name of a manifest, and whether it has `[lints]
/// workspace = true`.
fn package(manifest: &str) -> (String, bool) {
    let mut section = "";
    let mut name = None;
    let mut inherits = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if let Some((key, value)) = line.split_once('=') {
            match (section, key.trim(), value.trim()) {
                ("[package]", "name", v) => name = Some(v.trim_matches('"').to_string()),
                ("[lints]", "workspace", "true") => inherits = true,
                _ => {}
            }
        }
    }
    (name.expect("a [package] name"), inherits)
}

#[test]
fn every_library_crate_inherits_the_workspace_lints() {
    let mut manifests = vec!["Cargo.toml".to_string()];
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    for entry in fs::read_dir(&crates).expect("crates/") {
        let dir = entry.expect("dir entry").file_name().to_string_lossy().into_owned();
        if crates.join(&dir).join("Cargo.toml").exists() {
            // crates/compat holds vendored stand-ins, no package.
            manifests.push(format!("crates/{dir}/Cargo.toml"));
        }
    }
    let mut inheriting = Vec::new();
    for manifest in &manifests {
        let (name, inherits) = package(&read(manifest));
        assert!(inherits, "{manifest}: `{name}` needs `[lints] workspace = true`");
        inheriting.push(name);
    }
    for name in PRODUCT_CRATES.iter().chain(&["abft-coop", "abft-bench"]) {
        assert!(inheriting.iter().any(|n| n == name), "no package `{name}` inherits the lints");
    }

    let root = read("Cargo.toml");
    let table = root.split("[workspace.lints.clippy]").nth(1).expect("[workspace.lints.clippy]");
    let table = table.split("\n[").next().unwrap_or_default();
    for lint in ["unwrap_used", "expect_used", "panic", "todo", "unimplemented"] {
        assert!(table.contains(&format!("\n{lint} = \"deny\"")), "{lint} is not denied");
    }
}

#[test]
fn clippy_toml_bans_the_wall_clock_and_the_hash_containers() {
    let clippy = read("clippy.toml");
    for (list, path) in [
        ("disallowed-methods", "std::time::Instant::now"),
        ("disallowed-methods", "std::time::SystemTime::now"),
        ("disallowed-types", "std::collections::HashMap"),
        ("disallowed-types", "std::collections::HashSet"),
    ] {
        let entries = clippy.split(&format!("{list} = [")).nth(1).expect(list);
        let entries = &entries[..entries.find("\n]").expect("closing bracket")];
        assert!(entries.contains(&format!("path = \"{path}\"")), "{list} does not ban {path}");
    }
}

#[test]
fn the_simulator_crates_deny_printing() {
    for dir in SILENT_CRATES {
        let lib = format!("crates/{dir}/src/lib.rs");
        let denies = read(&lib)
            .lines()
            .any(|l| l.trim() == "#![deny(clippy::print_stdout, clippy::print_stderr)]");
        assert!(denies, "{lib} must deny clippy::print_stdout and clippy::print_stderr");
    }
}
