//! The determinism and panic gates are clippy lints, so they hold only
//! where clippy is told to check them: every library crate under
//! `crates/` inherits the root manifest's `[workspace.lints]`, and
//! `clippy.toml` bans the wall clock and the hash containers. A new or
//! edited crate that drops out of either fails here, not silently.

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

/// Packages under `crates/` that may leave the lints out: binaries only.
const EXEMPT: [&str; 1] = ["abft-bench"];

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
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
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut inheriting = Vec::new();
    for entry in fs::read_dir(&crates).expect("crates/") {
        let dir = entry.expect("dir entry").path();
        let manifest = dir.join("Cargo.toml");
        if !manifest.exists() {
            continue; // crates/compat holds vendored stand-ins, no package
        }
        let (name, inherits) = package(&fs::read_to_string(&manifest).expect("manifest"));
        assert!(
            inherits || EXEMPT.contains(&name.as_str()),
            "{}: `{name}` needs `[lints] workspace = true`",
            manifest.display()
        );
        if inherits {
            inheriting.push(name);
        }
    }
    for name in PRODUCT_CRATES {
        assert!(inheriting.iter().any(|n| n == name), "no crate `{name}` inherits the lints");
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
