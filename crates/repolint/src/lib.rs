//! repolint: the workspace analysis no compiler lint makes.
//!
//! The paper's evaluation is a grid of kernel × ECC-strategy cells, and it
//! only means something if every cell is bit-reproducible and no worker
//! panics mid-grid. rustc and clippy enforce that with type information:
//! the wall-clock and hash-container bans in `clippy.toml`, the panic lints
//! in the root manifest's `[workspace.lints]`, `float_cmp` in the ABFT
//! kernels, the print lints in the simulator crates, and a seeded-only
//! `rand` that defines no entropy source. That replay allocates per run
//! and never per event is measured, by the counting allocator of
//! `tests/alloc_budget.rs`. repolint checks the one thing that needs the
//! whole workspace at once, over a symbol table ([`symbols`]):
//!
//! - **API001** — no dead `pub` items (never referenced from another
//!   crate or another target: a binary, an example, a bench or an
//!   integration test — the crate's own unit tests do not count)
//!
//! Every finding is an error. A violation is suppressed per site with a
//! documented `repolint:allow(RULE) reason` line comment; a comment that
//! names no rule, or that no longer suppresses anything, is itself a
//! finding. `repolint.toml` sets only which paths to skip. See DESIGN.md
//! §3.12.

pub mod config;
pub mod diag;
pub mod rules;
pub mod source;
pub mod symbols;

use config::Config;
use diag::{sort_diags, Diagnostic};
use source::FileCtx;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// One parsed source file of the workspace.
#[derive(Debug)]
pub struct ParsedFile {
    /// Repo-relative path, forward slashes.
    pub rel: String,
    /// Cargo package name the file belongs to.
    pub crate_name: String,
    /// Parsed item tree + token stream.
    pub file: syn::File,
}

/// Every parsed file of the workspace: the input to the rules.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Parsed files, sorted by path.
    pub files: Vec<ParsedFile>,
}

impl Workspace {
    /// Build a workspace from in-memory sources (`(rel_path, crate_name,
    /// source)`); the fixture entry point for rule tests.
    #[cfg(test)]
    pub(crate) fn from_sources(sources: &[(&str, &str, &str)]) -> Result<Workspace, String> {
        let mut files = Vec::new();
        for (rel, crate_name, src) in sources {
            let file = syn::parse_file(src).map_err(|e| format!("{rel}:{e}"))?;
            files.push(ParsedFile {
                rel: (*rel).to_string(),
                crate_name: (*crate_name).to_string(),
                file,
            });
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace { files })
    }

    /// Walk the tree under `root` and parse every `.rs` file outside the
    /// configured excludes.
    pub fn load(root: &Path, cfg: &Config) -> Result<Workspace, String> {
        let mut paths = Vec::new();
        collect_rs_files(root, root, &cfg.excludes, &mut paths)?;
        paths.sort();
        let mut crate_names: BTreeMap<String, String> = BTreeMap::new();
        let mut files = Vec::new();
        for path in &paths {
            let rel = rel_path(root, path);
            let crate_name = crate_name_for(root, &rel, &mut crate_names)?;
            let src = fs::read_to_string(path).map_err(|e| format!("{rel}: {e}"))?;
            let file = syn::parse_file(&src).map_err(|e| format!("{rel}:{e}"))?;
            files.push(ParsedFile { rel, crate_name, file });
        }
        Ok(Workspace { files })
    }

    /// Run every rule over the workspace, then the check of the
    /// suppression comments themselves, in canonical order.
    pub fn lint(&self) -> Vec<Diagnostic> {
        let ctxs: Vec<FileCtx<'_>> =
            self.files.iter().map(|p| FileCtx::new(&p.rel, &p.file)).collect();
        let mut out = Vec::new();
        rules::run_semantic(self, &ctxs, &mut out);
        for ctx in &ctxs {
            rules::check_allows(ctx, &mut out);
        }
        sort_diags(&mut out);
        out
    }
}

/// Outcome of a workspace check.
#[derive(Debug)]
pub struct Report {
    /// The findings, in canonical order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many `.rs` files were linted.
    pub files: usize,
    /// Analysis wall-time (load + parse + all passes), milliseconds.
    pub analysis_ms: u128,
}

impl Report {
    /// True when the check should fail CI: any finding does.
    pub fn failed(&self) -> bool {
        !self.diagnostics.is_empty()
    }
}

/// Walk the workspace under `root` and lint every `.rs` file outside the
/// configured excludes.
pub fn check_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    #[expect(clippy::disallowed_methods, reason = "analysis wall-time is reporting-only metadata")]
    let started = std::time::Instant::now();
    let ws = Workspace::load(root, cfg)?;
    let diagnostics = ws.lint();
    Ok(Report { diagnostics, files: ws.files.len(), analysis_ms: started.elapsed().as_millis() })
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    excludes: &[String],
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = rel_path(root, &path);
        if rel.starts_with('.')
            || excludes.iter().any(|x| rel == *x || rel.starts_with(&format!("{x}/")))
        {
            continue;
        }
        let ty = entry.file_type().map_err(|e| format!("{rel}: {e}"))?;
        if ty.is_dir() {
            collect_rs_files(root, &path, excludes, out)?;
        } else if rel.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Resolve the Cargo package name owning a repo-relative file, caching
/// per manifest directory.
fn crate_name_for(
    root: &Path,
    rel: &str,
    cache: &mut BTreeMap<String, String>,
) -> Result<String, String> {
    let manifest_dir = if let Some(rest) = rel.strip_prefix("crates/") {
        let dir = rest.split('/').next().unwrap_or("");
        format!("crates/{dir}")
    } else {
        String::new()
    };
    if let Some(name) = cache.get(&manifest_dir) {
        return Ok(name.clone());
    }
    let manifest = root.join(&manifest_dir).join("Cargo.toml");
    let text = fs::read_to_string(&manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let mut name = None;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if in_package {
            if let Some(v) = line.strip_prefix("name") {
                if let Some(v) = v.trim().strip_prefix('=') {
                    name = Some(v.trim().trim_matches('"').to_string());
                    break;
                }
            }
        }
    }
    let name = name.ok_or_else(|| format!("{}: no [package] name found", manifest.display()))?;
    cache.insert(manifest_dir, name.clone());
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three dead pub fns on lines 3, 5 and 7 of a library file that
    /// nothing else reaches; `allows` fill lines 2, 4 and 6, each above
    /// one of them, and line 9 holds a live one.
    fn dead(allows: [&str; 3]) -> String {
        format!(
            "pub fn live() {{}}\n{}\npub fn a() {{}}\n{}\nfn private() {{}}\n{}\npub fn b() {{}}\n",
            allows[0], allows[1], allows[2]
        )
    }

    fn lint(sources: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
        Workspace::from_sources(sources).unwrap().lint()
    }

    #[test]
    fn an_allow_that_names_no_rule_is_a_finding() {
        let src = "fn f() -> u32 {\n    // repolint:allow(NOSUCH) typo for API001\n    1\n}\n";
        let diags = lint(&[("crates/memsim/src/x.rs", "abft-memsim", src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].rule, diags[0].line), ("ALLOW", 2));
        assert!(diags[0].message.contains("`repolint:allow(NOSUCH)` names no rule"), "{diags:?}");
    }

    #[test]
    fn an_allow_that_suppresses_nothing_is_a_finding() {
        // Line 3 is suppressed and stays quiet; the allow on line 4 sits
        // above a private fn, which API001 never reports; the one on line
        // 6 gives no reason, so it suppresses nothing and line 7 fires as
        // well.
        let src = dead([
            "// repolint:allow(API001) reached from a sibling package",
            "// repolint:allow(API001) was pub once",
            "// repolint:allow(API001)",
        ]);
        let diags = lint(&[
            ("crates/memsim/src/lib.rs", "abft-memsim", &src),
            ("crates/memsim/src/bin/tool.rs", "abft-memsim", "fn main() { live(); }\n"),
        ]);
        let got: Vec<(&str, usize)> = diags.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(got, vec![("ALLOW", 4), ("ALLOW", 6), ("API001", 7)], "{diags:?}");
        assert!(diags[0].message.contains("stale `repolint:allow(API001)`"), "{diags:?}");
        assert!(diags[0].message.contains("line 5"), "{diags:?}");
    }
}
