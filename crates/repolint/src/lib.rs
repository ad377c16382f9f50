//! repolint: a syn-based lint engine for this workspace.
//!
//! The paper's evaluation (and PR 1's bit-identical parallel-vs-serial
//! campaign promise) only means something if simulation results are
//! reproducible. repolint turns the conventions that promise rests on
//! into machine-checked rules:
//!
//! - **DET001** — no nondeterministic RNG (`thread_rng`, `from_entropy`)
//! - **DET002** — no wall-clock reads in simulation library code
//! - **DET003** — no `HashMap`/`HashSet` iteration feeding ordered
//!   output or statistics aggregation
//! - **PANIC001** — no `unwrap`/`expect`/`panic!` in library crates
//! - **FP001** — no exact `f64` equality in checksum/verify code
//!
//! On top of the per-file rules sits a *semantic* layer built from a
//! workspace-wide symbol table ([`symbols`]) and a call graph
//! ([`callgraph`]) resolved from one token scan per function body
//! ([`hotness`]):
//!
//! - **API001** — no dead `pub` items (never referenced from another
//!   crate or another target: a binary, an example, a bench or an
//!   integration test — the crate's own unit tests do not count)
//! - **PERF001–PERF004** — no allocation, clone or `dyn` dispatch in a
//!   loop reachable from a replay entry point, and no formatted output
//!   anywhere reachable; the diagnostic carries the hot call chain
//!
//! Every finding is an error. A violation is suppressed per site with a
//! documented `repolint:allow(RULE) reason` line comment; a comment that
//! names no rule, or that no longer suppresses anything, is itself a
//! finding. Scoping lives in `repolint.toml`. See DESIGN.md §3.12.

pub mod callgraph;
pub mod config;
pub mod diag;
pub mod hotness;
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

/// Every parsed file of the workspace: the input to both the per-file
/// rules and the semantic (symbol-graph) passes.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Parsed files, sorted by path.
    pub files: Vec<ParsedFile>,
}

impl Workspace {
    /// Build a workspace from in-memory sources (`(rel_path, crate_name,
    /// source)`); the fixture entry point for semantic-rule tests.
    pub fn from_sources(sources: &[(&str, &str, &str)]) -> Result<Workspace, String> {
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

    /// Run every rule (per-file and semantic) over the workspace, then
    /// the check of the suppression comments themselves, in canonical
    /// order. Fails on a config-listed entry point that names no
    /// function (see [`rules::run_semantic`]).
    pub fn lint(&self, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
        let ctxs: Vec<FileCtx<'_>> =
            self.files.iter().map(|p| FileCtx::new(&p.rel, &p.crate_name, &p.file)).collect();
        let mut out = Vec::new();
        for ctx in &ctxs {
            rules::run_all(ctx, cfg, &mut out);
        }
        rules::run_semantic(self, &ctxs, cfg, &mut out)?;
        for ctx in &ctxs {
            rules::check_allows(ctx, cfg, true, &mut out);
        }
        sort_diags(&mut out);
        Ok(out)
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
    // repolint:allow(DET002) analysis wall-time is reporting-only metadata
    let started = std::time::Instant::now();
    let ws = Workspace::load(root, cfg)?;
    let diagnostics = ws.lint(cfg)?;
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

/// Unit-test support: lint a source string.
#[cfg(test)]
pub(crate) mod engine_tests {
    use super::*;

    /// Lint one file's source text with the per-file rules (the semantic
    /// rules need a [`Workspace`]); the unit-test fixtures go through it.
    pub fn lint_source(
        rel_path: &str,
        crate_name: &str,
        src: &str,
        cfg: &Config,
    ) -> Result<Vec<Diagnostic>, String> {
        let file = syn::parse_file(src).map_err(|e| format!("{rel_path}:{e}"))?;
        let ctx = FileCtx::new(rel_path, crate_name, &file);
        let mut out = Vec::new();
        rules::run_all(&ctx, cfg, &mut out);
        rules::check_allows(&ctx, cfg, false, &mut out);
        sort_diags(&mut out);
        Ok(out)
    }

    pub fn lint_str(rel_path: &str, crate_name: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(rel_path, crate_name, src, &Config::default()).expect("fixture parses")
    }

    #[test]
    fn an_allow_that_names_no_rule_is_a_finding() {
        let src =
            "pub fn f() -> u32 {\n    // repolint:allow(NOSUCH) typo for PANIC001\n    1\n}\n";
        let diags = lint_str("crates/memsim/src/x.rs", "abft-memsim", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].rule, diags[0].line), ("ALLOW", 2));
        assert!(diags[0].message.contains("`repolint:allow(NOSUCH)` names no rule"), "{diags:?}");
    }

    #[test]
    fn an_allow_that_suppresses_nothing_is_a_finding() {
        // Line 3 is suppressed and stays quiet; the allow on line 5 sits
        // above code that no longer unwraps; the one on line 7 gives no
        // reason, so it suppresses nothing and the unwrap fires as well.
        let src = "pub fn f(x: Option<u32>) -> u32 {\n\
                   \x20   // repolint:allow(PANIC001) checked by the caller\n\
                   \x20   let a = x.unwrap();\n\
                   \x20   // repolint:allow(PANIC001) was an unwrap once\n\
                   \x20   let b = x.unwrap_or(0);\n\
                   \x20   // repolint:allow(PANIC001)\n\
                   \x20   a + b + x.unwrap()\n\
                   }\n";
        let diags = lint_str("crates/memsim/src/x.rs", "abft-memsim", src);
        let got: Vec<(&str, usize)> = diags.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(got, vec![("ALLOW", 4), ("ALLOW", 6), ("PANIC001", 7)], "{diags:?}");
        assert!(diags[0].message.contains("stale `repolint:allow(PANIC001)`"), "{diags:?}");
        assert!(diags[0].message.contains("line 5"), "{diags:?}");
    }

    #[test]
    fn an_unused_allow_is_stale_only_where_its_rule_was_checked() {
        let src =
            "pub fn f() -> u32 {\n    // repolint:allow(DET002,PERF001) not needed\n    1\n}\n";
        let mut cfg = Config::default();
        cfg.rules.get_mut("DET002").unwrap().crates = Some(vec!["abft-memsim".to_string()]);
        // DET002 ran on this crate, so its half is stale; the PERF rules
        // need the workspace, which `lint_source` does not have.
        let diags = lint_source("crates/memsim/src/x.rs", "abft-memsim", src, &cfg).unwrap();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("repolint:allow(DET002)"), "{diags:?}");
        // Outside DET002's crate scope nothing checked it.
        assert!(lint_source("crates/abft/src/x.rs", "abft-kernels", src, &cfg).unwrap().is_empty());
        // With the workspace-wide rules run, the PERF half is stale too.
        let ws =
            Workspace::from_sources(&[("crates/abft/src/lib.rs", "abft-kernels", src)]).unwrap();
        let diags = ws.lint(&cfg).unwrap();
        let stale: Vec<_> = diags.iter().filter(|d| d.rule == "ALLOW").collect();
        assert_eq!(stale.len(), 1, "{diags:?}");
        assert!(stale[0].message.contains("repolint:allow(PERF001)"), "{diags:?}");
    }

    #[test]
    fn crate_scoping_limits_rules() {
        let src = "pub fn roll() -> u64 {\n    thread_rng().next_u64()\n}\n";
        let mut cfg = Config::default();
        cfg.rules.get_mut("DET001").unwrap().crates = Some(vec!["abft-memsim".to_string()]);
        assert!(!lint_source("crates/memsim/src/x.rs", "abft-memsim", src, &cfg)
            .unwrap()
            .is_empty());
        assert!(lint_source("crates/analysis/src/x.rs", "abft-analysis", src, &cfg)
            .unwrap()
            .is_empty());
    }
}
