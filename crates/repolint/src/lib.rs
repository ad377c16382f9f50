//! repolint: the workspace analyses no compiler lint makes.
//!
//! The paper's evaluation is a grid of kernel × ECC-strategy cells, and it
//! only means something if every cell is bit-reproducible and no worker
//! panics mid-grid. rustc and clippy enforce that with type information:
//! the wall-clock and hash-container bans in `clippy.toml`, the panic lints
//! in the root manifest's `[workspace.lints]`, `float_cmp` in the ABFT
//! kernels, and a seeded-only `rand` that defines no entropy source.
//! repolint checks what needs the whole workspace at once — a symbol table
//! ([`symbols`]) and a call graph ([`callgraph`]) resolved from one token
//! scan per function body ([`hotness`]):
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

/// Every parsed file of the workspace: the input to the rules.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Parsed files, sorted by path.
    pub files: Vec<ParsedFile>,
}

impl Workspace {
    /// Build a workspace from in-memory sources (`(rel_path, crate_name,
    /// source)`); the fixture entry point for rule tests.
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

    /// Run every rule over the workspace, then the check of the
    /// suppression comments themselves, in canonical order. Fails on a
    /// config-listed crate or entry point that names nothing (see
    /// [`rules::run_semantic`]).
    pub fn lint(&self, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
        let ctxs: Vec<FileCtx<'_>> =
            self.files.iter().map(|p| FileCtx::new(&p.rel, &p.crate_name, &p.file)).collect();
        let mut out = Vec::new();
        rules::run_semantic(self, &ctxs, cfg, &mut out)?;
        for ctx in &ctxs {
            rules::check_allows(ctx, cfg, &mut out);
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
    #[expect(clippy::disallowed_methods, reason = "analysis wall-time is reporting-only metadata")]
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A replay entry point (`Machine::simulate` is a default root) whose
    /// doubly nested loop allocates on lines 7 and 11 but not on line 9;
    /// `allows` fill lines 6, 8 and 10, each above one of the three.
    fn hot(allows: [&str; 3]) -> String {
        format!(
            "struct Machine;\n\
             impl Machine {{\n\
             \x20   fn simulate(&self) {{\n\
             \x20       for _ in 0..4 {{\n\
             \x20           for _ in 0..4 {{\n\
             \x20               {}\n\
             \x20               let a: Vec<u8> = Vec::new();\n\
             \x20               {}\n\
             \x20               let n = a.len();\n\
             \x20               {}\n\
             \x20               let b: Vec<u8> = Vec::with_capacity(n);\n\
             \x20               drop(b);\n\
             \x20           }}\n\
             \x20       }}\n\
             \x20   }}\n\
             }}\n",
            allows[0], allows[1], allows[2]
        )
    }

    fn lint(sources: &[(&str, &str, &str)], cfg: &Config) -> Vec<Diagnostic> {
        Workspace::from_sources(sources).unwrap().lint(cfg).unwrap()
    }

    #[test]
    fn an_allow_that_names_no_rule_is_a_finding() {
        let src = "fn f() -> u32 {\n    // repolint:allow(NOSUCH) typo for PERF001\n    1\n}\n";
        let diags = lint(&[("crates/memsim/src/x.rs", "abft-memsim", src)], &Config::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].rule, diags[0].line), ("ALLOW", 2));
        assert!(diags[0].message.contains("`repolint:allow(NOSUCH)` names no rule"), "{diags:?}");
    }

    #[test]
    fn an_allow_that_suppresses_nothing_is_a_finding() {
        // Line 7 is suppressed and stays quiet; the allow on line 8 sits
        // above code that no longer allocates; the one on line 10 gives no
        // reason, so it suppresses nothing and line 11 fires as well.
        let src = hot([
            "// repolint:allow(PERF001) one buffer per event, measured",
            "// repolint:allow(PERF001) was an allocation once",
            "// repolint:allow(PERF001)",
        ]);
        let diags = lint(&[("crates/memsim/src/x.rs", "abft-memsim", &src)], &Config::default());
        let got: Vec<(&str, usize)> = diags.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(got, vec![("ALLOW", 8), ("ALLOW", 10), ("PERF001", 11)], "{diags:?}");
        assert!(diags[0].message.contains("stale `repolint:allow(PERF001)`"), "{diags:?}");
        assert!(diags[0].message.contains("line 9"), "{diags:?}");
    }

    #[test]
    fn an_unused_allow_is_stale_only_where_its_rule_was_checked() {
        let src = "fn f() -> u32 {\n    // repolint:allow(API001,PERF001) not needed\n    1\n}\n";
        let mut cfg = Config::default();
        cfg.rules.get_mut("PERF001").unwrap().crates = Some(vec!["abft-memsim".to_string()]);
        let diags = lint(
            &[
                ("crates/memsim/src/x.rs", "abft-memsim", src),
                ("crates/abft/src/x.rs", "abft-kernels", src),
            ],
            &cfg,
        );
        let stale: Vec<(&str, bool)> = diags
            .iter()
            .map(|d| (d.path.as_str(), d.message.contains("repolint:allow(PERF001)")))
            .collect();
        // Both halves ran on memsim; outside the PERF rules' crate scope
        // only API001 checked the comment.
        assert_eq!(
            stale,
            vec![
                ("crates/abft/src/x.rs", false),
                ("crates/memsim/src/x.rs", false),
                ("crates/memsim/src/x.rs", true)
            ],
            "{diags:?}"
        );
        assert!(diags.iter().all(|d| d.rule == "ALLOW" && d.line == 2), "{diags:?}");
    }

    #[test]
    fn crate_scoping_limits_rules() {
        let src = hot(["", "", ""]);
        let sources = [
            ("crates/memsim/src/x.rs", "abft-memsim", src.as_str()),
            ("crates/ecc/src/x.rs", "abft-ecc", &src),
        ];
        let mut cfg = Config::default();
        assert_eq!(lint(&sources, &cfg).len(), 4, "both crates are in scope by default");
        cfg.rules.get_mut("PERF001").unwrap().crates = Some(vec!["abft-memsim".to_string()]);
        let got: Vec<(String, &str)> =
            lint(&sources, &cfg).into_iter().map(|d| (d.path, d.rule)).collect();
        assert_eq!(got, vec![("crates/memsim/src/x.rs".to_string(), "PERF001"); 2]);
    }
}
