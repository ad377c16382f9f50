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
//! workspace-wide symbol table ([`symbols`]) and call graph
//! ([`callgraph`]):
//!
//! - **DET004** — interprocedural determinism: no entropy/wall-clock
//!   source may be reachable from a simulation entry point; the
//!   diagnostic carries the offending call chain
//! - **UNIT001** — unit-taint dataflow: no mixing of cycles, ns, bytes,
//!   cache lines or pJ/nJ/mJ in arithmetic without an explicit
//!   conversion
//! - **API001** — no dead `pub` items (never referenced from another
//!   crate, a binary, a test or a bench)
//! - **CONC001–CONC004** — concurrency safety: no guard held across a
//!   (possibly transitive) blocking call, no lock-order cycles, no
//!   non-`Send`-pattern state reachable from spawned threads, no
//!   detached threads in library code
//!
//! Violations are suppressed per site with a documented
//! `// repolint:allow(RULE) reason` comment, configured in
//! `repolint.toml`, and grandfathered (ratchet-only) via
//! `repolint.baseline`. See DESIGN.md §3.12 and §3.14.

pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod diag;
pub mod guards;
pub mod hotness;
pub mod rules;
pub mod source;
pub mod symbols;

use baseline::Baseline;
use config::Config;
use diag::{sort_diags, Diagnostic, Severity};
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

    /// Run every enabled rule (per-file and semantic) over the
    /// workspace, in canonical order. Fails on a config-listed entry
    /// point that names no function (see [`rules::run_semantic`]).
    pub fn lint(&self, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
        let ctxs: Vec<FileCtx<'_>> =
            self.files.iter().map(|p| FileCtx::new(&p.rel, &p.crate_name, &p.file)).collect();
        let mut out = Vec::new();
        for ctx in &ctxs {
            rules::run_all(ctx, cfg, &mut out);
        }
        rules::run_semantic(self, &ctxs, cfg, &mut out)?;
        sort_diags(&mut out);
        Ok(out)
    }
}

/// Outcome of a workspace check.
#[derive(Debug)]
pub struct Report {
    /// Non-baselined findings, in canonical order.
    pub diagnostics: Vec<Diagnostic>,
    /// Current per-`(rule, path)` counts (for `--update-baseline`).
    pub counts: BTreeMap<(String, String), usize>,
    /// Pre-baseline finding totals per rule (the ratchet input: a later
    /// run may not regress any rule above these).
    pub rule_totals: BTreeMap<String, usize>,
    /// How many findings the baseline absorbed.
    pub baselined: usize,
    /// How many `.rs` files were linted.
    pub files: usize,
    /// Analysis wall-time (load + parse + all passes), milliseconds.
    pub analysis_ms: u128,
}

impl Report {
    /// True when the check should fail CI.
    pub fn failed(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Render the whole report as one JSON document.
    pub fn to_json(&self) -> String {
        let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for d in &self.diagnostics {
            *per_rule.entry(d.rule).or_default() += 1;
        }
        let diags: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        let counts: Vec<String> = per_rule
            .iter()
            .map(|(rule, n)| format!("\"{}\":{n}", diag::json_escape(rule)))
            .collect();
        let totals: Vec<String> = self
            .rule_totals
            .iter()
            .map(|(rule, n)| format!("\"{}\":{n}", diag::json_escape(rule)))
            .collect();
        format!(
            "{{\"diagnostics\":[{}],\"counts\":{{{}}},\"rule_totals\":{{{}}},\"total\":{},\
             \"baselined\":{},\"files\":{},\"analysis_ms\":{}}}",
            diags.join(","),
            counts.join(","),
            totals.join(","),
            self.diagnostics.len(),
            self.baselined,
            self.files,
            self.analysis_ms
        )
    }

    /// Render the findings as a SARIF 2.1.0 log: one run, every known
    /// rule declared in the driver (short description = first line of
    /// its `explain` text), and call-chain hops emitted as
    /// `relatedLocations` so SARIF viewers can step through the chain
    /// that the text rendering inlines into the message.
    pub fn to_sarif(&self) -> String {
        let rules: Vec<String> = config::RULES
            .iter()
            .map(|code| {
                let short =
                    rules::explain(code).and_then(|t| t.lines().next()).unwrap_or(code).trim();
                format!(
                    "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
                    diag::json_escape(code),
                    diag::json_escape(short)
                )
            })
            .collect();
        let results: Vec<String> = self.diagnostics.iter().map(sarif_result).collect();
        format!(
            "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
             \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"repolint\",\
             \"rules\":[{}]}}}},\"results\":[{}]}}]}}",
            rules.join(","),
            results.join(",")
        )
    }
}

/// The `physicalLocation` member shared by `locations` and
/// `relatedLocations` entries.
fn sarif_phys(path: &str, line: usize) -> String {
    format!(
        "\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
         \"region\":{{\"startLine\":{}}}}}",
        diag::json_escape(path),
        line
    )
}

/// One SARIF `result` object for a diagnostic.
fn sarif_result(d: &Diagnostic) -> String {
    // SARIF has no "allow" level and repolint never reports allowed
    // findings, so only error/warn reach this point.
    let level = match d.severity {
        Severity::Error => "error",
        _ => "warning",
    };
    let mut out = format!(
        "{{\"ruleId\":\"{}\",\"level\":\"{level}\",\"message\":{{\"text\":\"{}\"}},\
         \"locations\":[{{{}}}]",
        d.rule,
        diag::json_escape(&d.message),
        sarif_phys(&d.path, d.line)
    );
    if !d.related.is_empty() {
        let rel: Vec<String> = d
            .related
            .iter()
            .map(|r| {
                format!(
                    "{{{},\"message\":{{\"text\":\"{}\"}}}}",
                    sarif_phys(&r.path, r.line),
                    diag::json_escape(&r.message)
                )
            })
            .collect();
        out.push_str(&format!(",\"relatedLocations\":[{}]", rel.join(",")));
    }
    out.push('}');
    out
}

/// Lint one file's source text. This is the engine's core entry point;
/// the workspace walk and the unit-test fixtures both go through it.
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
    sort_diags(&mut out);
    Ok(out)
}

/// Walk the workspace under `root` and lint every `.rs` file outside the
/// configured excludes, applying the baseline.
pub fn check_workspace(root: &Path, cfg: &Config, base: &Baseline) -> Result<Report, String> {
    // repolint:allow(DET002,DET004) analysis wall-time is reporting-only metadata
    let started = std::time::Instant::now();
    let ws = Workspace::load(root, cfg)?;
    let mut report = apply_baseline(ws.files.len(), ws.lint(cfg)?, base);
    report.analysis_ms = started.elapsed().as_millis();
    Ok(report)
}

/// Split linted diagnostics into baselined and reported halves.
fn apply_baseline(files: usize, all: Vec<Diagnostic>, base: &Baseline) -> Report {
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut rule_totals: BTreeMap<String, usize> =
        config::RULES.iter().map(|r| ((*r).to_string(), 0)).collect();
    for d in &all {
        *counts.entry((d.rule.to_string(), d.path.clone())).or_default() += 1;
        *rule_totals.entry(d.rule.to_string()).or_default() += 1;
    }

    // Baseline: the first `allowance` findings of each (rule, path) pair
    // are absorbed; anything beyond that is reported.
    let mut absorbed: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut diagnostics = Vec::new();
    let mut baselined = 0usize;
    for d in all {
        let key = (d.rule.to_string(), d.path.clone());
        let used = absorbed.entry(key).or_default();
        if *used < base.allowance(d.rule, &d.path) {
            *used += 1;
            baselined += 1;
        } else {
            diagnostics.push(d);
        }
    }

    Report { diagnostics, counts, rule_totals, baselined, files, analysis_ms: 0 }
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

/// Unit-test support: lint a source string with the default config.
#[cfg(test)]
pub(crate) mod engine_tests {
    use super::*;

    pub fn lint_str(rel_path: &str, crate_name: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(rel_path, crate_name, src, &Config::default()).expect("fixture parses")
    }

    #[test]
    fn json_report_snapshot() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let diagnostics = lint_str("crates/memsim/src/x.rs", "abft-memsim", src);
        let mut counts = BTreeMap::new();
        let mut rule_totals = BTreeMap::new();
        for d in &diagnostics {
            *counts.entry((d.rule.to_string(), d.path.clone())).or_default() += 1;
            *rule_totals.entry(d.rule.to_string()).or_default() += 1;
        }
        let report =
            Report { diagnostics, counts, rule_totals, baselined: 0, files: 1, analysis_ms: 7 };
        assert_eq!(
            report.to_json(),
            "{\"diagnostics\":[{\"rule\":\"PANIC001\",\"severity\":\"error\",\
             \"path\":\"crates/memsim/src/x.rs\",\"line\":2,\"message\":\"`.unwrap()` in library \
             code can abort a whole campaign; return a typed error (or use assert! for a \
             documented invariant)\"}],\"counts\":{\"PANIC001\":1},\
             \"rule_totals\":{\"PANIC001\":1},\"total\":1,\"baselined\":0,\
             \"files\":1,\"analysis_ms\":7}"
        );
        assert!(report.failed());
    }

    #[test]
    fn sarif_snapshot_with_related_locations() {
        // Hand-built report: one chained finding (relatedLocations) and
        // one plain warning, so the snapshot pins every branch of the
        // SARIF rendering.
        let diagnostics = vec![
            Diagnostic {
                rule: "PERF001",
                severity: Severity::Error,
                path: "crates/memsim/src/x.rs".to_string(),
                line: 9,
                message: "heap allocation `Vec::new` on the hot replay path".to_string(),
                related: vec![diag::Related {
                    path: "crates/memsim/src/system.rs".to_string(),
                    line: 4,
                    message: "calls `x::f` inside a loop (x2)".to_string(),
                }],
            },
            Diagnostic {
                rule: "DET002",
                severity: Severity::Warn,
                path: "crates/memsim/src/y.rs".to_string(),
                line: 2,
                message: "wall-clock read".to_string(),
                related: Vec::new(),
            },
        ];
        let report = Report {
            diagnostics,
            counts: BTreeMap::new(),
            rule_totals: BTreeMap::new(),
            baselined: 0,
            files: 2,
            analysis_ms: 0,
        };
        let sarif = report.to_sarif();

        // Envelope.
        assert!(sarif.starts_with(
            "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
             \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"repolint\",\
             \"rules\":["
        ));
        // The driver declares every known rule exactly once, with the
        // first line of its explain text as the short description.
        for code in config::RULES {
            assert_eq!(
                sarif.matches(&format!("{{\"id\":\"{code}\",\"shortDescription\"")).count(),
                1,
                "driver must declare {code} once"
            );
        }
        // Result rendering, chained and plain.
        assert!(sarif.contains(
            "{\"ruleId\":\"PERF001\",\"level\":\"error\",\
             \"message\":{\"text\":\"heap allocation `Vec::new` on the hot replay path\"},\
             \"locations\":[{\"physicalLocation\":{\"artifactLocation\":\
             {\"uri\":\"crates/memsim/src/x.rs\"},\"region\":{\"startLine\":9}}}],\
             \"relatedLocations\":[{\"physicalLocation\":{\"artifactLocation\":\
             {\"uri\":\"crates/memsim/src/system.rs\"},\"region\":{\"startLine\":4}},\
             \"message\":{\"text\":\"calls `x::f` inside a loop (x2)\"}}]}"
        ));
        assert!(sarif.ends_with(
            "{\"ruleId\":\"DET002\",\"level\":\"warning\",\
             \"message\":{\"text\":\"wall-clock read\"},\
             \"locations\":[{\"physicalLocation\":{\"artifactLocation\":\
             {\"uri\":\"crates/memsim/src/y.rs\"},\"region\":{\"startLine\":2}}}]}]}]}"
        ));
    }

    #[test]
    fn severity_allow_disables_and_warn_does_not_fail() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let mut cfg = Config::default();
        cfg.rules.get_mut("PANIC001").unwrap().severity = Severity::Allow;
        assert!(lint_source("crates/m/src/x.rs", "m", src, &cfg).unwrap().is_empty());

        cfg.rules.get_mut("PANIC001").unwrap().severity = Severity::Warn;
        let diags = lint_source("crates/m/src/x.rs", "m", src, &cfg).unwrap();
        assert_eq!(diags.len(), 1);
        let report = Report {
            diagnostics: diags,
            counts: BTreeMap::new(),
            rule_totals: BTreeMap::new(),
            baselined: 0,
            files: 1,
            analysis_ms: 0,
        };
        assert!(!report.failed(), "warn severity must not fail the check");
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
