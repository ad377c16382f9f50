//! # repro
//!
//! The one driver that regenerates every table and figure of the paper's
//! evaluation (Section 5) plus the ablations and studies:
//!
//! ```text
//! repro <name>... | all | list [--out DIR]
//! ```
//!
//! [`REGISTRY`] is the experiment index of DESIGN.md §4 as a table; each
//! entry's `run` is one module of this binary. Without `--out` the text
//! goes to stdout and no file is written; with it every experiment's
//! text lands in `DIR/<name>.txt` and its JSON/CSV artifacts beside it.
//!
//! All of the memory-simulation experiments describe their grids as
//! [`CampaignSpec`]s and run them through the shared [`CampaignClient`]
//! facade (see [`run_grid`]), so traces are generated once per process
//! (shared through the `TraceCache`, across experiments under `all`),
//! the (kernel x strategy x config) cells run on the campaign's worker
//! pool — set `ABFT_THREADS` to bound the workers — and setting
//! `ABFT_ARTIFACT_STORE` to a directory persists and reuses generated
//! traces/miss-streams across processes (`ABFT_SIMPOINT` likewise
//! switches every grid to sampled replay). A cell whose task panicked is
//! named on stderr, and `repro` then exits non-zero.
//!
//! Each grid is simulated once per process: [`run_grid`] hands an equal
//! spec (every workload, config tag *and* whole config, strategy, worker
//! count, store and sampling) the run it already made, and Table 4 and
//! Figures 5–10 all read the basic grid. The memo is the driver's, not the
//! engine's: perfbench replays one spec through one client rep after rep,
//! and a memo there would time a lookup instead of the replay. Each
//! experiment records the numbers the claims ledger reads beside its text
//! (`Report::quantity`); `repro claims` judges the ledger against them.

#![expect(
    clippy::expect_used,
    reason = "a driver: a campaign cell its own spec asked for, or an FT run it drives, that is \
              missing is a bug to stop on, not a row to print"
)]

mod ablation_device_width;
mod ablation_error_registers;
mod ablation_mlp;
mod ablation_row_policy;
mod ablation_verify_interval;
mod arch_overview;
mod cases_error_handling;
mod checkpoint_vs_abft;
mod claims;
mod fig03_overhead;
mod fig05_memory_energy;
mod fig06_system_energy;
mod fig07_performance;
mod fig08_weak_scaling;
mod fig09_strong_scaling;
mod fig10_dgms_comparison;
mod monte_carlo_campaign;
mod scrub_study;
mod sdc_study;
mod tab01_simplified_verification;
mod tab04_access_classification;
mod tab05_error_rates;
mod trace_stats;

use abft_analysis::{profiles_from_basic_test, ScalePoint, ScalingConfig, StrategyProfile};
use abft_coop_core::report::Report;
use abft_coop_core::{BasicTest, CampaignClient, CampaignRun, CampaignSpec, Progress, Strategy};
use abft_memsim::system::SimStats;
use abft_memsim::workloads::{DgemmParams, KernelKind};
use abft_memsim::SystemConfig;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Set once anything this process ran failed: a campaign cell whose task
/// panicked, or a ledger verdict that disagrees with its row. Each is
/// named on stderr where it is found.
static FAILED: AtomicBool = AtomicBool::new(false);

/// The quantities each experiment run in this process recorded, by name.
type Recorded = BTreeMap<&'static str, BTreeMap<String, f64>>;

static RECORDED: Mutex<Recorded> = Mutex::new(BTreeMap::new());

/// The campaign runs made so far, each with the spec it ran.
type Runs = Mutex<Vec<(CampaignSpec, Arc<CampaignRun>)>>;

static RUNS: Runs = Mutex::new(Vec::new());

/// One row of the experiment index.
struct Experiment {
    /// What `repro <name>` and `<name>.txt` are called.
    name: &'static str,
    /// The header line of the experiment's output.
    title: &'static str,
    run: fn(&mut Report),
}

/// Every experiment, in the order `all` runs them.
#[rustfmt::skip]
const REGISTRY: [Experiment; 23] = [
    Experiment { name: "tab05_error_rates", title: "Table 5 — Error rate with ECC in place (FIT = failures per billion hours)", run: tab05_error_rates::run },
    Experiment { name: "fig03_overhead", title: "Figure 3 — ABFT overhead breakdown (checksum vs verification)", run: fig03_overhead::run },
    Experiment { name: "tab01_simplified_verification", title: "Table 1 — ABFT performance improvement with simplified verification", run: tab01_simplified_verification::run },
    Experiment { name: "tab04_access_classification", title: "Table 4 — Classification of cacheline accesses by ABFT protection", run: tab04_access_classification::run },
    Experiment { name: "fig05_memory_energy", title: "Figure 5 — Memory energy for ABFT with different ECC strategies", run: fig05_memory_energy::run },
    Experiment { name: "fig06_system_energy", title: "Figure 6 — System energy for ABFT with different ECC strategies", run: fig06_system_energy::run },
    Experiment { name: "fig07_performance", title: "Figure 7 — Performance (IPC) for ABFT with different ECC strategies", run: fig07_performance::run },
    Experiment { name: "fig08_weak_scaling", title: "Figure 8 — Weak scaling: energy benefit vs ABFT recovery cost (FT-CG)", run: fig08_weak_scaling::run },
    Experiment { name: "fig09_strong_scaling", title: "Figure 9 — Strong scaling: energy benefit vs ABFT recovery cost (FT-CG)", run: fig09_strong_scaling::run },
    Experiment { name: "fig10_dgms_comparison", title: "Figure 10 — DGMS vs the cooperative ABFT+ECC scheme (error-free)", run: fig10_dgms_comparison::run },
    Experiment { name: "cases_error_handling", title: "Section 4 — Error-handling cases, end to end", run: cases_error_handling::run },
    Experiment { name: "ablation_error_registers", title: "Ablation — error-register depth vs lost error reports", run: ablation_error_registers::run },
    Experiment { name: "ablation_verify_interval", title: "Ablation — ABFT verification interval (FT-DGEMM)", run: ablation_verify_interval::run },
    Experiment { name: "ablation_row_policy", title: "Ablation — row-buffer policy (FT-DGEMM trace)", run: ablation_row_policy::run },
    Experiment { name: "ablation_mlp", title: "Ablation — MLP sensitivity (FT-CG trace, W_CK vs No-ECC IPC gap)", run: ablation_mlp::run },
    Experiment { name: "ablation_device_width", title: "Ablation — DRAM device width (FT-DGEMM trace)", run: ablation_device_width::run },
    Experiment { name: "sdc_study", title: "Silent-data-corruption study — random k-bit line errors", run: sdc_study::run },
    Experiment { name: "scrub_study", title: "Scrub-interval study — fault accumulation under SECDED", run: scrub_study::run },
    Experiment { name: "monte_carlo_campaign", title: "Monte-Carlo fault campaign — ARE vs ASE distributions", run: monte_carlo_campaign::run },
    Experiment { name: "checkpoint_vs_abft", title: "Checkpoint/restart vs ABFT — overhead across system MTTFs", run: checkpoint_vs_abft::run },
    Experiment { name: "arch_overview", title: "Figure 2 / Figure 4 — architecture overview (as implemented)", run: arch_overview::run },
    Experiment { name: "trace_stats", title: "Trace inspector", run: trace_stats::run },
    Experiment { name: "claims", title: "Claims ledger — the paper's numbers against ours", run: claims::run },
];

impl Experiment {
    /// Run the experiment: the standard header (title plus the Table 3
    /// configuration), then its body.
    fn emit(&self, writer: &mut dyn Write, artifact_dir: Option<&Path>) -> std::io::Result<()> {
        let mut out = Report::new(writer, artifact_dir);
        writeln!(out, "================================================================");
        writeln!(out, "{}", self.title);
        writeln!(out, "Reproduction of Li, Chen, Wu, Vetter — SC 2013 (simulated)");
        writeln!(out, "================================================================");
        writeln!(out, "{}", SystemConfig::default().table3());
        writeln!(out, "----------------------------------------------------------------");
        (self.run)(&mut out);
        let quantities = out.finish()?;
        RECORDED.lock().expect("no holder panics").insert(self.name, quantities);
        Ok(())
    }
}

/// The quantities the named experiments recorded, each run into a sink if
/// this process has not run it yet.
fn quantities_of<'a>(names: impl IntoIterator<Item = &'a str>) -> Recorded {
    for e in names.into_iter().filter_map(|name| REGISTRY.iter().find(|e| e.name == name)) {
        if !RECORDED.lock().expect("no holder panics").contains_key(e.name) {
            e.emit(&mut std::io::sink(), None).expect("a sink takes every byte");
        }
    }
    RECORDED.lock().expect("no holder panics").clone()
}

/// The standard stderr liveness line for campaign progress.
fn report_progress(p: &Progress) {
    eprintln!(
        "[campaign {}/{}] {} / {} / {} ({:.2}s; traces: {} built, {} cache hits)",
        p.completed,
        p.total,
        p.kernel.label(),
        p.strategy.label(),
        p.config_tag,
        p.job_wall.as_secs_f64(),
        p.cache_builds,
        p.cache_hits,
    );
}

/// Run a grid through the shared [`CampaignClient`] facade with the
/// standard progress line, once per process (an equal spec gets the same
/// run back). This is the one entry point the experiments use: the client
/// resolves the artifact store (spec-level `store(..)` or the
/// `ABFT_ARTIFACT_STORE` env var) and executes on the process-wide
/// `TraceCache`. Each failed cell is named on stderr and fails the
/// process, whether or not an experiment reads its row.
fn run_grid(spec: &CampaignSpec) -> Arc<CampaignRun> {
    run_grid_with(&RUNS, &CampaignClient::local().on_progress(report_progress), spec)
}

/// [`run_grid`] over a given memo and client.
fn run_grid_with(runs: &Runs, client: &CampaignClient, spec: &CampaignSpec) -> Arc<CampaignRun> {
    if let Some((_, run)) = runs.lock().expect("no holder panics").iter().find(|(s, _)| s == spec) {
        return Arc::clone(run);
    }
    let run = Arc::new(client.run(spec));
    for f in &run.failed {
        eprintln!(
            "[campaign] FAILED {} / {} / {} ({:?}): {}",
            f.kernel.label(),
            f.strategy.label(),
            f.config_tag,
            f.workload,
            f.message
        );
        FAILED.store(true, Ordering::Relaxed);
    }
    runs.lock().expect("no holder panics").push((spec.clone(), Arc::clone(&run)));
    run
}

/// The basic tests for all four kernels at the default scale: the grid
/// Table 4 and Figures 5-10 read. The raw campaign cells are the
/// `basic_tests.json` artifact.
fn all_basic_tests(out: &mut Report) -> Vec<BasicTest> {
    let run = run_grid(&CampaignSpec::basic(KernelKind::ALL));
    out.artifact("basic_tests.json", &run.to_json());
    run.basic_tests()
}

/// The FT-DGEMM workload of the row-policy and device-width ablations.
const ABLATION_DGEMM: DgemmParams = DgemmParams { n: 768, nb: 64, abft: true, verify_interval: 4 };

/// FT-CG's curve per partial strategy under `scale` (Figures 8 and 9),
/// from its profiles in the basic grid.
fn cg_curves(
    scale: fn(&StrategyProfile, &ScalingConfig) -> Vec<ScalePoint>,
) -> Vec<(Strategy, Vec<ScalePoint>)> {
    let bt = run_grid(&CampaignSpec::basic(KernelKind::ALL)).basic_test(KernelKind::Cg);
    let cfg = ScalingConfig::default();
    profiles_from_basic_test(&bt).iter().map(|p| (p.strategy, scale(p, &cfg))).collect()
}

fn max_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

fn min_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// Record each kernel's `energy` saving under each partial strategy over
/// its whole-ECC baseline, that over the other kernels' largest, and the
/// largest (`saving/`, `largest_saving/`, `max_saving/{name}/..`).
fn record_savings(out: &mut Report, tests: &[BasicTest], name: &str, energy: fn(&SimStats) -> f64) {
    for s in Strategy::PARTIAL {
        let of =
            |bt: &BasicTest| 1.0 - energy(&bt.row(s).stats) / energy(&bt.row(s.baseline()).stats);
        let savings: Vec<f64> = tests.iter().map(of).collect();
        for (bt, &x) in tests.iter().zip(&savings) {
            let others = tests.iter().zip(&savings).filter(|(o, _)| o.kernel != bt.kernel);
            let (k, l) = (bt.kernel.label(), s.label());
            out.quantity(format!("saving/{name}/{k}/{l}"), x);
            out.quantity(
                format!("largest_saving/{name}/{k}/{l}"),
                x / max_of(others.map(|(_, &y)| y)),
            );
        }
        out.quantity(format!("max_saving/{name}/{}", s.label()), max_of(savings));
    }
}

/// What the command line asks for.
enum Command {
    List,
    Run { experiments: Vec<&'static Experiment>, out: Option<PathBuf> },
}

/// A command line `repro` rejects (exit status 2).
#[derive(Debug, PartialEq)]
enum UsageError {
    NothingToRun,
    UnknownExperiment(String),
    OutWithoutValue,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::NothingToRun => write!(f, "no experiment named"),
            UsageError::UnknownExperiment(name) => write!(f, "unknown experiment `{name}`"),
            UsageError::OutWithoutValue => write!(f, "`--out` needs a directory"),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Command, UsageError> {
    let mut experiments = Vec::new();
    let mut out = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "list" => return Ok(Command::List),
            "all" => experiments.extend(&REGISTRY),
            "--out" => out = Some(PathBuf::from(args.next().ok_or(UsageError::OutWithoutValue)?)),
            name => experiments.push(
                REGISTRY
                    .iter()
                    .find(|e| e.name == name)
                    .ok_or_else(|| UsageError::UnknownExperiment(name.to_string()))?,
            ),
        }
    }
    if experiments.is_empty() {
        return Err(UsageError::NothingToRun);
    }
    Ok(Command::Run { experiments, out })
}

fn execute(cmd: Command) -> std::io::Result<()> {
    match cmd {
        Command::List => {
            let mut stdout = std::io::stdout();
            for e in &REGISTRY {
                writeln!(stdout, "{:30} {}", e.name, e.title)?;
            }
        }
        Command::Run { experiments, out } => {
            for e in experiments {
                match &out {
                    None => e.emit(&mut std::io::stdout(), None)?,
                    Some(dir) => {
                        let path = dir.join(format!("{}.txt", e.name));
                        eprintln!("=== {} -> {} ===", e.name, path.display());
                        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
                        e.emit(&mut file, Some(dir))?;
                    }
                }
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("repro: {e}");
            eprintln!("usage: repro <name>... | all | list [--out DIR]; experiments:");
            for e in &REGISTRY {
                eprintln!("  {}", e.name);
            }
            return ExitCode::from(2);
        }
    };
    if let Command::Run { out: Some(dir), .. } = &cmd {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("repro: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    match execute(cmd) {
        Ok(()) if FAILED.load(Ordering::Relaxed) => {
            eprintln!("repro: failed (named above)");
            ExitCode::FAILURE
        }
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    fn committed_output(name: &str) -> PathBuf {
        repo_root().join("reproduction-output").join(format!("{name}.txt"))
    }

    fn parse(args: &[&str]) -> Result<Command, UsageError> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn names(cmd: Result<Command, UsageError>) -> (Vec<&'static str>, Option<PathBuf>) {
        match cmd {
            Ok(Command::Run { experiments, out }) => {
                (experiments.iter().map(|e| e.name).collect(), out)
            }
            Ok(Command::List) => panic!("expected a run, got list"),
            Err(e) => panic!("expected a run, got {e}"),
        }
    }

    #[test]
    fn parser_accepts_names_all_list_and_out() {
        assert_eq!(
            names(parse(&["fig07_performance", "tab05_error_rates"])),
            (vec!["fig07_performance", "tab05_error_rates"], None)
        );
        let (all, out) = names(parse(&["--out", "d", "all"]));
        assert_eq!(all, REGISTRY.iter().map(|e| e.name).collect::<Vec<_>>());
        assert_eq!(out, Some(PathBuf::from("d")));
        assert!(matches!(parse(&["list"]), Ok(Command::List)));
    }

    #[test]
    fn parser_rejects_bad_input_as_typed_errors() {
        let err = |args: &[&str]| parse(args).err();
        assert_eq!(err(&[]), Some(UsageError::NothingToRun));
        assert_eq!(err(&["--out", "d"]), Some(UsageError::NothingToRun));
        assert_eq!(err(&["fig07"]), Some(UsageError::UnknownExperiment("fig07".into())));
        assert_eq!(err(&["--save"]), Some(UsageError::UnknownExperiment("--save".into())));
        assert_eq!(err(&["all", "--out"]), Some(UsageError::OutWithoutValue));
    }

    #[test]
    fn registry_names_are_unique() {
        let unique: BTreeSet<_> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(unique.len(), REGISTRY.len());
    }

    /// DESIGN.md §4 is the registry in prose: its "Regenerator" column
    /// names each experiment as `repro <name>`. A row without one is a
    /// kept mechanism, and names its gate there instead: a test file, then
    /// the entry points that file calls.
    #[test]
    fn registry_matches_the_design_experiment_index() {
        let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
        let start = design.find("## 4. Experiment index").expect("section 4");
        let section = &design[start..];
        let section = &section[..section.find("\n## 5.").expect("section 5")];
        let documented: BTreeSet<&str> = section
            .split("`repro ")
            .skip(1)
            .map(|rest| &rest[..rest.find('`').expect("closing backtick")])
            .collect();
        let registered: BTreeSet<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(documented, registered);

        let rows = section.lines().filter(|l| l.starts_with("| ")).skip(1); // header
        for row in rows.filter(|r| !r.contains("`repro ")) {
            let gate = row.trim_end().trim_end_matches('|').rsplit('|').next().expect("a cell");
            let mut names = gate.split('`').skip(1).step_by(2);
            let file = names.next().unwrap_or_else(|| panic!("no regenerator, no gate: {row}"));
            let test = std::fs::read_to_string(repo_root().join(file))
                .unwrap_or_else(|e| panic!("gate `{file}`: {e}\n{row}"));
            let entry_points: Vec<&str> = names.collect();
            assert!(!entry_points.is_empty(), "gate names no entry point: {row}");
            for entry in entry_points {
                assert!(test.contains(entry), "`{file}` never mentions `{entry}`\n{row}");
            }
        }
    }

    /// The registry census: an experiment owns a row of the claims ledger,
    /// or DESIGN.md §3.16 names it as infrastructure; and every row names a
    /// registered experiment.
    #[test]
    fn every_experiment_owns_a_claim_or_is_infrastructure() {
        use abft_coop_core::claims::{parse, LEDGER};
        let claims = parse(LEDGER, |_, _| true).expect("crates/core/claims.tsv parses");
        let owners: BTreeSet<&str> = claims.iter().map(|c| c.experiment.as_str()).collect();
        let registered: BTreeSet<&str> = REGISTRY.iter().map(|e| e.name).collect();
        let strays: Vec<_> = owners.difference(&registered).collect();
        assert!(strays.is_empty(), "ledger rows name unregistered experiments: {strays:?}");
        let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
        let census = &design[design.find("### 3.16").expect("section 3.16")..];
        let infrastructure = census
            .lines()
            .find(|l| l.contains("**infrastructure**"))
            .expect("an infrastructure row");
        for name in registered.difference(&owners) {
            assert!(
                infrastructure.contains(&format!("`repro {name}`")),
                "{name} owns no claim, and DESIGN.md §3.16 does not name it as infrastructure"
            );
        }
    }

    #[test]
    fn an_equal_spec_is_simulated_once_and_a_changed_config_or_tag_again() {
        use abft_memsim::TraceCache;
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(TraceCache::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let client = CampaignClient::with_cache(Arc::clone(&cache)).on_progress(move |_| {
            seen.fetch_add(1, Ordering::SeqCst);
        });
        let spec = |tag: &str, stall_factor: f64| {
            CampaignSpec::builder()
                .workload(DgemmParams { n: 128, nb: 64, abft: true, verify_interval: 2 })
                .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
                .config(tag, SystemConfig { stall_factor, ..SystemConfig::default() })
                .threads(1)
                .build()
        };
        let counters = |c: &TraceCache| (c.hits(), c.builds(), c.miss_hits(), c.miss_builds());
        let stats = |run: &CampaignRun| {
            format!("{:?}", run.results.iter().map(|r| &r.stats).collect::<Vec<_>>())
        };
        let progress = || calls.load(Ordering::SeqCst);
        let runs = Runs::default();
        let sf = SystemConfig::default().stall_factor;

        let first = run_grid_with(&runs, &client, &spec("a", sf));
        assert_eq!(progress(), 2);
        let before = counters(&cache);
        let again = run_grid_with(&runs, &client, &spec("a", sf));
        assert_eq!(progress(), 2, "an equal spec reports no cell");
        assert_eq!(counters(&cache), before, "an equal spec looks up no trace");
        assert_eq!(stats(&again), stats(&first));

        let slower = run_grid_with(&runs, &client, &spec("a", 1.0));
        assert_eq!(progress(), 4, "the same tag on another stall factor is simulated");
        assert_ne!(stats(&slower), stats(&first));
        let renamed = run_grid_with(&runs, &client, &spec("b", sf));
        assert_eq!(progress(), 6, "another tag on the same config is simulated");
        assert_eq!(renamed.results[0].config_tag, "b");
    }

    #[test]
    fn every_experiment_has_a_committed_output() {
        for e in &REGISTRY {
            let path = committed_output(e.name);
            assert!(path.is_file(), "{} is missing; run scripts/reproduce_all.sh", path.display());
        }
    }

    /// The experiments that need no memsim grid are cheap enough to run
    /// here; the rest are compared by the drift gate in `scripts/ci.sh`.
    #[test]
    fn grid_free_experiments_reproduce_their_committed_output() {
        for name in
            ["tab05_error_rates", "arch_overview", "checkpoint_vs_abft", "cases_error_handling"]
        {
            let e = REGISTRY.iter().find(|e| e.name == name).expect("registered");
            let mut text = Vec::new();
            e.emit(&mut text, None).expect("in-memory write");
            let path = committed_output(name);
            let committed = std::fs::read(&path).expect("committed output");
            assert!(text == committed, "{name} drifted from {}", path.display());
        }
    }
}
