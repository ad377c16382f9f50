//! The campaign client: every harness binary's one way to run a
//! simulation grid.
//!
//! [`CampaignSpec`] is the one description of a grid — workloads,
//! strategies, tagged config variants, worker count, optionally phase
//! sampling and an on-disk artifact store — built with
//! [`CampaignSpec::builder`]. [`CampaignClient::run`] resolves the
//! environment (a store directory from the spec or `ABFT_ARTIFACT_STORE`,
//! sampling from the spec or `ABFT_SIMPOINT`, the worker count from the
//! spec or `ABFT_THREADS`) and hands the spec to the
//! one engine in [`crate::campaign`], over the process-wide `TraceCache`
//! ([`CampaignClient::local`]) or a private one
//! ([`CampaignClient::with_cache`]).
//!
//! ```no_run
//! use abft_coop_core::{CampaignClient, CampaignSpec, Strategy};
//! use abft_memsim::KernelKind;
//!
//! let spec = CampaignSpec::builder()
//!     .kernels(KernelKind::ALL)          // 4 kernels x
//!     .strategies(Strategy::ALL)         // 6 strategies x 1 default config
//!     .store("artifact-store")           // = 24 cells, 4 trace generations
//!     .build();
//! let run = CampaignClient::local().run(&spec);
//! println!("{} cells, {} artifact hits", run.results.len(), run.metrics.store_hits);
//! ```

use crate::campaign::{run_grid, CampaignRun, Progress, ProgressHook};
use crate::strategy::Strategy;
use abft_memsim::simpoint::SimPointConfig;
use abft_memsim::workloads::{KernelKind, KernelParams};
use abft_memsim::{ArtifactStore, SystemConfig, TraceCache};
use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::Arc;

/// Environment variable naming a store directory every grid run should
/// persist artifacts to (the spec's explicit
/// [`CampaignSpecBuilder::store`] wins when both are set; an empty value
/// counts as unset).
pub const STORE_ENV: &str = "ABFT_ARTIFACT_STORE";

/// Environment variable enabling SimPoint phase sampling for every grid
/// run (the spec's explicit [`CampaignSpecBuilder::sampling`] wins
/// when both are set). `1` or `default` selects
/// [`SimPointConfig::default`]; otherwise the value is parsed as
/// `interval,max_phases,seed,iterations[,strata]`. Malformed values
/// degrade to exact replay with a warning — sampling is an accelerator,
/// never a correctness dependency.
pub const SIMPOINT_ENV: &str = "ABFT_SIMPOINT";

/// Environment variable bounding the campaign's workers for every grid
/// run whose spec does not pin them ([`CampaignSpecBuilder::threads`]
/// wins when both are set). Unset, or malformed with a warning, it falls
/// back to [`std::thread::available_parallelism`]. A grid never spawns
/// more threads than it has tasks, whatever the value.
pub const THREADS_ENV: &str = "ABFT_THREADS";

/// Why a [`THREADS_ENV`]-style value was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadsEnvError {
    /// Not an unsigned integer of `usize`'s range (an empty value
    /// included); carries the value.
    NotANumber(String),
    /// Zero workers would run nothing.
    Zero,
}

impl std::fmt::Display for ThreadsEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadsEnvError::NotANumber(value) => {
                write!(f, "not an unsigned integer: {value:?}")
            }
            ThreadsEnvError::Zero => write!(f, "the worker count must be at least 1"),
        }
    }
}

impl std::error::Error for ThreadsEnvError {}

/// Parse a [`THREADS_ENV`]-style value: a worker count of at least 1,
/// surrounding whitespace allowed.
pub fn parse_threads_env(value: &str) -> Result<usize, ThreadsEnvError> {
    let v = value.trim();
    match v.parse::<usize>() {
        Ok(0) => Err(ThreadsEnvError::Zero),
        Ok(n) => Ok(n),
        Err(_) => Err(ThreadsEnvError::NotANumber(v.to_string())),
    }
}

/// Why a [`SIMPOINT_ENV`]-style value was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimPointEnvError {
    /// Neither `1`/`default` nor four or five comma-separated fields;
    /// carries the number of fields found.
    FieldCount(usize),
    /// A field that is not an unsigned integer of its type's range.
    NotANumber {
        /// The [`SimPointConfig`] field the value was for.
        field: &'static str,
        /// What stood in its place.
        value: String,
    },
    /// A zero in a field the sampler needs at least one of (every one but
    /// `seed`): a zero `interval` once meant a slice per event.
    Zero {
        /// The [`SimPointConfig`] field that was zero.
        field: &'static str,
    },
}

impl std::fmt::Display for SimPointEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimPointEnvError::FieldCount(n) => write!(
                f,
                "expected \"1\", \"default\", or \"interval,max_phases,seed,iterations[,strata]\", \
                 found {n} comma-separated field(s)"
            ),
            SimPointEnvError::NotANumber { field, value } => {
                write!(f, "`{field}` is not an unsigned integer: {value:?}")
            }
            SimPointEnvError::Zero { field } => write!(f, "`{field}` must be at least 1"),
        }
    }
}

impl std::error::Error for SimPointEnvError {}

/// One CSV field of a [`SIMPOINT_ENV`] value; `min` is 1 for the fields
/// that may not be zero and 0 for the seed.
fn simpoint_field<T>(field: &'static str, value: &str, min: T) -> Result<T, SimPointEnvError>
where
    T: std::str::FromStr + PartialOrd,
{
    let n = value
        .parse::<T>()
        .map_err(|_| SimPointEnvError::NotANumber { field, value: value.to_string() })?;
    if n < min {
        return Err(SimPointEnvError::Zero { field });
    }
    Ok(n)
}

/// Parse a [`SIMPOINT_ENV`]-style value: `1`/`default` for the default
/// config, or `interval,max_phases,seed,iterations[,strata]` CSV
/// (`strata` falls back to the default when omitted). Every field but
/// `seed` must be at least 1.
pub fn parse_simpoint_env(value: &str) -> Result<SimPointConfig, SimPointEnvError> {
    let v = value.trim();
    if v == "1" || v.eq_ignore_ascii_case("default") {
        return Ok(SimPointConfig::default());
    }
    let parts: Vec<&str> = v.split(',').map(str::trim).collect();
    if parts.len() != 4 && parts.len() != 5 {
        return Err(SimPointEnvError::FieldCount(parts.len()));
    }
    Ok(SimPointConfig {
        interval: simpoint_field("interval", parts[0], 1)?,
        max_phases: simpoint_field("max_phases", parts[1], 1)?,
        seed: simpoint_field("seed", parts[2], 0)?,
        iterations: simpoint_field("iterations", parts[3], 1)?,
        strata: match parts.get(4) {
            Some(p) => simpoint_field("strata", p, 1)?,
            None => SimPointConfig::default().strata,
        },
    })
}

/// A declarative (workload × config × strategy) grid: what to simulate,
/// under which configs, with which ECC strategies, and where (if
/// anywhere) to persist the generated artifacts. Only
/// [`CampaignSpecBuilder::build`] makes one, so the three lists are
/// never empty. Two specs are equal when every field is: the config tags
/// *and* the whole configs they label.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    pub(crate) workloads: Vec<KernelParams>,
    pub(crate) strategies: Vec<Strategy>,
    pub(crate) configs: Vec<(String, SystemConfig)>,
    pub(crate) threads: Option<usize>,
    store_dir: Option<PathBuf>,
    sampling: Option<SimPointConfig>,
}

impl CampaignSpec {
    /// Start building a spec. An empty builder resolves to the paper's
    /// basic-test grid: all four kernels at default scale, all six
    /// strategies, the default system config.
    pub fn builder() -> CampaignSpecBuilder {
        CampaignSpecBuilder {
            spec: CampaignSpec {
                workloads: Vec::new(),
                strategies: Vec::new(),
                configs: Vec::new(),
                threads: None,
                store_dir: None,
                sampling: None,
            },
        }
    }

    /// The basic-test grid for a set of kernels (all six strategies,
    /// default config) — the shape Figures 5-7 and Table 4 share.
    pub fn basic(kinds: impl IntoIterator<Item = KernelKind>) -> CampaignSpec {
        CampaignSpec::builder().kernels(kinds).build()
    }

    /// Total grid cells the spec expands to.
    pub fn cells(&self) -> usize {
        self.workloads.len() * self.strategies.len() * self.configs.len()
    }
}

/// Fluent constructor for [`CampaignSpec`].
#[derive(Debug, Clone)]
pub struct CampaignSpecBuilder {
    spec: CampaignSpec,
}

impl CampaignSpecBuilder {
    /// Add several kernels at their default (Table-3-scaled) workloads.
    pub fn kernels(mut self, kinds: impl IntoIterator<Item = KernelKind>) -> Self {
        self.spec.workloads.extend(kinds.into_iter().map(KernelParams::default_for));
        self
    }

    /// Add one fully-specified workload (kernel + scale).
    pub fn workload(mut self, params: impl Into<KernelParams>) -> Self {
        self.spec.workloads.push(params.into());
        self
    }

    /// Add several fully-specified workloads.
    pub fn workloads(mut self, params: impl IntoIterator<Item = KernelParams>) -> Self {
        self.spec.workloads.extend(params);
        self
    }

    /// Add one strategy (default when none are added: all six).
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.spec.strategies.push(s);
        self
    }

    /// Add several strategies.
    pub fn strategies(mut self, ss: impl IntoIterator<Item = Strategy>) -> Self {
        self.spec.strategies.extend(ss);
        self
    }

    /// Add a tagged system-config variant (default when none are added:
    /// `("default", SystemConfig::default())`).
    pub fn config(mut self, tag: impl Into<String>, cfg: SystemConfig) -> Self {
        self.spec.configs.push((tag.into(), cfg));
        self
    }

    /// Pin the worker count (default: [`THREADS_ENV`] when set, else the
    /// machine's available parallelism). `threads(1)` is the serial path:
    /// every task runs on the calling thread and no thread is spawned.
    pub fn threads(mut self, n: usize) -> Self {
        self.spec.threads = Some(n.max(1));
        self
    }

    /// Persist (and load) generated artifacts under this directory.
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spec.store_dir = Some(dir.into());
        self
    }

    /// Replay only weighted representative slices (SimPoint phase
    /// sampling) instead of the full miss stream for every cell. Results
    /// become estimates (error budget surfaced in
    /// [`crate::CampaignMetrics::est_error_budget`]); leave sampling off
    /// when bit-exact statistics are required.
    pub fn sampling(mut self, cfg: SimPointConfig) -> Self {
        self.spec.sampling = Some(cfg);
        self
    }

    /// Seal the spec, resolving each empty list to its default.
    pub fn build(self) -> CampaignSpec {
        let mut spec = self.spec;
        if spec.workloads.is_empty() {
            spec.workloads = KernelKind::ALL.map(KernelParams::default_for).to_vec();
        }
        if spec.strategies.is_empty() {
            spec.strategies = Strategy::ALL.to_vec();
        }
        if spec.configs.is_empty() {
            spec.configs.push(("default".to_string(), SystemConfig::default()));
        }
        spec
    }
}

/// The store directory a run persists to: the spec's, else the
/// [`STORE_ENV`] value unless it is empty (`VAR=` is the usual shell way
/// to "unset", and an empty root would litter the working directory).
fn resolve_store_dir(spec: &CampaignSpec, env: Option<OsString>) -> Option<PathBuf> {
    spec.store_dir.clone().or_else(|| env.filter(|v| !v.is_empty()).map(PathBuf::from))
}

/// The facade every harness binary runs grids through: a trace cache
/// (the process-wide one, or a private one) plus an optional progress
/// hook.
#[derive(Clone, Default)]
pub struct CampaignClient {
    cache: Option<Arc<TraceCache>>,
    progress: Option<ProgressHook>,
}

impl CampaignClient {
    /// A client over the process-wide [`TraceCache::global`].
    pub fn local() -> CampaignClient {
        CampaignClient::default()
    }

    /// A client over a private cache (isolated counters; what the gate
    /// binaries and tests use to observe cold/warm behaviour cleanly).
    pub fn with_cache(cache: Arc<TraceCache>) -> CampaignClient {
        CampaignClient { cache: Some(cache), progress: None }
    }

    /// Install a hook called after every completed job (liveness
    /// reporting for long campaigns). May be called from worker threads.
    pub fn on_progress(mut self, hook: impl Fn(&Progress) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(hook));
        self
    }

    /// Execute a spec and collect the full run: attach the artifact
    /// store when the spec or [`STORE_ENV`] names a directory, resolve
    /// sampling from the spec or [`SIMPOINT_ENV`] and the worker count
    /// from the spec or [`THREADS_ENV`], then run the grid.
    pub fn run(&self, spec: &CampaignSpec) -> CampaignRun {
        let cache = match &self.cache {
            Some(cache) => cache,
            None => TraceCache::global(),
        };
        if let Some(dir) = resolve_store_dir(spec, std::env::var_os(STORE_ENV)) {
            match ArtifactStore::open(&dir) {
                Ok(store) => cache.attach_store(Arc::new(store)),
                // Degrade to memory-only: a missing or unwritable store
                // directory must never fail the simulation itself.
                Err(e) => {
                    eprintln!("[campaign] artifact store {} unavailable: {e}", dir.display())
                }
            }
        }
        let sampling = spec.sampling.or_else(|| {
            let raw = std::env::var_os(SIMPOINT_ENV)?;
            let raw = raw.to_string_lossy();
            // Degrade to exact replay: a malformed sampling knob must
            // never fail (or silently skew) the simulation.
            parse_simpoint_env(&raw)
                .map_err(|e| eprintln!("[campaign] ignoring {SIMPOINT_ENV}={raw:?}: {e}"))
                .ok()
        });
        let workers = spec.threads.or_else(|| {
            let raw = std::env::var_os(THREADS_ENV)?;
            let raw = raw.to_string_lossy();
            parse_threads_env(&raw)
                .map_err(|e| eprintln!("[campaign] ignoring {THREADS_ENV}={raw:?}: {e}"))
                .ok()
        });
        let workers =
            workers.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        run_grid(spec, workers, sampling, cache, self.progress.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_memsim::workloads::DgemmParams;

    fn tiny() -> KernelParams {
        KernelParams::Dgemm(DgemmParams { n: 128, nb: 64, abft: true, verify_interval: 2 })
    }

    #[test]
    fn threads_env_values_parse_or_say_why_not() {
        use ThreadsEnvError::{NotANumber, Zero};
        assert_eq!(parse_threads_env("1"), Ok(1));
        assert_eq!(parse_threads_env(" 6 "), Ok(6));
        assert_eq!(parse_threads_env("0"), Err(Zero));
        assert_eq!(parse_threads_env("  "), Err(NotANumber(String::new())), "empty, once trimmed");
        let nan = |value: &str| Err(NotANumber(value.to_string()));
        for value in ["", "abc", "-1", "2.5", "4,8", "+", "99999999999999999999"] {
            assert_eq!(parse_threads_env(value), nan(value), "{value}");
        }
        let shown = parse_threads_env("abc").unwrap_err().to_string();
        assert!(shown.contains("\"abc\""), "{shown}");
        assert!(parse_threads_env("0").unwrap_err().to_string().contains("at least 1"));
    }

    #[test]
    fn simpoint_env_values_parse_or_say_which_field_is_wrong() {
        use SimPointEnvError::{FieldCount, NotANumber, Zero};
        assert_eq!(parse_simpoint_env("1"), Ok(SimPointConfig::default()));
        assert_eq!(parse_simpoint_env(" Default "), Ok(SimPointConfig::default()));
        assert_eq!(
            parse_simpoint_env("4096, 8, 7, 12"),
            Ok(SimPointConfig {
                interval: 4096,
                max_phases: 8,
                seed: 7,
                iterations: 12,
                strata: SimPointConfig::default().strata,
            })
        );
        assert_eq!(
            parse_simpoint_env("4096,8,0,12,2"),
            Ok(SimPointConfig {
                interval: 4096,
                max_phases: 8,
                seed: 0,
                iterations: 12,
                strata: 2
            })
        );
        assert_eq!(parse_simpoint_env(""), Err(FieldCount(1)));
        assert_eq!(parse_simpoint_env("4096,8"), Err(FieldCount(2)));
        assert_eq!(parse_simpoint_env("1,2,3,4,5,6"), Err(FieldCount(6)));
        let nan = |field, value: &str| Err(NotANumber { field, value: value.to_string() });
        assert_eq!(parse_simpoint_env("4096,8,x,12"), nan("seed", "x"));
        assert_eq!(parse_simpoint_env("4096,8,7,12,"), nan("strata", ""));
        assert_eq!(parse_simpoint_env("-1,8,7,12"), nan("interval", "-1"));
        assert_eq!(parse_simpoint_env("4096,99999999999999999999,7,12"), {
            nan("max_phases", "99999999999999999999")
        });
        // A zero was clamped to one before: `0,...` asked for a slice, and a
        // fingerprint row, per event of the stream.
        for (value, field) in [
            ("0,8,7,12", "interval"),
            ("4096,0,7,12", "max_phases"),
            ("4096,8,7,0", "iterations"),
            ("4096,8,7,12,0", "strata"),
        ] {
            assert_eq!(parse_simpoint_env(value), Err(Zero { field }), "{value}");
        }
        let shown = parse_simpoint_env("0,8,7,12").unwrap_err().to_string();
        assert!(shown.contains("`interval`") && shown.contains("at least 1"), "{shown}");
        let shown = parse_simpoint_env("4096,8,x,12").unwrap_err().to_string();
        assert!(shown.contains("`seed`") && shown.contains("\"x\""), "{shown}");
    }

    proptest::proptest! {
        #[test]
        fn simpoint_env_never_panics_and_round_trips_every_valid_config(
            bytes in proptest::collection::vec(0u8..=255, 0..24),
            picks in proptest::collection::vec(0usize..16, 0..24),
            interval in 1u64..=u64::MAX,
            max_phases in 1usize..=usize::MAX,
            seed: u64,
            iterations in 1usize..=usize::MAX,
            strata in 1usize..=usize::MAX,
        ) {
            use proptest::prelude::*;
            // Any bytes at all, and strings of the grammar's own pieces
            // (which get past the field count): an answer, never a panic.
            let _ = parse_simpoint_env(&String::from_utf8_lossy(&bytes));
            const PIECES: [&str; 16] = [
                ",", ",", ",", "0", "1", "7", "42", "18446744073709551615",
                "18446744073709551616", "-", "+", " ", "x", "default", "1e3", "\u{0663}",
            ];
            let soup: String = picks.iter().map(|&i| PIECES[i]).collect();
            if let Ok(cfg) = parse_simpoint_env(&soup) {
                prop_assert!(
                    cfg.interval > 0 && cfg.max_phases > 0 && cfg.iterations > 0 && cfg.strata > 0,
                    "{soup:?} gave {cfg:?}"
                );
            }

            let cfg = SimPointConfig { interval, max_phases, seed, iterations, strata };
            let csv = format!("{interval},{max_phases},{seed},{iterations},{strata}");
            prop_assert_eq!(parse_simpoint_env(&csv), Ok(cfg));
            let spaced = format!(" {interval} , {max_phases},{seed} ,{iterations}");
            let defaulted = SimPointConfig { strata: SimPointConfig::default().strata, ..cfg };
            prop_assert_eq!(parse_simpoint_env(&spaced), Ok(defaulted));
        }
    }

    #[test]
    fn builder_threads_sampling_through_the_spec() {
        let sp = SimPointConfig { interval: 2048, max_phases: 4, ..SimPointConfig::default() };
        let spec = CampaignSpec::builder().workload(tiny()).sampling(sp).build();
        assert_eq!(spec.sampling, Some(sp));
        assert!(CampaignSpec::builder().build().sampling.is_none());
    }

    #[test]
    fn empty_spec_resolves_to_the_basic_grid() {
        let spec = CampaignSpec::builder().build();
        assert_eq!(spec.workloads.len(), 4);
        assert_eq!(spec.strategies.len(), 6);
        assert_eq!(spec.configs.len(), 1);
        assert_eq!(spec.cells(), 24);
        assert!(spec.store_dir.is_none());
    }

    #[test]
    fn builder_composes_grid_blocks() {
        let spec = CampaignSpec::builder()
            .workload(tiny())
            .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
            .config("a", SystemConfig::default())
            .config("b", SystemConfig::default())
            .threads(2)
            .store("/tmp/unused")
            .build();
        assert_eq!(spec.cells(), 4);
        assert_eq!(spec.threads, Some(2));
        assert_eq!(spec.store_dir, Some(PathBuf::from("/tmp/unused")));
    }

    #[test]
    fn empty_store_env_counts_as_unset() {
        let bare = CampaignSpec::builder().build();
        assert_eq!(resolve_store_dir(&bare, None), None);
        assert_eq!(resolve_store_dir(&bare, Some("".into())), None, "`VAR=` must not root at cwd");
        assert_eq!(resolve_store_dir(&bare, Some("env-dir".into())), Some("env-dir".into()));
        let named = CampaignSpec::builder().store("spec-dir").build();
        assert_eq!(resolve_store_dir(&named, Some("env-dir".into())), Some("spec-dir".into()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn store_env_never_panics_from_resolve_to_open(
            bytes in proptest::collection::vec(0u8..=255, 0..24),
            picks in proptest::collection::vec(0usize..10, 0..8),
        ) {
            use proptest::prelude::*;
            use std::os::unix::ffi::OsStringExt;
            // Arbitrary bytes, and strings of the awkward pieces: empty,
            // whitespace, NUL, non-UTF-8, dots. No `/`, so each value is
            // one path component, opened under a scratch root rather than
            // the working directory ("." and ".." open the root itself or
            // the temp dir above it, both existing).
            const PIECES: [&[u8]; 10] =
                [b"", b" ", b"\t", b"\n", b"\0", b"\xff", b"\xc3", b".", b"..", b"store"];
            let soup: Vec<u8> = picks.iter().flat_map(|&i| PIECES[i].iter().copied()).collect();
            let root = std::env::temp_dir().join(format!("abft-store-env-{}", std::process::id()));
            let bare = CampaignSpec::builder().build();
            for raw in [bytes, soup] {
                let raw: Vec<u8> = raw.into_iter().map(|b| if b == b'/' { b'_' } else { b }).collect();
                let env = OsString::from_vec(raw);
                let dir = resolve_store_dir(&bare, Some(env.clone()));
                prop_assert!(dir.is_none() == env.is_empty(), "{env:?} resolved to {dir:?}");
                if let Some(dir) = dir {
                    // A value either way: a store, or why there is none.
                    if ArtifactStore::open(root.join(&dir)).is_ok() {
                        prop_assert!(root.join(&dir).is_dir(), "{:?}", dir);
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn a_store_root_that_is_a_file_degrades_to_a_run_without_a_store() {
        let file = std::env::temp_dir().join(format!("abft-client-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let spec = |store: Option<&PathBuf>| {
            let b = CampaignSpec::builder()
                .workload(tiny())
                .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
                .threads(1);
            match store {
                Some(dir) => b.store(dir).build(),
                None => b.build(),
            }
        };
        let run = |spec| CampaignClient::with_cache(Arc::new(TraceCache::new())).run(&spec);
        let (degraded, plain) = (run(spec(Some(&file))), run(spec(None)));
        let m = &degraded.metrics;
        let counters = (m.store_hits, m.store_misses, m.store_writes, m.store_evictions);
        assert_eq!((counters, m.write_failures), ((0, 0, 0, 0), 0));
        assert_eq!(degraded.results.len(), plain.results.len());
        for (a, b) in degraded.results.iter().zip(&plain.results) {
            assert_eq!(a.stats, b.stats, "a run without its store must be the run without one");
        }
        assert_eq!(std::fs::read(&file).unwrap(), b"not a directory", "the file is left alone");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn local_client_runs_a_spec_through_the_engine() {
        let cache = Arc::new(TraceCache::new());
        let spec =
            CampaignSpec::builder().workload(tiny()).strategy(Strategy::NoEcc).threads(1).build();
        let run = CampaignClient::with_cache(Arc::clone(&cache)).run(&spec);
        assert_eq!(run.results.len(), 1);
        assert_eq!(run.metrics.cache_builds, 1);
        assert_eq!(run.metrics.store_hits, 0, "no store attached");
        // The grid cell and a direct full-hierarchy cell agree bit-for-bit.
        let direct = crate::campaign::run_cell(
            abft_memsim::SimInput::Source(&mut tiny().stream()),
            &SystemConfig::default(),
            Strategy::NoEcc,
        );
        assert_eq!(run.results[0].stats, direct);
    }

    #[test]
    fn warm_store_run_skips_generation_in_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!("abft-client-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = CampaignSpec::builder()
            .workload(tiny())
            .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
            .threads(1)
            .store(&dir)
            .build();

        let cold_cache = Arc::new(TraceCache::new());
        let cold = CampaignClient::with_cache(cold_cache).run(&spec);
        assert_eq!(cold.metrics.cache_builds, 1);
        assert_eq!(cold.metrics.filter_builds, 1);
        assert_eq!(cold.metrics.store_writes, 2, "trace + miss blobs persisted");

        // A fresh cache (fresh-process stand-in) over the warm store:
        // zero regenerations, bit-identical stats.
        let warm_cache = Arc::new(TraceCache::new());
        let warm = CampaignClient::with_cache(warm_cache).run(&spec);
        assert_eq!(warm.metrics.cache_builds, 0, "trace loaded, not regenerated");
        assert_eq!(warm.metrics.filter_builds, 0, "miss stream loaded, not refiltered");
        assert!(warm.metrics.store_hits >= 1);
        assert_eq!(warm.metrics.store_misses, 0);
        for (a, b) in cold.results.iter().zip(&warm.results) {
            assert_eq!(a.stats, b.stats, "warm-disk results must be bit-identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
