//! `perfbench`: the repo's one repeatable benchmark (see README.md).
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process, one campaign worker. A run is set-up, an untimed warm-up
//! rep, then a *fixed count* of identical timed reps (derived
//! from `--seconds` by the workload's nominal rep time, never "loop until
//! the clock says stop"), and reports the fastest of the timed reps.
//! Every metric is printed by name with its unit; the last line of stdout
//! is the machine-readable summary.

mod check;
mod claims;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use check::Tally;
use inputs::Inputs;
use report::{Metric, END_TO_END};
use stats::Quartiles;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{events_per_rep, Kind, Rep, Workload};

/// Untimed reps between set-up and the first timed rep. ISSUE 12 asked
/// for three, to make `setup_s` a longer aggregate; measured, that did not
/// steady it (README.md, "How a run is timed"), and every rep spent
/// warming is one the fastest-rep estimate cannot use.
const WARMUPS: usize = 1;
/// Fewest timed reps an estimate is taken over.
const MIN_REPS: usize = 5;
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let names = || Kind::ALL.map(Kind::name).join(" | ");
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 0, DEFAULT_SECONDS, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| bad(&names()))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad("between 0 and 60"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let kind = kind.ok_or_else(|| format!("--workload <{}> is required", names()))?;
    Ok(Args { kind, seed, seconds, trace })
}

/// Timed reps of one run: fixed by the workload and `--seconds`.
fn rep_count(kind: Kind, seconds: f64) -> usize {
    ((seconds / kind.nominal_rep_s()).round() as usize).max(MIN_REPS)
}

fn account(tally: &mut Tally, rep: &Rep) {
    match &rep.expected_work {
        Ok(()) => tally.rep(&rep.cells),
        Err(why) => tally.fail(rep.cells.len().max(1) as u64, format!("rep did other work: {why}")),
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.expect("/proc/self/status reports VmHWM") / 1024.0
}

/// One rep through the engine, accounted.
fn accounted_rep(w: &mut dyn Workload, tally: &mut Tally) -> Rep {
    let rep = w.rep();
    account(tally, &rep);
    rep
}

fn run(args: &Args, t_main: Instant) -> Result<bool, String> {
    for var in [abft_coop_core::STORE_ENV, abft_coop_core::SIMPOINT_ENV] {
        if std::env::var_os(var).is_some() {
            return Err(format!("unset {var}: it redirects every campaign this benchmark runs"));
        }
    }
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let inputs = Inputs::from_seed(args.seed);
    println!("inputs {inputs:?}");
    let mut w = args.kind.setup(&inputs, &out)?;
    let mut tally = Tally::default();
    let reps = rep_count(args.kind, args.seconds);
    println!(
        "perfbench {} seed={} trace={} threads=1 reps={reps} warmups={WARMUPS}",
        args.kind.name(),
        args.seed,
        args.trace as u8
    );

    for _ in 0..WARMUPS {
        accounted_rep(w.as_mut(), &mut tally);
    }
    let setup_s = t_main.elapsed().as_secs_f64();

    let metrics: Vec<Metric> = if args.trace {
        report::traced(args.kind, w.as_mut(), &mut tally, reps, &out)?
    } else {
        let timed: Vec<Rep> = (0..reps).map(|_| accounted_rep(w.as_mut(), &mut tally)).collect();
        let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
        let q = Quartiles::of(&walls);
        let events = events_per_rep(w.as_ref()) as f64;
        let walls: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
        println!("rep_walls_s {}", walls.join(" "));
        println!(
            "campaign_wall_s min {:.4} median {:.4} q1 {:.4} q3 {:.4} over {} reps of {} cells, \
             {events} miss events",
            q.min,
            q.median,
            q.q1,
            q.q3,
            q.n,
            w.cells(),
        );
        let last = timed.last().expect("at least MIN_REPS timed reps");
        for m in report::exact(args.kind, w.as_ref(), last)? {
            println!("{m}");
        }
        let values = [setup_s, q.min * 1e9 / events, peak_rss_mib()];
        END_TO_END.iter().zip(values).map(|(m, v)| Metric::new(m.name, v, m.unit)).collect()
    };
    drop(w);

    for m in &metrics {
        println!("{m}");
    }
    println!("cells_attempted {} cells_failed {}", tally.attempted, tally.failed);
    println!("sim.digest {:016x}", tally.digest());
    for why in &tally.messages {
        println!("FAILED {why}");
    }
    let correct = tally.failed == 0;
    println!("{}", report::summary_json(correct, &tally, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let t_main = Instant::now();
    let outcome = parse_args().and_then(|args| run(&args, t_main));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(2)
        }
    }
}
