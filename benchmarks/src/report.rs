//! The metric tables (mirrored by BENCHMARK.json), the traced run that
//! fills the per-layer one, and the machine-readable summary line.
//!
//! End-to-end metrics are measured with tracing off (`--trace 0`). The
//! traced run (`--trace 1`) times a few untraced reps as its own baseline,
//! re-enacts the same number under spans, probes single layers, and derives
//! every per-layer number as self time over that layer's work count. A
//! layer that does no work in a workload reads 0 there.

use crate::accounted_rep;
use crate::check::{sampled_err_pct, Tally};
use crate::claims::{paper_dev_pp, GridCell};
use crate::layers::{gen_split, per_event, PerEvent};
use crate::stats::fastest;
use crate::trace::Tracer;
use crate::workloads::{Kind, Rep, Workload, COLD_STRATEGY};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// An end-to-end metric as BENCHMARK.json declares it. Lower is better
/// for all three.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median a change may worsen it by.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    // From `main` entry to the first timed rep: set-up plus the warm-up
    // rep.
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
    // The fastest timed rep's wall time ÷ miss events its cells stand
    // for. Host time per simulated event, so seeds that resize the problem
    // stay comparable.
    EndToEnd { name: "campaign_ns_per_event", unit: "ns", bound: 0.25 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", bound: 0.05 },
];

/// The per-layer metrics, `(name, unit)`. Which end-to-end metric each
/// should move, on which workload, is written down in README.md ("How the
/// metrics interact").
pub const PER_LAYER: [(&str, &str); 54] = [
    ("workloads.build_ns_per_access", "ns"),
    ("workloads.gen_ns_per_access", "ns"),
    ("packed.encode_ns_per_access", "ns"),
    ("packed.decode_ns_per_access", "ns"),
    ("packed.bytes_per_access", "B"),
    ("miss_stream.filter_ns_per_access", "ns"),
    ("miss_stream.events_per_access", "1"),
    ("miss_stream.decode_ns_per_event", "ns"),
    ("miss_stream.bytes_per_event", "B"),
    ("controller.lookup_ns_per_event", "ns"),
    ("dram.map_ns_per_event", "ns"),
    ("dram.access_ns_per_event", "ns"),
    ("system.replay_ns_per_event", "ns"),
    ("system.replay_ns_per_event.dgemm", "ns"),
    ("system.replay_ns_per_event.cholesky", "ns"),
    ("system.replay_ns_per_event.cg", "ns"),
    ("system.replay_ns_per_event.hpl", "ns"),
    ("system.unexplained_ns_per_event", "ns"),
    ("system.sampled_ns_per_stream_event", "ns"),
    ("simpoint.select_ns_per_event", "ns"),
    ("simpoint.slices", "count"),
    ("simpoint.phases", "count"),
    ("simpoint.replayed_event_share", "1"),
    ("simpoint.err_cycles_pct", "%"),
    ("simpoint.err_energy_pct", "%"),
    ("sampled_err_pct", "%"),
    ("paper_dev_pp", "pp"),
    ("store.save_trace_ns_per_access", "ns"),
    ("store.save_miss_ns_per_event", "ns"),
    ("store.load_miss_ns_per_event", "ns"),
    ("store.load_simpoint_ns", "ns"),
    ("store.blob_bytes_per_access", "B"),
    ("store.blob_bytes_per_event", "B"),
    ("store_mib", "MiB"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("store.evictions", "count"),
    ("trace_cache.builds", "count"),
    ("trace_cache.hits", "count"),
    ("trace_cache.filter_builds", "count"),
    ("trace_cache.filter_hits", "count"),
    ("trace_cache.simpoint_builds", "count"),
    ("trace_cache.resident_mib", "MiB"),
    ("campaign.wall_s", "s"),
    ("campaign.cell_s_sum", "s"),
    ("campaign.non_cell_s", "s"),
    ("campaign.wall_s_at_nproc", "s"),
    ("campaign.parallel_efficiency", "1"),
    ("campaign.nproc", "count"),
    ("budget.explained_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.cpu_s_per_wall_s", "1"),
    ("trace.reps", "count"),
];

/// One measured value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<40} {:>16.6} {}", self.name, self.value, self.unit)?;
        match END_TO_END.iter().find(|d| d.name == self.name) {
            Some(d) => write!(f, "  (lower is better, bound {:.0}%)", d.bound * 100.0),
            None => Ok(()),
        }
    }
}

/// The last line of stdout.
pub fn summary_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// `a / b`, and 0 for a layer that did no work.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Worst sampled-vs-exact error over the cells that carry an exact
/// reference, in percent: (cycles, total memory energy).
fn sampled_errs(rep: &Rep) -> Option<(f64, f64)> {
    let errs = rep.cells.iter().filter_map(|c| Some(sampled_err_pct(&c.stats, c.exact.as_ref()?)));
    errs.reduce(|(a, b), (cy, en)| (a.max(cy), b.max(en)))
}

/// The exact (timing-free) results a user sees, each on the workloads
/// where it is defined: `store_mib`, `sampled_err_pct`, `paper_dev_pp`.
/// Both kinds of run print them, from one rep through the engine.
pub fn exact(kind: Kind, w: &dyn Workload, rep: &Rep) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let blobs = w.store_bytes();
    if blobs.total() > 0 {
        out.push(("store_mib", blobs.total() as f64 / (1 << 20) as f64));
    }
    if let Some((cycles, energy)) = sampled_errs(rep) {
        out.push(("sampled_err_pct", cycles.max(energy)));
    }
    // The paper's headline savings, from the fig07 grid's cells.
    if kind == Kind::GridReplay {
        let grid: Vec<GridCell<'_>> = rep
            .cells
            .iter()
            .filter_map(|c| {
                let (kernel, strategy) = c.label.split_once(" x ")?;
                Some(GridCell { kernel, strategy, stats: &c.stats })
            })
            .collect();
        out.push(("paper_dev_pp", paper_dev_pp(&grid)?));
    }
    let unit = |name| PER_LAYER.iter().find(|(n, _)| *n == name).expect("declared per-layer").1;
    Ok(out.into_iter().map(|(name, v)| Metric::new(name, v, unit(name))).collect())
}

/// The traced run. Returns every per-layer metric, in table order.
pub fn traced(
    kind: Kind,
    w: &mut dyn Workload,
    tally: &mut Tally,
    reps: usize,
    out: &Path,
) -> Result<Vec<Metric>, String> {
    // A third of the run each for the untraced baseline and the traced
    // re-enactment, turn by turn so both meet the same neighbours; the
    // rest goes to the probes and the nproc reps.
    let n = (reps / 3).clamp(3, 5);
    let tr = Tracer::new();
    let mut untraced = Vec::with_capacity(n);
    for i in 0..n {
        untraced.push(accounted_rep(w, tally));
        let rep = w.traced_rep(&tr, i as u32);
        crate::account(tally, &rep);
    }
    let engine = &untraced[fastest(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>())];
    let (wall_s, cell_s) = (engine.wall_s, engine.cell_wall_s);
    let own = tr.self_seconds();
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let ns = |name: &str| s(name) * 1e9;
    let c = |name: &str| tr.per_rep(name);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // What the streams are.
    let streams = w.streams();
    let accesses: f64 = streams.iter().map(|st| st.facts.accesses as f64).sum();
    let events: f64 = streams.iter().map(|st| st.facts.events as f64).sum();
    let stream_bytes: f64 = streams.iter().map(|st| st.ms.packed_bytes() as f64).sum();
    m.insert("miss_stream.events_per_access", per(events, accesses));
    m.insert("miss_stream.bytes_per_event", per(stream_bytes, events));

    // Generation, packing, filtering (grid_cold).
    let generated = c("accesses.generated");
    m.insert("workloads.build_ns_per_access", per(ns("workloads.build_packed"), generated));
    m.insert("packed.decode_ns_per_access", per(ns("packed.decode"), generated));
    m.insert("packed.bytes_per_access", per(c("packed.bytes"), generated));
    m.insert("miss_stream.filter_ns_per_access", per(ns("miss_stream.build"), generated));
    if generated > 0.0 {
        let kernels: Vec<_> = streams.iter().map(|st| st.params).collect();
        let split = gen_split(&kernels);
        m.insert("workloads.gen_ns_per_access", per(split.gen_s * 1e9, split.accesses as f64));
        m.insert("packed.encode_ns_per_access", per(split.encode_s * 1e9, split.accesses as f64));
    }

    // Replay, and its per-event steps on their own.
    let exact_spans = ["dgemm", "cholesky", "cg", "hpl"].map(|k| format!("system.replay.{k}"));
    let per_kernel = [
        "system.replay_ns_per_event.dgemm",
        "system.replay_ns_per_event.cholesky",
        "system.replay_ns_per_event.cg",
        "system.replay_ns_per_event.hpl",
    ];
    let (mut replay_ns, mut replayed) = (ns("system.sampled_replay"), c("system.sampled_replay"));
    for (span, metric) in exact_spans.iter().zip(per_kernel) {
        m.insert(metric, per(ns(span), c(span)));
        replay_ns += ns(span);
        replayed += c(span);
    }
    if c("system.sampled_replay") > 0.0 {
        // The paper-scale stream is FT-CG; its slices are replayed by the
        // same per-event loop.
        m.insert("system.replay_ns_per_event.cg", per(replay_ns, replayed));
        m.insert(
            "system.sampled_ns_per_stream_event",
            per(ns("system.sampled_replay"), w.cells() as f64 * events),
        );
    }
    let replay = per(replay_ns, replayed);
    let mut steps = PerEvent::default();
    for st in &streams {
        steps.add(&per_event(&st.ms, &Default::default(), COLD_STRATEGY)?);
    }
    let step = |secs: f64| per(secs * 1e9, steps.events as f64);
    let (decode, lookup, access) =
        (step(steps.decode_s), step(steps.lookup_s), step(steps.access_s));
    m.insert("system.replay_ns_per_event", replay);
    m.insert("miss_stream.decode_ns_per_event", decode);
    m.insert("controller.lookup_ns_per_event", lookup);
    m.insert("dram.map_ns_per_event", step(steps.map_s));
    m.insert("dram.access_ns_per_event", access);
    m.insert("system.unexplained_ns_per_event", replay - decode - lookup - access);

    // Phase sampling.
    m.insert("simpoint.select_ns_per_event", per(ns("simpoint.select"), c("simpoint.select")));
    if let Some(sel) = w.selection() {
        m.insert("simpoint.slices", sel.slices() as f64);
        m.insert("simpoint.phases", sel.phases().len() as f64);
        m.insert(
            "simpoint.replayed_event_share",
            per(sel.replayed_events() as f64, sel.events() as f64),
        );
    }
    let (err_cycles, err_energy) = sampled_errs(engine).unwrap_or((0.0, 0.0));
    m.insert("simpoint.err_cycles_pct", err_cycles);
    m.insert("simpoint.err_energy_pct", err_energy);
    for x in exact(kind, &*w, engine)? {
        m.insert(x.name, x.value);
    }

    // The artifact store.
    let blobs = w.store_bytes();
    m.insert("store.save_trace_ns_per_access", per(ns("store.save_trace"), generated));
    m.insert("store.save_miss_ns_per_event", per(ns("store.save_miss"), c("events.filtered")));
    m.insert("store.load_miss_ns_per_event", per(ns("store.load_miss"), c("events.loaded")));
    m.insert("store.load_simpoint_ns", ns("store.load_simpoint"));
    if blobs.total() > 0 {
        m.insert("store.blob_bytes_per_access", per(blobs.trace as f64, accesses));
        m.insert("store.blob_bytes_per_event", per(blobs.miss as f64, events));
    }
    let k = &engine.counters;
    m.insert("store.hits", k.store_hits as f64);
    m.insert("store.misses", k.store_misses as f64);
    m.insert("store.writes", k.store_writes as f64);
    m.insert("store.evictions", k.store_evictions as f64);
    m.insert("trace_cache.builds", k.cache_builds as f64);
    m.insert("trace_cache.hits", k.cache_hits as f64);
    m.insert("trace_cache.filter_builds", k.filter_builds as f64);
    m.insert("trace_cache.filter_hits", k.filter_hits as f64);
    m.insert("trace_cache.simpoint_builds", k.simpoint_builds as f64);
    m.insert("trace_cache.resident_mib", k.resident_bytes as f64 / (1 << 20) as f64);

    // The campaign engine: what is not cells, and (the fig07 grid only)
    // what workers buy. The nproc reps must also reproduce the one-worker
    // cells bit for bit.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.insert("campaign.wall_s", wall_s);
    m.insert("campaign.cell_s_sum", cell_s);
    m.insert("campaign.non_cell_s", wall_s - cell_s);
    m.insert("campaign.nproc", nproc as f64);
    if let Some(grid) = w.grid_replay() {
        let parallel: Vec<Rep> = (0..3).map(|_| grid.campaign(nproc)).collect();
        parallel.iter().for_each(|r| crate::account(tally, r));
        let best = &parallel[fastest(&parallel.iter().map(|r| r.wall_s).collect::<Vec<_>>())];
        m.insert("campaign.wall_s_at_nproc", best.wall_s);
        m.insert("campaign.parallel_efficiency", per(best.cell_wall_s, nproc as f64 * best.wall_s));
    }

    // The budget: do the layers add up to the end-to-end number?
    let traced_walls = tr.rep_walls_s();
    let traced_wall = traced_walls[fastest(&traced_walls)];
    let layers_s: f64 =
        own.iter().filter(|(name, _)| **name != "campaign.rep").map(|(_, v)| v).sum();
    m.insert("budget.explained_pct", 100.0 * per(layers_s, wall_s));
    m.insert("trace.overhead_pct", 100.0 * (per(traced_wall, wall_s) - 1.0));
    m.insert("trace.cpu_s_per_wall_s", tr.cpu_per_wall());
    m.insert("trace.reps", n as f64);

    println!("layer budget, self seconds per traced rep (untraced campaign_wall_s {wall_s:.4}):");
    for (name, secs) in &own {
        println!("  {name:<28} {secs:>10.4} s {:>6.1}%", 100.0 * per(*secs, wall_s));
    }
    println!(
        "replay {replay:.2} = decode {decode:.2} + lookup {lookup:.2} + access {access:.2} + \
         unexplained {:.2} ns/event",
        replay - decode - lookup - access
    );
    let file = out.join(format!("trace-{}.json", kind.name()));
    tr.write_json(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("spans written to {}", file.display());

    debug_assert!(m.keys().all(|k| PER_LAYER.iter().any(|(name, _)| name == k)), "undeclared");
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"key": "value"` string pair of BENCHMARK.json's metric lists.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..start + json[start..].find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |key: &str| {
                    let at = obj.find(&format!("\"{key}\"")).expect("field present");
                    let rest = obj[at + key.len() + 2..].trim_start_matches([':', ' ']);
                    rest.trim_start_matches('"').split(['"', ',', '}']).next().unwrap().to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let owned = |(n, u): (&str, &str)| (n.to_string(), u.to_string());
        let e2e: Vec<_> = END_TO_END.iter().map(|d| owned((d.name, d.unit))).collect();
        let layers: Vec<_> = PER_LAYER.iter().map(|&d| owned(d)).collect();
        assert_eq!(declared("end_to_end"), e2e, "end_to_end differs from BENCHMARK.json");
        assert_eq!(declared("per_layer"), layers, "per_layer differs from BENCHMARK.json");
        let json = include_str!("../../BENCHMARK.json");
        for d in &END_TO_END {
            let entry = format!("\"name\": \"{}\"", d.name);
            let at = json.find(&entry).expect("metric declared");
            let obj = &json[at..at + json[at..].find('}').unwrap()];
            assert!(obj.contains(&format!("\"bound\": {}", d.bound)), "{}: bound differs", d.name);
        }
    }
}
