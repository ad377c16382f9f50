//! Probes of single layers, by their public functions only.
//!
//! A traced rep can put a span around `Machine::simulate`, but not inside
//! it. To split replay further the steps it takes per miss event are run
//! on their own here — decode the event, look the line's scheme up in the
//! range registers, map the address to DRAM coordinates, service the
//! request — each over the whole stream. What replay costs beyond their
//! sum is reported as `system.unexplained_ns_per_event`: the remainder is
//! a number.

use crate::trace::Tracer;
use abft_coop_core::Strategy;
use abft_memsim::dram::AccessKind;
use abft_memsim::trace::{Access, RegionMap};
use abft_memsim::workloads::abft_region_ids;
use abft_memsim::{
    AccessSource, AddressMap, Dram, KernelParams, Machine, MissEventKind, MissStream, PackedTrace,
    SimRequest, SystemConfig, TraceCache,
};
use std::hint::black_box;
use std::time::Instant;

/// An [`AccessSource`] whose every `fill` is a span: lets the time a
/// consumer (`MissStream::build`, `PackedTrace::from_source`) spends
/// pulling from its producer be taken out of the consumer's self time.
pub struct Timed<'a, S> {
    inner: S,
    tr: &'a Tracer,
    name: &'static str,
}

impl<'a, S: AccessSource> Timed<'a, S> {
    pub fn new(inner: S, tr: &'a Tracer, name: &'static str) -> Self {
        Timed { inner, tr, name }
    }
}

impl<S: AccessSource> AccessSource for Timed<'_, S> {
    fn regions(&self) -> &RegionMap {
        self.inner.regions()
    }

    fn fill(&mut self, buf: &mut Vec<Access>, max: usize) -> usize {
        self.tr.span(self.name, || self.inner.fill(buf, max))
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn instructions_hint(&self) -> Option<u64> {
        self.inner.instructions_hint()
    }
}

/// Seconds each per-event step of replay takes over one whole stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerEvent {
    pub events: u64,
    pub decode_s: f64,
    pub lookup_s: f64,
    pub map_s: f64,
    pub access_s: f64,
}

impl PerEvent {
    pub fn add(&mut self, o: &PerEvent) {
        self.events += o.events;
        self.decode_s += o.decode_s;
        self.lookup_s += o.lookup_s;
        self.map_s += o.map_s;
        self.access_s += o.access_s;
    }
}

/// Events resolved into DRAM requests at a time (bounds the probe's
/// memory on paper-scale streams).
const PROBE_CHUNK: usize = 1 << 20;

/// Run replay's per-event steps one at a time over `ms` under
/// `strategy`'s programmed range registers. Also checks the DRAM model's
/// own conservation law, which `SimStats` does not expose: row hits +
/// activations = requests serviced = requests the stream recorded.
pub fn per_event(
    ms: &MissStream,
    cfg: &SystemConfig,
    strategy: Strategy,
) -> Result<PerEvent, String> {
    let mut machine = Machine::new(cfg.clone());
    machine.program_ecc(ms.regions(), &strategy.assignment(&abft_region_ids(ms.regions())));
    let mc = &machine.controller;
    let map = AddressMap::new(cfg);
    let mut dram = Dram::new(cfg.clone());
    let mut out = PerEvent { events: ms.events(), ..PerEvent::default() };

    let t = Instant::now();
    for ev in ms.iter() {
        black_box(ev);
    }
    out.decode_s = t.elapsed().as_secs_f64();

    let mut events = ms.iter();
    let mut requests: Vec<(u64, bool)> = Vec::with_capacity(2 * PROBE_CHUNK);
    let mut kinds: Vec<AccessKind> = Vec::with_capacity(2 * PROBE_CHUNK);
    let mut now_ns = 0.0f64;
    let mut recorded = 0u64;
    loop {
        requests.clear();
        for ev in events.by_ref().take(PROBE_CHUNK) {
            match ev.kind {
                MissEventKind::Writeback(wb) => requests.push((wb, true)),
                MissEventKind::Demand { writeback } => {
                    requests.push((ev.trigger.addr, false));
                    requests.extend(writeback.map(|wb| (wb, true)));
                }
            }
        }
        if requests.is_empty() {
            break;
        }
        recorded += requests.len() as u64;

        let t = Instant::now();
        for &(paddr, _) in &requests {
            black_box(mc.scheme_for(black_box(paddr)));
        }
        out.lookup_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        for &(paddr, _) in &requests {
            black_box(map.decode(black_box(paddr)));
        }
        out.map_s += t.elapsed().as_secs_f64();

        kinds.clear();
        kinds.extend(requests.iter().map(|&(paddr, _)| AccessKind::Scheme(mc.scheme_for(paddr))));
        // Each request arrives as the previous one completes: the model's
        // service path without replay's stall feedback around it.
        let t = Instant::now();
        for (&(paddr, write), &kind) in requests.iter().zip(&kinds) {
            now_ns = dram.access_kind(now_ns, paddr, write, kind).completion_ns;
        }
        out.access_s += t.elapsed().as_secs_f64();
    }
    black_box(now_ns);

    let s = &dram.stats;
    if s.row_hits + s.activations != s.reads + s.writes || s.reads + s.writes != recorded {
        return Err(format!(
            "DRAM conservation: {} row hits + {} activations, {} reads + {} writes, {} recorded",
            s.row_hits, s.activations, s.reads, s.writes, recorded
        ));
    }
    Ok(out)
}

/// Set-up's self-check, on one default-scale kernel: the full path
/// (`SimRequest::source`, caches simulated) and the filtered replay give
/// bit-identical `SimStats`, and the DRAM model conserves requests.
pub fn selfcheck(
    cache: &TraceCache,
    params: KernelParams,
    cfg: &SystemConfig,
) -> Result<(), String> {
    let strategy = crate::workloads::COLD_STRATEGY;
    let packed = cache.get(params);
    let ms = cache.get_filtered(params, cfg);
    let assign = || strategy.assignment(&abft_region_ids(ms.regions()));
    let full =
        Machine::new(cfg.clone()).simulate(SimRequest::source(&mut packed.replay(), assign()));
    let filtered = Machine::new(cfg.clone()).simulate(SimRequest::miss_stream(&ms, assign()));
    if full != filtered {
        return Err(format!("{}: full-path and filtered replay disagree", params.label()));
    }
    per_event(&ms, cfg, strategy).map(|_| ())
}

/// Seconds trace generation and packing take apart, over `kernels`
/// (`build_packed` fuses the two; `from_source` over a timed stream does
/// not).
#[derive(Debug, Clone, Copy, Default)]
pub struct GenSplit {
    pub accesses: u64,
    pub gen_s: f64,
    pub encode_s: f64,
}

pub fn gen_split(kernels: &[KernelParams]) -> GenSplit {
    let tr = Tracer::new();
    let mut out = GenSplit::default();
    for (i, &p) in kernels.iter().enumerate() {
        let packed = tr.rep(i as u32, || {
            tr.span("packed.from_source", || {
                PackedTrace::from_source(&mut Timed::new(p.stream(), &tr, "workloads.gen"))
            })
        });
        out.accesses += black_box(packed).len();
    }
    // Sums over the kernels: each "rep" here is a different kernel.
    let spans = tr.self_seconds_total();
    out.gen_s = spans.get("workloads.gen").copied().unwrap_or(0.0);
    out.encode_s = spans.get("packed.from_source").copied().unwrap_or(0.0);
    out
}
