//! `Machine` held bit for bit to the reference machine (`reference/mod.rs`):
//! every `SimStats` and the miss stream's events on every input form, and
//! the DRAM device request by request.

mod reference;

use abft_ecc::EccScheme;
use abft_memsim::config::RowPolicy;
use abft_memsim::dram::AccessKind;
use abft_memsim::{
    AccessSource, Dram, EccAssignment, Machine, MissEventKind, MissStream, PackedTrace,
    PhaseSample, SimPointConfig, SimPointSelection, SimRequest, SystemConfig,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use reference::{
    caches, hostile_trace, input, node, scheme_of, simulate, standby_nj, walk, whole, Device, Seen,
    Unhinted,
};
use std::sync::Arc;

/// A hardware policy that hands out every kind, turn by turn and line by
/// line, so the order it is asked in shows.
fn every_kind() -> impl FnMut(u64) -> AccessKind {
    let mut asked = 0;
    move |paddr| {
        asked += 1;
        let kinds = [EccScheme::None, EccScheme::Secded, EccScheme::Chipkill];
        let kinds = [kinds.map(AccessKind::Scheme).as_slice(), &[AccessKind::FineSecded]].concat();
        kinds[((paddr >> 6) + asked) as usize % 4]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every input form, every lane of a row of the six strategies and a
    /// custom policy, on two drawn nodes a case (open-page and closed-page,
    /// each with caches and threads of its own), held to the reference
    /// machine: `{:?}` of every `SimStats`, and the miss stream's events.
    #[test]
    fn the_machine_is_the_reference_machine_bit_for_bit(seed: u64) {
        use EccScheme::{Chipkill, None as NoEcc, Secded};
        let rng = &mut ChaCha8Rng::seed_from_u64(seed);
        let trace = hostile_trace(rng);
        let packed = Arc::new(PackedTrace::from_source(&mut trace.replay()));
        let abft = [0, 1];
        let assigns = [
            EccAssignment::uniform(NoEcc),
            EccAssignment::uniform(Secded),
            EccAssignment::uniform(Chipkill),
            EccAssignment::relaxed(Chipkill, NoEcc, &abft),
            EccAssignment::relaxed(Secded, NoEcc, &abft),
            EccAssignment::relaxed(Chipkill, Secded, &abft),
        ];
        let (mut seen, mut events, mut scaled) = (Seen::default(), [false; 3], false);
        for row_policy in [RowPolicy::Open, RowPolicy::Closed] {
            // The open-page node has banks that change rows, and caches
            // that let a dirty line leave L2 while L1 keeps it.
            let open = (row_policy == RowPolicy::Open) as usize;
            let (caches, threads) = (caches(rng.random_range(open..5)), [1, 3, 4][rng.random_range(0..3)]);
            let shape = rng.random_range(open..3);
            let cfg = SystemConfig { row_policy, ..node(rng, shape, caches, threads) };
            cfg.validate().unwrap();
            let w = walk(&trace, caches.0, caches.1, threads as u64);
            for ev in &w.events {
                events[match ev.kind {
                    MissEventKind::Writeback(_) => 0,
                    MissEventKind::Demand { writeback } => 1 + writeback.is_some() as usize,
                }] = true;
            }
            let ms = MissStream::build(&mut trace.replay(), caches.0, caches.1, threads);
            prop_assert!(ms.iter().eq(w.events.iter().copied()), "the miss stream's events");
            let interval = rng.random_range(8..40);
            let sp = SimPointConfig { interval, max_phases: 3, ..SimPointConfig::default() };
            let selection = Arc::new(SimPointSelection::build(&ms, sp));
            let sample = PhaseSample::condense(&ms, Arc::clone(&selection));
            let sampled: Vec<_> = selection.phases().iter().map(|ph| (ph.start, ph.end, ph.scale())).collect();
            scaled |= sampled.iter().any(|&(.., scale)| scale != 1.0);
            let exact = [(0, w.events.len() as u64, 1.0)];
            let custom = EccAssignment::uniform([NoEcc, Chipkill][rng.random_range(0..2)]);
            let source = |form: &str| -> Box<dyn AccessSource + '_> {
                match form {
                    "trace, unhinted" => Box::new(Unhinted(trace.replay())),
                    "packed" => Box::new(packed.replay()),
                    "packed, unhinted" => Box::new(Unhinted(packed.replay())),
                    _ => Box::new(trace.replay()),
                }
            };
            let forms = ["trace", "trace, unhinted", "packed", "packed, unhinted", "miss stream", "sampled miss stream", "sample"];
            for form in forms {
                let phases: &[_] = if form.contains("sample") { &sampled } else { &exact };
                let mut src = source(form);
                let row = Machine::simulate_lanes(&cfg, input(form, &mut *src, &ms, &selection, &sample), &assigns);
                for (lane, assign) in row.iter().zip(&assigns) {
                    let mut registers = |paddr| AccessKind::Scheme(scheme_of(&trace.regions, assign, paddr));
                    let want = simulate(&cfg, &trace.regions, &w, phases, &mut registers, assign.any_ecc(), &mut seen);
                    let got = format!("{lane:?}");
                    prop_assert!(got == want, "{form} under {assign:?}, {cfg:?}:\n{got}\n{want}");
                }
                let mut policy = every_kind();
                let request = SimRequest::new(input(form, &mut *src, &ms, &selection, &sample), custom.clone());
                let got = format!("{:?}", Machine::new(cfg.clone()).simulate(request.with_policy(&mut policy)));
                let want = simulate(&cfg, &trace.regions, &w, phases, &mut every_kind(), custom.any_ecc(), &mut seen);
                prop_assert!(got == want, "{form} under a custom policy, {cfg:?}:\n{got}\n{want}");
            }
        }
        let guard = [
            ("a stand-alone write-back", events[0]),
            ("a demand", events[1]),
            ("a demand with its write-back", events[2]),
            ("a lock-stepped chipkill pair", seen.lockstep),
            ("a refresh stall", seen.refresh_stall),
            ("a row conflict", seen.conflict),
            ("a closed-page run", seen.closed_page),
            ("every access kind", seen.kinds == [true; 4]),
            ("a write-back queued behind its demand", seen.queued_writeback),
            ("runs for the per-run pull", packed.packed_bytes() < 8 * packed.len()),
            ("a scaled phase", scaled),
        ];
        for (what, met) in guard {
            prop_assert!(met, "the draw met no {what}");
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Request by request on the device alone, with arrivals that run
    /// backwards (a write-back issued behind a later demand) and that land
    /// on the edges of refresh blackouts, every kind, both row policies and
    /// every node shape.
    #[test]
    fn the_device_serves_each_request_as_the_reference_device(seed: u64) {
        let rng = &mut ChaCha8Rng::seed_from_u64(seed);
        let row_policy = if rng.random_bool(0.5) { RowPolicy::Closed } else { RowPolicy::Open };
        let shape = rng.random_range(0..3);
        let cfg = SystemConfig { row_policy, ..node(rng, shape, caches(2), 1) };
        cfg.validate().unwrap();
        let (cycle_ns, mut seen) = (1.0 / cfg.clock_ghz, Seen::default());
        let refi = whole(cfg.timing.t_refi_ns, cfg.clock_ghz);
        let rfc = whole(cfg.timing.t_rfc_ns, cfg.clock_ghz);
        let mean_gap = [0, 50, 6000][rng.random_range(0..3)];
        let (mut fast, mut slow, mut kinds) = (Dram::new(cfg.clone()), Device::new(&cfg), every_kind());
        let (mut now, mut paddr, mut last) = (0u64, 0u64, 0u64);
        for i in 0..4000 {
            now += rng.random_range(0..=2 * mean_gap);
            let start = match rng.random_range(0..8) {
                0 => now.saturating_sub(rng.random_range(0..1000)),
                1 => (now.div_ceil(refi) * refi + rng.random_range(0..rfc + 8)).saturating_sub(4),
                _ => now,
            };
            paddr = if rng.random_bool(0.7) { paddr + 64 } else { rng.random_range(0..1u64 << 28) * 64 };
            let (kind, write) = (kinds(paddr), rng.random_bool(0.3));
            let got = fast.access_kind(start as f64 * cycle_ns, paddr, write, kind);
            let want = slow.serve(start, paddr, write, kind, &mut seen);
            let ns = |cycles: u64| (cycles as f64 * cycle_ns).to_bits();
            prop_assert!(
                (got.completion_ns.to_bits(), got.queue_ns.to_bits(), got.row) == (ns(want.0), ns(want.1), want.2),
                "request {i} at cycle {start}, paddr {paddr:#x}, {kind:?}: {got:?} vs {want:?}"
            );
            last = last.max(want.0);
        }
        let (s, c) = (fast.stats, &slow.c);
        let [hits, acts] = [s.row_hits, s.activations];
        let got = [s.reads, s.writes, hits, acts, s.per_scheme[0], s.per_scheme[1], s.per_scheme[2], s.refresh_stalls, s.queue_cycles, s.latency_cycles];
        prop_assert_eq!((got, s.dynamic_nj.to_bits()), (c.0, c.1.to_bits()));
        let busy: Vec<f64> = c.2.iter().map(|&b| b as f64).collect();
        for (elapsed_ns, powered) in [(last as f64 * cycle_ns, true), (last as f64 * cycle_ns * 1.5, false)] {
            let want = standby_nj(&cfg, &busy, elapsed_ns, powered);
            prop_assert_eq!(fast.standby_nj(elapsed_ns, powered).to_bits(), want.to_bits());
        }
        prop_assert!(seen.kinds == [true; 4] && seen.lockstep, "{:?}", seen);
        prop_assert!(mean_gap < 6000 || seen.refresh_stall, "4000 requests met no refresh");
    }
}
