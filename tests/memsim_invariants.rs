//! Internal-consistency invariants of the memory-system simulator,
//! exercised with randomized region-tagged traces.

use abft_coop::abft_memsim::system::{EccAssignment, Machine};
use abft_coop::abft_memsim::trace::{RegionMap, Trace};
use abft_coop::abft_memsim::{SimRequest, SystemConfig};
use abft_coop::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_trace(seed: u64, accesses: usize) -> Trace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rm = RegionMap::new();
    let sizes = [1u64 << 22, 1 << 20, 1 << 18, 1 << 16];
    let ids: Vec<_> =
        sizes.iter().enumerate().map(|(i, &s)| rm.alloc(&format!("r{i}"), s, i % 2 == 0)).collect();
    let meta: Vec<(u64, u64)> = ids.iter().map(|&id| (rm.get(id).base, rm.get(id).bytes)).collect();
    let mut t = Trace::new(rm);
    for _ in 0..accesses {
        let k = rng.random_range(0..ids.len());
        let (base, bytes) = meta[k];
        let addr = base + rng.random_range(0..bytes / 64) * 64;
        t.push(addr, ids[k], rng.random_bool(0.3), rng.random_range(0..20));
    }
    t
}

#[test]
fn accounting_identities_hold_across_strategies() {
    let t = random_trace(1, 200_000);
    let regions = abft_region_ids(&t.regions);
    let m = Machine::new(SystemConfig::default());
    for s in Strategy::ALL {
        let st = m.simulate(SimRequest::source(&mut t.replay(), s.assignment(&regions)));
        // Reference conservation.
        let refs: u64 = st.regions.iter().map(|r| r.refs).sum();
        assert_eq!(refs, t.accesses.len() as u64, "{s}");
        // Misses never exceed references, level by level.
        for r in &st.regions {
            assert!(r.l1_misses <= r.refs, "{s}/{}", r.name);
            assert!(r.llc_misses <= r.l1_misses, "{s}/{}", r.name);
        }
        // Every DRAM access was classified under exactly one scheme.
        let dram = st.dram_reads + st.dram_writes;
        let classified: u64 = st.per_scheme.iter().sum();
        assert_eq!(dram, classified, "{s}");
        // Demand reads at DRAM equal LLC misses (write-backs are writes).
        let llc: u64 = st.regions.iter().map(|r| r.llc_misses).sum();
        assert_eq!(st.dram_reads, llc, "{s}");
        // Cycles cover at least the issued work.
        assert!(st.cycles > 0 && st.ipc() > 0.0 && st.ipc() <= 4.0 + 1e-9, "{s}: ipc {}", st.ipc());
        // Energy terms are positive and finite.
        for v in [st.mem_dynamic_j(), st.mem_standby_j(), st.proc_j()] {
            assert!(v.is_finite() && v > 0.0, "{s}");
        }
        assert!(st.avg_dram_latency_ns >= st.avg_dram_queue_ns, "{s}");
        assert!(st.dram_bandwidth_gbps > 0.0, "{s}");
    }
}

#[test]
fn scheme_classification_respects_the_assignment() {
    let t = random_trace(2, 100_000);
    let regions = abft_region_ids(&t.regions);
    let m = Machine::new(SystemConfig::default());

    // Uniform strategies: single scheme bucket.
    let st =
        m.simulate(SimRequest::source(&mut t.replay(), EccAssignment::uniform(EccScheme::Secded)));
    assert_eq!(st.per_scheme[0], 0);
    assert_eq!(st.per_scheme[2], 0);
    assert!(st.per_scheme[1] > 0);

    // Partial: both buckets populated, nothing else.
    let st = m.simulate(SimRequest::source(
        &mut t.replay(),
        EccAssignment::relaxed(EccScheme::Chipkill, EccScheme::None, &regions),
    ));
    assert!(st.per_scheme[0] > 0, "relaxed accesses");
    assert!(st.per_scheme[2] > 0, "strong accesses");
    assert_eq!(st.per_scheme[1], 0, "no SECDED in this strategy");
}

#[test]
fn identical_traces_produce_identical_results() {
    let t = random_trace(3, 50_000);
    let regions = abft_region_ids(&t.regions);
    let assign = Strategy::PartialChipkillSecded.assignment(&regions);
    let m1 = Machine::new(SystemConfig::default());
    let m2 = Machine::new(SystemConfig::default());
    let a = m1.simulate(SimRequest::source(&mut t.replay(), assign.clone()));
    let b = m2.simulate(SimRequest::source(&mut t.replay(), assign.clone()));
    assert_eq!(a, b, "the simulator is deterministic");
    // And re-running on the same machine starts from a quiet node again.
    let c = m1.simulate(SimRequest::source(&mut t.replay(), assign));
    assert_eq!(a, c, "no state carries over between runs");
}

#[test]
fn more_threads_never_slow_the_machine_down_on_compute_bound_work() {
    let mut rm = RegionMap::new();
    let r = rm.alloc("hot", 8 * 1024, true);
    let base = rm.get(r).base;
    let mut t = Trace::new(rm);
    for i in 0..200_000u64 {
        t.push(base + (i % 128) * 64, r, false, 30);
    }
    let c1 = SystemConfig { threads: 1, ..Default::default() };
    let c4 = SystemConfig { threads: 4, ..Default::default() };
    let s1 = Machine::new(c1)
        .simulate(SimRequest::source(&mut t.replay(), EccAssignment::uniform(EccScheme::None)));
    let s4 = Machine::new(c4)
        .simulate(SimRequest::source(&mut t.replay(), EccAssignment::uniform(EccScheme::None)));
    assert!(s4.cycles < s1.cycles, "4 threads must compress compute-bound wall clock");
    assert!(s4.ipc() > 2.0 * s1.ipc());
}
