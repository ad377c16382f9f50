//! Output checks and failure accounting.
//!
//! Nothing here compares against stored simulated values: a model change
//! must be able to land without editing this directory. A cell fails when
//! its `SimStats` differ between reps of one run, break a conservation
//! law, or (sampled cells) stray more than [`SAMPLED_ERR_LIMIT_PCT`] from
//! the exact replay measured in set-up. [`Tally::digest`] is the exact
//! fingerprint two commits are compared by.

use abft_memsim::{MissEventKind, MissStream, SimPointSelection, SimStats};

/// Hard ceiling on sampled-vs-exact error (cycles and total memory
/// energy), in percent.
pub const SAMPLED_ERR_LIMIT_PCT: f64 = 2.0;

/// What one miss stream recorded, counted once by walking it — the
/// reference the "events replayed = events recorded" check compares the
/// simulator's DRAM counters with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFacts {
    pub accesses: u64,
    pub events: u64,
    /// Demand line fills (DRAM reads).
    pub demands: u64,
    /// Dirty-line write-backs (DRAM writes), coupled or standalone.
    pub writebacks: u64,
}

impl StreamFacts {
    pub fn of(ms: &MissStream) -> StreamFacts {
        let (mut demands, mut writebacks) = (0u64, 0u64);
        for ev in ms.iter() {
            match ev.kind {
                MissEventKind::Demand { writeback } => {
                    demands += 1;
                    writebacks += writeback.is_some() as u64;
                }
                MissEventKind::Writeback(_) => writebacks += 1,
            }
        }
        StreamFacts { accesses: ms.accesses(), events: ms.events(), demands, writebacks }
    }
}

/// One simulated grid cell of one rep.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub stats: SimStats,
    /// The stream the cell replayed.
    pub facts: StreamFacts,
    /// Replayed through a phase selection (an estimate, not bit-exact).
    pub sampled: bool,
    /// The exact replay of the same cell, where set-up measured one.
    pub exact: Option<SimStats>,
}

impl Cell {
    /// A cell replayed exactly (whole stream, bit-reproducible).
    pub fn exact(label: String, stats: SimStats, facts: StreamFacts) -> Cell {
        Cell { label, stats, facts, sampled: false, exact: None }
    }
}

/// Relative error of sampled vs exact cycles and total memory energy, in
/// percent.
pub fn sampled_err_pct(sampled: &SimStats, exact: &SimStats) -> (f64, f64) {
    let rel = |a: f64, b: f64| 100.0 * (a - b).abs() / b;
    (
        rel(sampled.cycles as f64, exact.cycles as f64),
        rel(sampled.mem_total_j(), exact.mem_total_j()),
    )
}

/// The conservation laws one cell's statistics must obey.
pub fn conservation(cell: &Cell) -> Result<(), String> {
    let s = &cell.stats;
    let f = &cell.facts;
    let refs: u64 = s.regions.iter().map(|r| r.refs).sum();
    let l1_misses: u64 = s.regions.iter().map(|r| r.l1_misses).sum();
    let llc_misses: u64 = s.regions.iter().map(|r| r.llc_misses).sum();
    if refs != f.accesses {
        return Err(format!("region refs {refs} != accesses {}", f.accesses));
    }
    // hits + misses = accesses at both cache levels. The hit counts are
    // only exposed as rates, so the identity is checked to half a count.
    let l1_hits = s.l1_hit_rate * refs as f64;
    if (l1_hits + l1_misses as f64 - refs as f64).abs() > 0.5 {
        return Err(format!("L1 hits {l1_hits:.1} + misses {l1_misses} != accesses {refs}"));
    }
    let l2_hits = s.l2_hit_rate * l1_misses as f64;
    if (l2_hits + llc_misses as f64 - l1_misses as f64).abs() > 0.5 {
        return Err(format!("L2 hits {l2_hits:.1} + misses {llc_misses} != L1 misses {l1_misses}"));
    }
    if llc_misses != f.demands {
        return Err(format!("LLC misses {llc_misses} != demand events {}", f.demands));
    }
    let requests = s.dram_reads + s.dram_writes;
    let per_scheme: u64 = s.per_scheme.iter().sum();
    if !(0.0..=1.0).contains(&s.row_hit_rate) {
        return Err(format!("row hit rate {} outside [0, 1]", s.row_hit_rate));
    }
    if !cell.sampled {
        if per_scheme != requests {
            return Err(format!("per-scheme sum {per_scheme} != DRAM requests {requests}"));
        }
        if (s.dram_reads, s.dram_writes) != (f.demands, f.writebacks) {
            return Err(format!(
                "replayed {}r/{}w but the stream recorded {}r/{}w",
                s.dram_reads, s.dram_writes, f.demands, f.writebacks
            ));
        }
    } else if per_scheme.abs_diff(requests) > 4 {
        // Scaled counters are rounded one by one, so the sums may
        // disagree by a count per term.
        return Err(format!("per-scheme sum {per_scheme} !~ DRAM requests {requests}"));
    }
    if let Some(exact) = &cell.exact {
        if s.instructions != exact.instructions {
            return Err("sampled replay changed the instruction count".to_string());
        }
        let (cycles, energy) = sampled_err_pct(s, exact);
        if cycles.max(energy) > SAMPLED_ERR_LIMIT_PCT {
            return Err(format!(
                "sampled error {cycles:.3}% cycles / {energy:.3}% energy exceeds \
                 {SAMPLED_ERR_LIMIT_PCT}%"
            ));
        }
    }
    Ok(())
}

/// Phase weights cover the whole stream: the weights sum to one and the
/// scaled representative sizes sum to the stream's event count.
pub fn selection_covers_stream(sel: &SimPointSelection) -> Result<(), String> {
    let weight: f64 = sel.phases().iter().map(|p| p.weight).sum();
    let covered: f64 = sel.phases().iter().map(|p| p.scale() * p.events() as f64).sum();
    if (weight - 1.0).abs() > 1e-9 {
        return Err(format!("phase weights sum to {weight}, not 1"));
    }
    if (covered - sel.events() as f64).abs() > 1e-6 * sel.events() as f64 {
        return Err(format!("phases cover {covered:.1} of {} events", sel.events()));
    }
    Ok(())
}

/// FNV-1a over every field of a `SimStats`, floats by bit pattern.
fn hash_stats(h: &mut u64, s: &SimStats) {
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    word(s.instructions);
    word(s.cycles);
    for f in [
        s.seconds,
        s.ipc(),
        s.mem_dynamic_j(),
        s.mem_standby_j(),
        s.proc_j(),
        s.l1_hit_rate,
        s.l2_hit_rate,
        s.row_hit_rate,
        s.avg_dram_latency_ns,
        s.avg_dram_queue_ns,
        s.dram_bandwidth_gbps,
    ] {
        word(f.to_bits());
    }
    word(s.dram_reads);
    word(s.dram_writes);
    s.per_scheme.iter().for_each(|&n| word(n));
    for r in &s.regions {
        word(r.refs);
        word(r.l1_misses);
        word(r.llc_misses);
    }
}

/// Running account of every cell the run simulated.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
    /// The first rep's cells: what every later rep must reproduce.
    reference: Vec<SimStats>,
}

impl Tally {
    /// Account one rep's cells: each is checked against the conservation
    /// laws and against the same cell of the first rep.
    pub fn rep(&mut self, cells: &[Cell]) {
        let first = self.reference.is_empty();
        if !first && cells.len() != self.reference.len() {
            self.fail(cells.len() as u64, "rep produced a different number of cells".to_string());
            return;
        }
        for (i, cell) in cells.iter().enumerate() {
            self.attempted += 1;
            let verdict = conservation(cell).and_then(|()| {
                if first || self.reference[i] == cell.stats {
                    Ok(())
                } else {
                    Err("SimStats differ from the first rep".to_string())
                }
            });
            if let Err(why) = verdict {
                self.failed += 1;
                self.note(format!("{}: {why}", cell.label));
            }
            if first {
                self.reference.push(cell.stats.clone());
            }
        }
    }

    /// Count `cells` cells as attempted and failed for one reason (a rep
    /// whose campaign counters show it did different work).
    pub fn fail(&mut self, cells: u64, why: String) {
        self.attempted += cells;
        self.failed += cells;
        self.note(why);
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// `sim.digest`: FNV-1a over the reference rep's `SimStats`, in cell
    /// order. Equal digests ⇔ bit-identical simulated results.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        self.reference.iter().for_each(|s| hash_stats(&mut h, s));
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Inputs;
    use abft_coop_core::Strategy;
    use abft_memsim::workloads::abft_region_ids;
    use abft_memsim::{KernelParams, Machine, SimRequest, SystemConfig};
    use std::sync::Arc;

    fn stream(params: KernelParams) -> MissStream {
        let cfg = SystemConfig::default();
        let packed = Arc::new(params.build_packed());
        MissStream::build(&mut packed.replay(), cfg.l1, cfg.l2, cfg.threads)
    }

    fn cell(ms: &MissStream, strategy: Strategy) -> Cell {
        let assign = strategy.assignment(&abft_region_ids(ms.regions()));
        let stats =
            Machine::new(SystemConfig::default()).simulate(SimRequest::miss_stream(ms, assign));
        Cell::exact(strategy.label().to_string(), stats, StreamFacts::of(ms))
    }

    #[test]
    fn a_perturbed_simstats_is_a_failed_cell() {
        let ms = stream(Inputs::from_seed(0).grid[3]);
        let good = cell(&ms, Strategy::PartialChipkillSecded);
        let mut tally = Tally::default();
        tally.rep(std::slice::from_ref(&good));
        tally.rep(std::slice::from_ref(&good));
        assert_eq!((tally.attempted, tally.failed), (2, 0));

        // One cycle off: conservation still holds, rep identity does not.
        let mut drifted = good.clone();
        drifted.stats.cycles += 1;
        tally.rep(&[drifted]);
        assert_eq!((tally.attempted, tally.failed), (3, 1));

        // One lost DRAM write breaks "events replayed = events recorded".
        let mut lossy = good.clone();
        lossy.stats.dram_writes -= 1;
        assert!(conservation(&lossy).is_err());
        tally.rep(&[lossy]);
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert!(!tally.messages.is_empty());
    }

    #[test]
    fn digest_follows_the_seed() {
        let run = |seed: u64| {
            let ms = stream(Inputs::from_seed(seed).grid[2]);
            let mut tally = Tally::default();
            tally.rep(&[cell(&ms, Strategy::WholeChipkill), cell(&ms, Strategy::NoEcc)]);
            assert_eq!(tally.failed, 0, "{:?}", tally.messages);
            (tally.digest(), ms.events())
        };
        let (a, b, c) = (run(1), run(1), run(2));
        assert_eq!(a, b, "one seed, one digest");
        assert_ne!(a.1, c.1, "two seeds, two event counts");
        assert_ne!(a.0, c.0);
    }
}
