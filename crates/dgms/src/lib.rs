//! # abft-dgms
//!
//! The Dynamic Granularity Memory System (Yoon et al., ISCA 2012) — the
//! state-of-the-art flexible-ECC comparator of the paper's Section 5.3.
//!
//! DGMS is a *pure hardware* mechanism: a spatial-pattern predictor
//! watches the access stream and picks, per memory request, either a
//! coarse-grained 64-byte access under chipkill or a fine-grained 16-byte
//! access on sub-ranked DRAM under SECDED. It has no knowledge of ABFT —
//! which is exactly why the paper's cooperative approach beats it: "DGMS
//! simply bases its ECC decision on memory access tracing, which results
//! in costly ECC assignment."

// Library code returns data and leaves printing to the binaries and the
// reporting layer (`abft-coop-core`); tests included.
#![deny(clippy::print_stdout, clippy::print_stderr)]

use abft_ecc::EccScheme;
use abft_memsim::dram::AccessKind;
use abft_memsim::system::{Machine, SimStats};
use abft_memsim::{EccAssignment, SimInput, SimRequest};

/// Size of the spatial-pattern tracking granule (one OS page).
const GRANULE_BYTES: u64 = 4096;
/// Lines per granule.
const LINES_PER_GRANULE: u32 = (GRANULE_BYTES / 64) as u32;

/// Per-granule spatial pattern entry: a bitmap of recently touched lines
/// plus the density verdict carried over from the previous epoch.
#[derive(Debug, Clone, Copy, Default)]
struct PatternEntry {
    touched: u64,
    /// Decision epoch the bitmap was last reset in.
    epoch: u64,
    /// Verdict from the last completed epoch.
    coarse_verdict: bool,
}

/// The predictor's per-granule entries.
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only: the table is never iterated, so its order cannot reach a result"
)]
type PatternTable = std::collections::HashMap<u64, PatternEntry>;

/// The DGMS spatial pattern predictor.
///
/// Prediction rule: if a granule shows dense spatial reuse — more than
/// `coarse_threshold` distinct lines touched within the current epoch —
/// future accesses to it are predicted coarse-grained (the whole line
/// will be wanted) and serviced as 64-byte chipkill transfers; sparse
/// granules are serviced as fine-grained 16-byte SECDED transfers.
#[derive(Debug)]
pub struct SpatialPredictor {
    table: PatternTable,
    epoch_len: u64,
    access_count: u64,
    coarse_threshold: u32,
    /// Accesses predicted coarse.
    pub coarse: u64,
    /// Accesses predicted fine.
    pub fine: u64,
    /// Fine predictions whose granule later proved dense within the same
    /// epoch — underfetches DGMS pays an extra access for.
    pub fine_mispredictions: u64,
}

impl Default for SpatialPredictor {
    fn default() -> Self {
        SpatialPredictor::new(12, 200_000)
    }
}

impl SpatialPredictor {
    /// `coarse_threshold`: distinct lines per 4 KB granule (out of 64)
    /// above which the granule counts as spatially dense. `epoch_len`:
    /// accesses between bitmap decay.
    pub fn new(coarse_threshold: u32, epoch_len: u64) -> Self {
        SpatialPredictor {
            table: PatternTable::new(),
            epoch_len,
            access_count: 0,
            coarse_threshold,
            coarse: 0,
            fine: 0,
            fine_mispredictions: 0,
        }
    }

    /// Observe an access and predict the service granularity.
    pub fn predict(&mut self, paddr: u64) -> AccessKind {
        self.access_count += 1;
        let epoch = self.access_count / self.epoch_len;
        let granule = paddr / GRANULE_BYTES;
        let line_in_granule = ((paddr % GRANULE_BYTES) / 64) as u32;
        let thr = self.coarse_threshold;
        let e = self.table.entry(granule).or_default();
        if e.epoch != epoch {
            // Epoch boundary: bank the verdict, reset the bitmap.
            e.coarse_verdict = e.touched.count_ones() >= thr;
            e.touched = 0;
            e.epoch = epoch;
        }
        e.touched |= 1u64 << (line_in_granule % LINES_PER_GRANULE);
        // Coarse if the granule proved dense last epoch or is already
        // dense within this one.
        let density = e.touched.count_ones();
        if e.coarse_verdict || density >= thr {
            self.coarse += 1;
            AccessKind::Scheme(EccScheme::Chipkill)
        } else {
            if density == thr - 1 {
                // This access tips the granule over next time: the fine
                // calls made so far in this epoch were mispredictions.
                self.fine_mispredictions += density as u64;
            }
            self.fine += 1;
            AccessKind::FineSecded
        }
    }

    /// Fraction of predictions that were coarse.
    pub fn coarse_fraction(&self) -> f64 {
        let t = self.coarse + self.fine;
        if t == 0 {
            0.0
        } else {
            self.coarse as f64 / t as f64
        }
    }
}

/// Run any simulation input through the machine under DGMS prediction: a
/// live kernel generator or a packed-cache replay (`SimInput::Source`), or
/// the cache-filtered miss stream of one (`SimInput::MissStream`) — bit
/// identical, because the policy hook fires per DRAM request, not per core
/// reference, and the filtered replay presents exactly those requests in
/// the same order, so the stateful pattern table evolves identically.
/// Returns the statistics and the fraction of requests predicted coarse.
///
/// Note the hardware-only view: the predictor sees physical addresses and
/// nothing else; ABFT-protected and unprotected data are indistinguishable
/// to it. Every access carries ECC, so the assignment the request names is
/// uniform chipkill: nothing is programmed from it under a policy, and it
/// keeps the ECC chips powered.
pub fn run_dgms(machine: &Machine, input: SimInput<'_>) -> (SimStats, f64) {
    let mut predictor = SpatialPredictor::default();
    let mut policy = |paddr: u64| predictor.predict(paddr);
    let stats = machine.simulate(
        SimRequest::new(input, EccAssignment::uniform(EccScheme::Chipkill))
            .with_policy(&mut policy),
    );
    (stats, predictor.coarse_fraction())
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_memsim::workloads::{CgParams, DgemmParams, KernelParams};
    use abft_memsim::{MissStream, SystemConfig, Trace};

    #[test]
    fn dense_streams_predict_coarse() {
        let mut p = SpatialPredictor::new(16, 1_000_000);
        // Stream a full page twice: the bitmap saturates during the first
        // pass, so the vast majority of accesses classify coarse.
        for _ in 0..2 {
            for line in 0..64u64 {
                p.predict(0x10000 + line * 64);
            }
        }
        assert!(p.coarse > 48, "dense reuse must flip to coarse, got {}", p.coarse);
    }

    #[test]
    fn scattered_accesses_stay_fine() {
        let mut p = SpatialPredictor::new(16, 1_000_000);
        // One line per page across many pages: never dense.
        for page in 0..1000u64 {
            p.predict(page * 4096);
        }
        assert_eq!(p.coarse, 0);
        assert_eq!(p.fine, 1000);
    }

    #[test]
    fn dgemm_is_classified_almost_entirely_coarse() {
        // Section 5.3: "all memory accesses are attributed with
        // coarse-grained chipkill protection, because FT-DGEMM has high
        // spatial locality".
        let params =
            KernelParams::Dgemm(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 4 });
        let m = Machine::new(SystemConfig::default());
        let (stats, coarse_frac) = run_dgms(&m, SimInput::Source(&mut params.stream()));
        // (A small trace pays proportionally more predictor warm-up; the
        // Figure 10 harness at full scale classifies >90% coarse.)
        assert!(coarse_frac > 0.8, "coarse fraction {coarse_frac}");
        assert!(stats.per_scheme[2] > 0, "chipkill accesses present");
    }

    #[test]
    fn every_input_form_gives_one_dgms_result() {
        // The DGMS predictor is the hardest client of the replay seam: it
        // is stateful and epoch-based, so any reordered, dropped or extra
        // request — from the generator's chunking, the packed runs, a
        // materialized trace or the miss filter — would desynchronize its
        // table.
        let params =
            KernelParams::Cg(CgParams { grid: 96, iterations: 2, abft: true, verify_interval: 2 });
        let cfg = SystemConfig::default();
        let m = Machine::new(cfg.clone());
        let packed = std::sync::Arc::new(params.build_packed());
        let trace = Trace::from_source(&mut params.stream());
        let ms = MissStream::build(&mut packed.replay(), cfg.l1, cfg.l2, cfg.threads);

        let (stream, frac) = run_dgms(&m, SimInput::Source(&mut params.stream()));
        for (form, (stats, f)) in [
            ("packed replay", run_dgms(&m, SimInput::Source(&mut packed.replay()))),
            ("trace replay", run_dgms(&m, SimInput::Source(&mut trace.replay()))),
            ("miss stream", run_dgms(&m, SimInput::MissStream(&ms))),
        ] {
            assert_eq!(stats, stream, "{form}");
            assert_eq!(f.to_bits(), frac.to_bits(), "{form}");
        }
    }

    #[test]
    fn dgms_energy_for_dgemm_close_to_whole_chipkill() {
        let params =
            KernelParams::Dgemm(DgemmParams { n: 384, nb: 64, abft: true, verify_interval: 4 });
        let m = Machine::new(SystemConfig::default());
        let (dgms, _) = run_dgms(&m, SimInput::Source(&mut params.stream()));
        let wck = m.simulate(SimRequest::source(
            &mut params.stream(),
            EccAssignment::uniform(EccScheme::Chipkill),
        ));
        let ratio = dgms.mem_dynamic_j() / wck.mem_dynamic_j();
        assert!(ratio > 0.85 && ratio < 1.1, "DGMS ~ W_CK for DGEMM, ratio {ratio}");
    }

    #[test]
    fn misprediction_accounting_tracks_dense_granules() {
        let mut p = SpatialPredictor::new(16, 1_000_000);
        // A page streamed fully: the first 15 fine calls were wrong.
        for line in 0..64u64 {
            p.predict(0x40000 + line * 64);
        }
        assert!(p.fine_mispredictions >= 15);
        // Sparse accesses never register mispredictions.
        let mut q = SpatialPredictor::new(16, 1_000_000);
        for page in 0..100u64 {
            q.predict(page * 4096);
        }
        assert_eq!(q.fine_mispredictions, 0);
    }

    #[test]
    fn cg_gets_a_mix_of_granularities() {
        let params =
            KernelParams::Cg(CgParams { grid: 96, iterations: 3, abft: true, verify_interval: 2 });
        let m = Machine::new(SystemConfig::default());
        let (_, coarse_frac) = run_dgms(&m, SimInput::Source(&mut params.stream()));
        assert!(
            coarse_frac > 0.3 && coarse_frac < 0.995,
            "CG should mix coarse and fine, got {coarse_frac}"
        );
    }
}
