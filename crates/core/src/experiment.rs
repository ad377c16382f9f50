//! The basic-test experiment driver (Section 5.1): run each kernel's trace
//! under all six ECC strategies and collect the Figure 5/6/7 metrics.

use crate::strategy::Strategy;
use abft_memsim::system::SimStats;
use abft_memsim::workloads::KernelKind;

/// Results of one (kernel, strategy) simulation.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// The strategy.
    pub strategy: Strategy,
    /// Raw simulation statistics.
    pub stats: SimStats,
}

/// All six strategies for one kernel.
#[derive(Debug, Clone)]
pub struct BasicTest {
    /// The kernel.
    pub kernel: KernelKind,
    /// Per-strategy results (in [`Strategy::ALL`] order).
    pub rows: Vec<StrategyResult>,
}

impl BasicTest {
    /// The row for a given strategy.
    #[expect(
        clippy::expect_used,
        reason = "documented API contract: a BasicTest holds one row per strategy"
    )]
    pub fn row(&self, s: Strategy) -> &StrategyResult {
        self.rows.iter().find(|r| r.strategy == s).expect("all strategies were run")
    }

    /// Memory energy normalized to the No-ECC baseline (Figure 5).
    pub fn mem_energy_norm(&self, s: Strategy) -> f64 {
        self.row(s).stats.mem_total_j() / self.row(Strategy::NoEcc).stats.mem_total_j()
    }

    /// Dynamic memory energy normalized to No-ECC.
    pub fn mem_dynamic_norm(&self, s: Strategy) -> f64 {
        self.row(s).stats.mem_dynamic_j() / self.row(Strategy::NoEcc).stats.mem_dynamic_j()
    }

    /// System energy normalized to No-ECC (Figure 6).
    pub fn system_energy_norm(&self, s: Strategy) -> f64 {
        self.row(s).stats.system_j() / self.row(Strategy::NoEcc).stats.system_j()
    }

    /// IPC normalized to No-ECC (Figure 7).
    pub fn ipc_norm(&self, s: Strategy) -> f64 {
        self.row(s).stats.ipc() / self.row(Strategy::NoEcc).stats.ipc()
    }

    /// Energy saving of a partial strategy against its whole-ECC baseline
    /// (the Section 5.1 headline percentages), on memory energy.
    pub fn partial_mem_saving(&self, s: Strategy) -> f64 {
        let base = self.row(s.baseline()).stats.mem_total_j();
        1.0 - self.row(s).stats.mem_total_j() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CampaignClient, CampaignSpec};
    use abft_memsim::workloads::{CgParams, DgemmParams, KernelParams};

    /// The six-strategy basic test of one workload (process-wide cache).
    fn basic_test_of(w: impl Into<KernelParams>) -> BasicTest {
        let w = w.into();
        CampaignClient::local()
            .run(&CampaignSpec::builder().workload(w).build())
            .basic_test(w.kind())
    }

    fn small_dgemm() -> BasicTest {
        basic_test_of(DgemmParams { n: 384, nb: 64, abft: true, verify_interval: 4 })
    }

    #[test]
    fn six_rows_in_order() {
        let bt = small_dgemm();
        assert_eq!(bt.rows.len(), 6);
        let labels: Vec<_> = bt.rows.iter().map(|r| r.strategy.label()).collect();
        assert_eq!(labels[0], "No ECC");
        assert_eq!(labels[1], "W_CK");
    }

    #[test]
    fn whole_chipkill_costs_the_most_memory_energy() {
        let bt = small_dgemm();
        for s in Strategy::ALL {
            assert!(
                bt.mem_energy_norm(Strategy::WholeChipkill) >= bt.mem_energy_norm(s) - 1e-12,
                "W_CK must be the most expensive; {s} beats it"
            );
        }
        assert!(bt.mem_energy_norm(Strategy::WholeChipkill) > 1.3);
    }

    #[test]
    fn partial_strategies_sit_between_whole_and_none() {
        let bt = small_dgemm();
        for s in Strategy::PARTIAL {
            let saving = bt.partial_mem_saving(s);
            assert!(saving > 0.0, "{s}: saving {saving}");
            assert!(bt.mem_energy_norm(s) >= 1.0 - 1e-9, "cannot beat no-ECC");
        }
    }

    #[test]
    fn performance_never_beats_no_ecc() {
        let bt = small_dgemm();
        for s in Strategy::ALL {
            assert!(bt.ipc_norm(s) <= 1.0 + 1e-9, "{s} ipc_norm {}", bt.ipc_norm(s));
        }
    }

    #[test]
    fn cg_is_the_most_ecc_sensitive_kernel() {
        // Sanity proxy of the paper's Figure 5: CG (memory intensive) pays
        // more for whole chipkill than DGEMM pays relative to its W_SD.
        let cg =
            basic_test_of(CgParams { grid: 192, iterations: 4, abft: true, verify_interval: 2 });
        assert!(
            cg.mem_energy_norm(Strategy::WholeChipkill) > cg.mem_energy_norm(Strategy::WholeSecded)
        );
        assert!(cg.ipc_norm(Strategy::WholeChipkill) < 0.98);
    }
}
