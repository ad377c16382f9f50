//! Figures 2 and 4, textually: the evaluation architecture and the
//! simulation framework as actually implemented by this workspace,
//! with live configuration values.

use abft_coop_core::report::Report;
use abft_ecc::EccScheme;
use abft_memsim::controller::{ECC_RANGE_SLOTS, ERROR_REGISTERS};
use abft_memsim::SystemConfig;

pub fn run(out: &mut Report) {
    let cfg = SystemConfig::default();
    writeln!(
        out,
        r#"
Figure 2 — memory organization and the enhanced controller:

    ECC regs ({} ranges)   Memory controller
    error regs (n = {})    ┌──────────────────────────────┐
    interrupt line ──────► │ chipkill logic  │ common logic│
                           │ SECDED logic    │ addr mapping│
                           └──────┬──────────────┬─────────┘
                     72-bit phys chan 0   72-bit phys chan 1   (x{} more)
                      {} data + {} ECC     {} data + {} ECC      chips/rank
                            └───── lock-step for chipkill ─────┘

  Per 64-byte access: No-ECC busies {} chips, SECDED {}, chipkill {}
  (the Section 2.2 overfetch mechanism, energy-accounted per chip).

Figure 4 — simulation framework:

    fault injection        memory transactions
   ┌────────────┐ configs ┌──────────────────┐  ┌──────────────────┐
   │ abft-      │ ──────► │ abft-memsim      │  │ abft-memsim::dram│
   │ faultsim   │ inject  │ (caches + core   │─►│ (DDR3 banks/chan │
   │ (BIFIT)    │ ──────► │  model = McSim)  │  │  = DRAMSim2)     │
   └────────────┘         └──────────────────┘  └──────────────────┘
         ▲                        ▲ traces
   ┌────────────┐         ┌──────────────────┐
   │ abft-      │         │ memsim::workloads│
   │ kernels    │ ──────► │ (= Pin streams)  │
   └────────────┘         └──────────────────┘
"#,
        ECC_RANGE_SLOTS,
        ERROR_REGISTERS,
        cfg.channels - 2,
        cfg.data_chips_per_rank,
        cfg.ecc_chips_per_rank,
        cfg.data_chips_per_rank,
        cfg.ecc_chips_per_rank,
        cfg.chips_per_access(EccScheme::None),
        cfg.chips_per_access(EccScheme::Secded),
        cfg.chips_per_access(EccScheme::Chipkill),
    );
}
