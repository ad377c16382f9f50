//! Ablation (DESIGN.md 7.3): error-register depth `n` vs the probability
//! of losing an error report before ABFT's next examination.
//!
//! Section 3.1 argues `n = 6` suffices because bursts of more than `n/2`
//! uncorrectable events within one examination period are rare. This
//! study makes that quantitative: Poisson bursts of uncorrectable errors
//! arrive between examinations; any event overwritten in the ring before
//! the drain is lost (ABFT must then fall back to full verification).

use abft_coop_core::report::{pct, Report, TextTable};
use abft_ecc::EccScheme;
use abft_faultsim::Injector;
use abft_memsim::controller::MemoryController;
use abft_memsim::dram::AddressMap;
use abft_memsim::SystemConfig;

/// Examination periods simulated per depth.
const TRIALS: usize = 2000;

pub fn run(out: &mut Report) {
    let cfg = SystemConfig::default();
    // Poisson bursts of SECDED-uncorrectable events, mean 2 per period.
    let mut inj = Injector::new(7);
    let bursts: Vec<usize> = (0..TRIALS).map(|_| inj.poisson_times(2.0, 1.0).len()).collect();
    let total: usize = bursts.iter().sum();
    let mut t = TextTable::new(&["n (registers)", "events lost", "periods with loss", "loss rate"]);
    for n in [1usize, 2, 4, 6, 8, 12] {
        let (mut lost, mut bad_periods) = (0u64, 0);
        for &burst in &bursts {
            let mut mc = MemoryController::new(AddressMap::new(&cfg), EccScheme::Secded);
            mc.set_error_depth(n);
            for k in 0..burst {
                let addr = 0x100000 + (k as u64) * 64;
                mc.write_line(addr, &[3u8; 64]);
                mc.inject_bit_flip(addr, 1);
                mc.inject_bit_flip(addr, 2);
                let _ = mc.read_line(addr, k as f64);
            }
            lost += mc.errors_overwritten;
            bad_periods += (mc.errors_overwritten > 0) as usize;
        }
        let rate = lost as f64 / total.max(1) as f64;
        t.row(&[n.to_string(), lost.to_string(), format!("{bad_periods}/{TRIALS}"), pct(rate)]);
        out.quantity(format!("register_loss/{n}"), rate);
    }
    write!(out, "{}", t.render());
}
