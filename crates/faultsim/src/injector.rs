//! Targeted fault injection — the BIFIT stand-in.
//!
//! BIFIT \[21\] injects bit flips "at specific time and data location"; this
//! module does the same for the Rust kernels: deterministic single-bit
//! flips into matrix/vector elements, plus Poisson-sampled error schedules
//! derived from the Table 5 FIT rates.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Flip one mantissa/exponent/sign bit of an `f64`.
///
/// # Panics
/// Panics if `bit >= 64`.
pub fn flip_f64_bit(value: f64, bit: u32) -> f64 {
    assert!(bit < 64, "f64 has 64 bits");
    f64::from_bits(value.to_bits() ^ (1u64 << bit))
}

/// Flip `bit` of element `idx` of a vector, returning the original value.
pub fn inject_vector_bit(v: &mut [f64], idx: usize, bit: u32) -> f64 {
    let old = v[idx];
    v[idx] = flip_f64_bit(old, bit);
    old
}

/// One planned fault: where and when to strike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedFault {
    /// Time of the strike, in seconds from run start.
    pub time_s: f64,
    /// Flattened element index within the target structure.
    pub element: usize,
    /// Bit to flip within the element.
    pub bit: u32,
}

/// Deterministic fault-schedule generator.
#[derive(Debug)]
pub struct Injector {
    rng: ChaCha8Rng,
}

impl Injector {
    /// Create with a seed (schedules are reproducible per seed).
    pub fn new(seed: u64) -> Self {
        Injector { rng: ChaCha8Rng::seed_from_u64(seed) }
    }

    /// Sample error arrival times over `[0, duration_s)` from a Poisson
    /// process with the given rate (errors/second).
    pub fn poisson_times(&mut self, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
        let mut times = Vec::new();
        if rate_per_s <= 0.0 {
            return times;
        }
        let mut t = 0.0;
        loop {
            // Exponential inter-arrival via inverse transform.
            let u: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / rate_per_s;
            if t >= duration_s {
                break;
            }
            times.push(t);
        }
        times
    }

    /// Build a fault plan for a structure of `elements` elements over a run
    /// of `duration_s` seconds at `rate_per_s` errors/second.
    pub fn plan(&mut self, rate_per_s: f64, duration_s: f64, elements: usize) -> Vec<PlannedFault> {
        assert!(elements > 0, "cannot target an empty structure");
        self.poisson_times(rate_per_s, duration_s)
            .into_iter()
            .map(|time_s| PlannedFault {
                time_s,
                element: self.rng.random_range(0..elements),
                bit: self.rng.random_range(0..64),
            })
            .collect()
    }

    /// Pick a uniformly random `(element, bit)` target.
    pub fn random_target(&mut self, elements: usize) -> (usize, u32) {
        (self.rng.random_range(0..elements), self.rng.random_range(0..64))
    }
}

/// Spatial error patterns used by the Case 1-4 studies (Section 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorPattern {
    /// A single flipped bit — correctable by any real ECC and by ABFT.
    SingleBit,
    /// Several flipped bits confined to one x4 chip (within one code
    /// symbol) — chipkill-correctable, SECDED-detectable at best.
    SingleChip {
        /// Number of bits flipped (2..=8 across the chip's two nibbles).
        bits: u32,
    },
    /// Bits scattered across many chips/columns in one cache line —
    /// beyond ECC, but confined to few matrix columns so ABFT corrects it
    /// (the paper's Case 2).
    ScatteredOneLine {
        /// Distinct chips hit.
        chips: u32,
    },
    /// Bits piled into a single matrix column region repeatedly within one
    /// verification interval — beyond the checksum's correction capability
    /// (the paper's Case 3 shape) though simple for strong ECC if each
    /// strike is a single bit.
    RepeatedSameColumn {
        /// Number of strikes.
        strikes: u32,
    },
    /// High-rate bursts dispersed across memory devices — beyond both
    /// (Case 4).
    DispersedBurst {
        /// Distinct lines hit.
        lines: u32,
        /// Chips hit per line.
        chips_per_line: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_flip_round_trips() {
        let x = 1234.5678;
        for bit in [0u32, 23, 52, 63] {
            let y = flip_f64_bit(x, bit);
            assert_ne!(x.to_bits(), y.to_bits());
            assert_eq!(flip_f64_bit(y, bit).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn sign_bit_flip_negates() {
        assert_eq!(flip_f64_bit(2.5, 63), -2.5);
    }

    #[test]
    fn poisson_times_sorted_and_bounded() {
        let mut inj = Injector::new(42);
        let times = inj.poisson_times(10.0, 100.0);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(times.iter().all(|&t| (0.0..100.0).contains(&t)));
        // ~1000 expected; loose 5-sigma band.
        assert!(times.len() > 800 && times.len() < 1200, "{}", times.len());
    }

    #[test]
    fn poisson_zero_rate_is_empty() {
        let mut inj = Injector::new(1);
        assert!(inj.poisson_times(0.0, 1e9).is_empty());
    }

    #[test]
    fn plans_are_reproducible_per_seed() {
        let a = Injector::new(7).plan(1.0, 50.0, 1000);
        let b = Injector::new(7).plan(1.0, 50.0, 1000);
        let c = Injector::new(8).plan(1.0, 50.0, 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|f| f.element < 1000 && f.bit < 64));
    }
}
