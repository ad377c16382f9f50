//! Minimal, dependency-free stand-in for the `rand` 0.9 API surface this
//! workspace uses: `RngCore`, `SeedableRng::seed_from_u64`, and the `Rng`
//! extension methods `random_range`, `random_bool` and `fill`.
//!
//! The build environment has no crates.io access, so this crate is vendored
//! under `crates/compat/`. It is *not* a cryptographic or bit-for-bit
//! replacement for the real `rand`; it only guarantees deterministic,
//! well-distributed streams for the simulator's seeded experiments.
//!
//! It deliberately defines no entropy source — no `thread_rng`,
//! `from_entropy` or `random` — so the compiler refuses every unseeded
//! generator (the root crate's `compile_fail` doctests pin this).

use core::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// A generator seedable from a fixed-size byte seed.
pub trait SeedableRng: Sized {
    /// The seed type (e.g. `[u8; 32]`).
    type Seed: Default + AsMut<[u8]>;

    /// Construct from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64`, expanding it with SplitMix64 (the same
    /// scheme the real `rand` uses, so seeds spread well).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut x = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            for (b, o) in chunk.iter_mut().zip(z.to_le_bytes()) {
                *b = o;
            }
        }
        Self::from_seed(seed)
    }
}

/// Types that can be sampled uniformly from a range.
pub trait SampleUniform: Sized {
    /// Uniform sample from `[low, high)` (`high` included when `inclusive`).
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self, inclusive: bool)
        -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($ty:ty => $wide:ty),* $(,)?) => {$(
        impl SampleUniform for $ty {
            fn sample_range<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                let span = (high as $wide).wrapping_sub(low as $wide) as u128
                    + inclusive as u128;
                assert!(span > 0, "cannot sample from an empty range");
                // Modulo bias is negligible for the small spans the
                // simulator draws from (and irrelevant to its tests).
                let v = (rng.next_u64() as u128) % span;
                (low as $wide).wrapping_add(v as $wide) as $ty
            }
        }
    )*};
}

impl_sample_uniform_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self, _incl: bool) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        low + u * (high - low)
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self, _incl: bool) -> Self {
        let u = (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
        low + u * (high - low)
    }
}

/// Range types accepted by [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draw one sample.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample from an empty range");
        T::sample_range(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = self.into_inner();
        assert!(start <= end, "cannot sample from an empty range");
        T::sample_range(rng, start, end, true)
    }
}

/// Convenience extension methods, auto-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from a range expression (`0..n`, `1..=8`, `-1.0..1.0`).
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn random_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample_range(self, 0.0, 1.0, false) < p
    }

    /// Fill a byte slice with random data.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// The pieces a typical `use rand::prelude::*` expects.
pub mod prelude {
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            // xorshift so low bits vary too
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = self.0;
            x ^ (x >> 33)
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let v = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&v[..chunk.len()]);
            }
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Counter(7);
        for _ in 0..10_000 {
            let v: u64 = r.random_range(3..17);
            assert!((3..17).contains(&v));
            let w: u8 = r.random_range(1..=8);
            assert!((1..=8).contains(&w));
            let f: f64 = r.random_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bool_probability_tracks_p() {
        let mut r = Counter(11);
        let hits = (0..20_000).filter(|_| r.random_bool(0.3)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "frac {frac}");
    }
}
