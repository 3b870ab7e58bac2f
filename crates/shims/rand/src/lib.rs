//! Minimal in-tree stand-in for the `rand` crate: a seeded xoshiro256++
//! generator behind the [`Rng`] / [`RngExt`] / [`SeedableRng`] traits, with
//! uniform `random` / `random_range` sampling. Deterministic by
//! construction — every consumer in this workspace seeds explicitly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// A source of random 64-bit words plus typed uniform sampling.
pub trait Rng {
    /// The next raw 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// A uniformly random value of `T`.
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Range sampling extension, blanket-implemented for every [`Rng`].
pub trait RngExt: Rng {
    /// A uniformly random value in `range` (half-open).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn random_range<T: UniformRange>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Types constructible uniformly at random from an [`Rng`].
pub trait Random {
    /// Samples a value from `rng`.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Random for u64 {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Random for u32 {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Random for bool {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Random for f64 {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniformly random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types uniformly sampleable over a half-open range.
pub trait UniformRange: Sized {
    /// Samples uniformly from `range`.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

fn uniform_below<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Rejection sampling to avoid modulo bias.
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % bound;
        }
    }
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "empty range");
                let span = (range.end - range.start) as u64;
                range.start + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_uniform_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_signed {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "empty range");
                let span = range.end.wrapping_sub(range.start) as u64;
                range.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

impl_uniform_signed!(i8, i16, i32, i64, isize);

/// Generators constructible from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds a generator deterministically from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++, seeded via SplitMix64 — the workspace's standard
    /// deterministic generator.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut state = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut state);
            }
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [a, b, c, d] = self.s;
            let result = a.wrapping_add(d).rotate_left(23).wrapping_add(a);
            let t = b << 17;
            let mut s = [a, b, c, d];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.random_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.random_range(-5i64..5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        assert!((sum / 1000.0 - 0.5).abs() < 0.05, "mean {}", sum / 1000.0);
    }
}
