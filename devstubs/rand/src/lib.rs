//! Offline stub for `rand` 0.8 — deterministic splitmix64 streams behind
//! the subset of the API this workspace uses. See devstubs/README.md.

/// Core random-number source.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generators (stub: only `seed_from_u64`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Uniform sampling from range types.
pub trait SampleRange<T> {
    /// Samples one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

// Unsigned spans fit in `u64`, so the draw is reduced with a 64-bit
// remainder. The one span that does not fit, the full inclusive `u64`
// range (2^64 values), takes the raw draw: the same value `x % 2^64` the
// reduction would give.
macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let draw = rng.next_u64();
                match ((hi - lo) as u64).checked_add(1) {
                    Some(span) => lo + (draw % span) as $t,
                    None => lo + draw as $t,
                }
            }
        }
    )*};
}
impl_int_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
impl_signed_range!(i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}
impl_float_range!(f32, f64);

/// Convenience sampling methods (stub subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Bernoulli trial with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range");
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore> Rng for R {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generator implementations.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Stub small generator (splitmix64).
    #[derive(Clone, Debug)]
    pub struct SmallRng(u64);

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            splitmix64(&mut self.0)
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> Self {
            SmallRng(state ^ 0xA076_1D64_78BD_642F)
        }
    }

    /// Stub standard generator (splitmix64, distinct stream constant).
    #[derive(Clone, Debug)]
    pub struct StdRng(u64);

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            splitmix64(&mut self.0)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            StdRng(state ^ 0xE703_7ED1_A0B4_28DB)
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Stub subset of `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Fisher–Yates shuffle.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;
        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    /// The reduction the 64-bit one replaced: the draw widened to `u128`,
    /// modulo the span widened to `u128`.
    fn u128_reduce(draw: u64, lo: u128, span: u128) -> u128 {
        lo + draw as u128 % span
    }

    #[test]
    fn integer_ranges_match_the_u128_reduction() {
        for seed in [0, 1, 42, 20_170_624, 7919, u64::MAX] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut raw = rng.clone();
            for _ in 0..1000 {
                let got = [
                    u128::from(rng.gen_range(0u32..1)),
                    u128::from(rng.gen_range(0u32..7)),
                    u128::from(rng.gen_range(0u32..=30)),
                    u128::from(rng.gen_range(0u8..=250)),
                    u128::from(rng.gen_range(0..u32::MAX)),
                    u128::from(rng.gen_range(0..=u32::MAX)),
                    u128::from(rng.gen_range(0..u64::MAX)),
                    u128::from(rng.gen_range(0..=u64::MAX)),
                    rng.gen_range(3usize..=3) as u128,
                    u128::from(rng.gen_range(5u16..9)),
                ];
                let spans: [(u128, u128); 10] = [
                    (0, 1),
                    (0, 7),
                    (0, 31),
                    (0, 251),
                    (0, u128::from(u32::MAX)),
                    (0, u128::from(u32::MAX) + 1),
                    (0, u128::from(u64::MAX)),
                    (0, u128::from(u64::MAX) + 1),
                    (3, 1),
                    (5, 4),
                ];
                for (got, (lo, span)) in got.into_iter().zip(spans) {
                    assert_eq!(got, u128_reduce(raw.next_u64(), lo, span), "seed {seed}");
                }
            }
        }
    }
}
