//! The tiny `rand` 0.8 surface this workspace uses, implemented in-tree.
//!
//! It mirrors the published crate's API shape, not its streams: `StdRng`
//! is splitmix64. Every seeded expectation in the repo (simulator tests,
//! `benchmark/` at seed 42, ROADMAP's repro seeds) is a statement about
//! this stream; tw-sim's `seed_42_stream_is_frozen` pins it.

/// Core randomness source.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Values drawable from a [`RngCore`] (stand-in for `Standard: Distribution<T>`).
pub trait Rand {
    /// Draw one value.
    fn rand<R: RngCore + ?Sized>(r: &mut R) -> Self;
}

impl Rand for f64 {
    fn rand<R: RngCore + ?Sized>(r: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (r.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Rand for u64 {
    fn rand<R: RngCore + ?Sized>(r: &mut R) -> Self {
        r.next_u64()
    }
}

impl Rand for u32 {
    fn rand<R: RngCore + ?Sized>(r: &mut R) -> Self {
        (r.next_u64() >> 32) as u32
    }
}

impl Rand for bool {
    fn rand<R: RngCore + ?Sized>(r: &mut R) -> Self {
        r.next_u64() & 1 == 1
    }
}

/// The user-facing extension trait.
pub trait Rng: RngCore {
    /// Draw a value of an inferred type.
    fn gen<T: Rand>(&mut self) -> T
    where
        Self: Sized,
    {
        T::rand(self)
    }

    /// Uniform draw from a half-open range (integers only, stub-grade).
    fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64
    where
        Self: Sized,
    {
        let span = range.end - range.start;
        range.start + self.next_u64() % span.max(1)
    }

    /// Bernoulli draw.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Stub of `rand::rngs::StdRng`: splitmix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng {
                state: seed ^ 0x9e37_79b9_7f4a_7c15,
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}
