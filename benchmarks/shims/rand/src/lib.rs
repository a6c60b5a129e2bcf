//! Stand-in for `rand` 0.8 in the offline benchmark build: `StdRng` is
//! splitmix64, so seeded streams repeat exactly but differ from the real
//! crate's ChaCha streams.

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    #[derive(Debug, Clone)]
    pub struct StdRng(pub(crate) u64);
}

use rngs::StdRng;

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        StdRng(seed)
    }
}

pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self.next_u64())
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self.next_u64())
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Uniform in [0, 1) from the top 53 bits.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Types `Rng::gen` can produce.
pub trait Standard {
    fn sample(bits: u64) -> Self;
}

impl Standard for f64 {
    fn sample(bits: u64) -> f64 {
        unit_f64(bits)
    }
}

/// Ranges `Rng::gen_range` accepts. Empty ranges panic, as in `rand`.
pub trait SampleRange<T> {
    fn sample(self, bits: u64) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, bits: u64) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (bits % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, bits: u64) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                match ((hi - lo) as u64).checked_add(1) {
                    Some(span) => lo + (bits % span) as $t,
                    None => bits as $t,
                }
            }
        }
    )*};
}
int_ranges!(u8, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, bits: u64) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * unit_f64(bits)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample(self, bits: u64) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        lo + (hi - lo) * unit_f64(bits)
    }
}
