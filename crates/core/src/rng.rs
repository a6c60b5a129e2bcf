//! The workspace's one random-number generator: a seeded splitmix64.
//!
//! Every seeded stream in the workspace — search proposals, simulator
//! jitter, tie-breaks, generated workloads, test cases — comes from here,
//! so a seed names the same stream in every crate. The arithmetic of
//! [`StdRng::next_u64`], [`StdRng::gen`] and [`StdRng::gen_range`] is pinned
//! by a test vector: changing it moves every recorded result.

use std::ops::{Range, RangeInclusive};

/// SplitMix64's output for state `x`: a cheap, well-distributed 64-bit
/// mixer, also used directly for hashed tie-break keys.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded splitmix64 stream.
#[derive(Debug, Clone)]
pub struct StdRng(u64);

impl StdRng {
    /// The stream named by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        StdRng(seed)
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    /// A uniformly distributed `T` (for `f64`: in `[0, 1)`).
    pub fn gen<T: Standard>(&mut self) -> T {
        T::sample(self.next_u64())
    }

    /// A value uniformly distributed over `range`; an empty range panics.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self.next_u64())
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p
    }
}

/// Uniform in [0, 1) from the top 53 bits.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Types [`StdRng::gen`] can produce.
pub trait Standard {
    /// The value for 64 random bits.
    fn sample(bits: u64) -> Self;
}

impl Standard for f64 {
    fn sample(bits: u64) -> f64 {
        unit_f64(bits)
    }
}

/// Ranges [`StdRng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// The value of the range for 64 random bits.
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
int_ranges!(u8, u32, u64, usize);

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

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from the stand-in every recorded number was measured on
    /// (`benchmarks/shims/rand` at commit 90160a7). A different vector here
    /// means every seeded result in the repository moved.
    #[test]
    fn stream_is_the_one_the_recorded_numbers_were_measured_on() {
        let mut r = StdRng::seed_from_u64(20200518);
        let first: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            [
                7673732533689645745,
                6111241259781927643,
                4055350651071814530,
                13878685491916621262,
                9453948038079892045,
                7131624498714842129,
                5703380595751880693,
                8490317818253445663
            ]
        );

        let mut r = StdRng::seed_from_u64(20200518);
        let ints: Vec<usize> = (0..8).map(|_| r.gen_range(0..7usize)).collect();
        assert_eq!(ints, [0, 3, 2, 5, 6, 3, 1, 6]);
        let floats: Vec<u64> = (0..4).map(|_| r.gen_range(0.0..1.0).to_bits()).collect();
        assert_eq!(
            floats,
            [
                0x3fb186a3f2cd05c8,
                0x3fc3e5ba750cf338,
                0x3fe78d1cca0e7181,
                0x3fd87c6c7002364e
            ]
        );
        let units: Vec<u64> = (0..2).map(|_| r.gen::<f64>().to_bits()).collect();
        assert_eq!(units, [0x3fedba426111d04f, 0x3fd28bcd32e6ebac]);
        let inclusive: Vec<u8> = (0..4).map(|_| r.gen_range(1..=3u8)).collect();
        assert_eq!(inclusive, [2, 2, 3, 3]);
        let coins: Vec<bool> = (0..6).map(|_| r.gen_bool(0.4)).collect();
        assert_eq!(coins, [true, false, true, false, true, false]);
    }

    #[test]
    fn the_mixer_is_the_first_output_of_the_stream_it_seeds() {
        for seed in [0, 1, 20200518, u64::MAX] {
            assert_eq!(splitmix64(seed), StdRng::seed_from_u64(seed).next_u64());
        }
    }
}
