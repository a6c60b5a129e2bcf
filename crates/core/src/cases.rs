//! The workspace's seeded case runner for property tests.
//!
//! [`check`] runs a property over `cases` generated inputs. Case `i` draws
//! everything from one [`StdRng`] seeded with `splitmix64(splitmix64(seed) + i)`
//! (neighbouring seeds share no cases), so a
//! failure is named by a single number: the runner prints it, and
//! `COOP_CASE_SEED=<n> cargo test <name>` runs exactly that case again. A
//! failing case is first re-run with its [`Gen`] size halved until it
//! passes, so the panic that is reported comes from the smallest size that
//! still fails. Properties fail by panicking (`assert!`).

use crate::rng::{splitmix64, SampleRange, StdRng};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The size every case starts at; sizes scale the upper bound of
/// [`Gen::size`] draws.
pub const FULL_SIZE: usize = 64;

/// The input source of one case.
#[derive(Debug)]
pub struct Gen {
    rng: StdRng,
    size: usize,
}

impl Gen {
    fn new(seed: u64, size: usize) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            size,
        }
    }

    /// The case's random stream, for draws that should not shrink.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// A value uniform over `range` (never shrunk).
    pub fn range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        self.rng.gen_range(range)
    }

    /// A count or length from `range`: uniform at full size; when the
    /// runner shrinks a failing case, the upper bound moves towards
    /// `range.start` in proportion.
    pub fn size(&mut self, range: Range<usize>) -> usize {
        let span = range.end.saturating_sub(range.start);
        let shrunk = (span * self.size).div_ceil(FULL_SIZE).max(1);
        self.rng.gen_range(range.start..range.start + shrunk)
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// One of `options`.
    pub fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[self.rng.gen_range(0..options.len())]
    }

    /// A vector whose length comes from [`Gen::size`] over `len`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.size(len)).map(|_| item(self)).collect()
    }
}

/// The first failing case of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Failure {
    seed: u64,
    /// Smallest size that still failed.
    size: usize,
}

type Panic = Box<dyn std::any::Any + Send>;

/// Runs the cases (or only the case seeded `replay`) and returns the first
/// failure with the panic of its smallest failing size.
fn run(
    seed: u64,
    cases: usize,
    replay: Option<u64>,
    property: &dyn Fn(&mut Gen),
) -> Result<(), (Failure, Panic)> {
    let attempt = |case_seed, size| {
        catch_unwind(AssertUnwindSafe(|| {
            property(&mut Gen::new(case_seed, size))
        }))
    };
    let seeds: Vec<u64> = match replay {
        Some(case_seed) => vec![case_seed],
        None => {
            let base = splitmix64(seed);
            (0..cases as u64)
                .map(|i| splitmix64(base.wrapping_add(i)))
                .collect()
        }
    };
    for case_seed in seeds {
        let Err(mut panic) = attempt(case_seed, FULL_SIZE) else {
            continue;
        };
        let mut size = FULL_SIZE;
        while size > 1 {
            match attempt(case_seed, size / 2) {
                Err(smaller) => {
                    panic = smaller;
                    size /= 2;
                }
                Ok(()) => break,
            }
        }
        return Err((
            Failure {
                seed: case_seed,
                size,
            },
            panic,
        ));
    }
    Ok(())
}

/// Checks `property` on `cases` inputs derived from `seed`; on a failure
/// prints the case seed and re-raises the property's panic. With
/// `COOP_CASE_SEED=<n>` in the environment only the case seeded `n` runs.
pub fn check(seed: u64, cases: usize, property: impl Fn(&mut Gen)) {
    let replay = std::env::var("COOP_CASE_SEED").ok().map(|text| {
        text.parse()
            .unwrap_or_else(|_| panic!("COOP_CASE_SEED={text:?} is not a whole number"))
    });
    if let Err((failure, panic)) = run(seed, cases, replay, &property) {
        eprintln!(
            "property failed: case seed {} (smallest failing size {}/{FULL_SIZE}); \
             replay with COOP_CASE_SEED={}",
            failure.seed, failure.size, failure.seed
        );
        resume_unwind(panic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Deliberately broken: "no generated vector is longer than 3".
    fn broken(g: &mut Gen) {
        let v = g.vec(0..40, |g| g.range(0..10u8));
        assert!(v.len() <= 3, "vector of {} elements", v.len());
    }

    #[test]
    fn a_broken_property_reports_a_seed_that_replays_alone() {
        let (failure, panic) = run(7, 100, None, &broken).unwrap_err();
        let message = panic.downcast_ref::<String>().expect("assert! message");
        assert!(message.starts_with("vector of "), "{message}");
        // Shrunk by halving for as long as it still failed. Four elements
        // need a length bound of at least 5, i.e. 40 * size / 64 >= 5.
        assert!(
            failure.size.is_power_of_two() && failure.size >= 8,
            "{failure:?}"
        );
        broken(&mut Gen::new(failure.seed, failure.size / 2));

        let full_size_runs = AtomicUsize::new(0);
        let counted = |g: &mut Gen| {
            full_size_runs.fetch_add(usize::from(g.size == FULL_SIZE), Ordering::Relaxed);
            broken(g);
        };
        let (again, _) = run(0, 100, Some(failure.seed), &counted).unwrap_err();
        assert_eq!(again, failure);
        assert_eq!(full_size_runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_true_property_runs_every_case_on_a_distinct_stream() {
        let firsts = std::sync::Mutex::new(std::collections::BTreeSet::new());
        check(11, 200, |g| {
            let n = g.size(2..9);
            assert!((2..9).contains(&n));
            firsts.lock().unwrap().insert(g.rng().next_u64());
        });
        assert_eq!(firsts.into_inner().unwrap().len(), 200);
    }
}
