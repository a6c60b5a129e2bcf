//! Scoring objectives over model reports.

use crate::{AllocError, Result};
use numa_topology::Machine;
use roofline_numa::{solve_gflops, AppSpec, SolveOptions, SolveScratch, ThreadAssignment};

/// What an allocation search optimizes.
///
/// The paper motivates two different goods: overall machine efficiency
/// ("assign the CPU cores to another application, which can make better use
/// of them") and keeping cooperating applications aligned (the
/// producer-consumer scenario, where starving one application is
/// counterproductive). [`Objective::TotalGflops`] captures the former;
/// [`Objective::MinAppGflops`] the egalitarian extreme of the latter;
/// [`Objective::WeightedGflops`] interpolates.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Maximize machine-wide achieved GFLOPS.
    TotalGflops,
    /// Maximize the minimum per-application GFLOPS (max-min fairness).
    MinAppGflops,
    /// Maximize `sum_a weights[a] * gflops[a]`. Weights must be
    /// non-negative, finite, and not all zero.
    WeightedGflops(Vec<f64>),
}

impl Objective {
    /// Evaluates this objective over a per-app GFLOPS slice (the
    /// allocation-free form produced by [`roofline_numa::solve_gflops`]).
    /// Higher is better. Sums run in app order, so the score is
    /// bit-identical to the same sum over a
    /// [`SolveReport`](roofline_numa::SolveReport)'s apps.
    pub(crate) fn evaluate_gflops(&self, app_gflops: &[f64]) -> Result<f64> {
        match self {
            Objective::TotalGflops => Ok(app_gflops.iter().sum()),
            Objective::MinAppGflops => Ok(app_gflops.iter().copied().fold(f64::INFINITY, f64::min)),
            Objective::WeightedGflops(w) => {
                if w.len() != app_gflops.len() {
                    return Err(AllocError::ParameterShape {
                        what: "objective weights",
                        expected: app_gflops.len(),
                        actual: w.len(),
                    });
                }
                if w.iter().any(|&x| x < 0.0 || !x.is_finite()) || w.iter().all(|&x| x == 0.0) {
                    return Err(AllocError::BadWeights);
                }
                Ok(app_gflops.iter().zip(w).map(|(&g, &wt)| wt * g).sum())
            }
        }
    }
}

/// Solves the model for `assignment` and evaluates `objective` on the
/// result. This is the oracle every search in [`crate::search`] consults.
pub fn score(
    machine: &Machine,
    apps: &[AppSpec],
    assignment: &ThreadAssignment,
    objective: &Objective,
) -> Result<f64> {
    let mut scratch = SolveScratch::new();
    let gflops = solve_gflops(
        machine,
        apps,
        assignment,
        SolveOptions::default(),
        &mut scratch,
    )?;
    objective.evaluate_gflops(gflops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::paper_model_machine;
    use roofline_numa::solve;

    fn setup() -> (Machine, Vec<AppSpec>, ThreadAssignment) {
        let m = paper_model_machine();
        let apps = vec![
            AppSpec::numa_local("mem", 0.5),
            AppSpec::numa_local("comp", 10.0),
        ];
        let a = ThreadAssignment::uniform_per_node(&m, &[4, 4]);
        (m, apps, a)
    }

    #[test]
    fn total_gflops_matches_report() {
        let (m, apps, a) = setup();
        let r = solve(&m, &apps, &a).unwrap();
        let s = score(&m, &apps, &a, &Objective::TotalGflops).unwrap();
        assert!((s - r.total_gflops()).abs() < 1e-12);
    }

    #[test]
    fn min_app_gflops_is_the_minimum() {
        let (m, apps, a) = setup();
        let r = solve(&m, &apps, &a).unwrap();
        let s = score(&m, &apps, &a, &Objective::MinAppGflops).unwrap();
        let expected = r
            .apps
            .iter()
            .map(|x| x.gflops)
            .fold(f64::INFINITY, f64::min);
        assert!((s - expected).abs() < 1e-12);
        assert!(s <= r.total_gflops());
    }

    #[test]
    fn weighted_interpolates() {
        let (m, apps, a) = setup();
        let r = solve(&m, &apps, &a).unwrap();
        let s = score(&m, &apps, &a, &Objective::WeightedGflops(vec![1.0, 0.0])).unwrap();
        assert!((s - r.apps[0].gflops).abs() < 1e-12);
        let s2 = score(&m, &apps, &a, &Objective::WeightedGflops(vec![1.0, 1.0])).unwrap();
        assert!((s2 - r.total_gflops()).abs() < 1e-12);
    }

    #[test]
    fn weighted_validation() {
        let (m, apps, a) = setup();
        assert!(matches!(
            score(&m, &apps, &a, &Objective::WeightedGflops(vec![1.0])),
            Err(AllocError::ParameterShape { .. })
        ));
        assert!(matches!(
            score(&m, &apps, &a, &Objective::WeightedGflops(vec![0.0, 0.0])),
            Err(AllocError::BadWeights)
        ));
        assert!(matches!(
            score(&m, &apps, &a, &Objective::WeightedGflops(vec![-1.0, 2.0])),
            Err(AllocError::BadWeights)
        ));
    }

    #[test]
    fn evaluate_gflops_matches_evaluate() {
        let (m, apps, a) = setup();
        let r = solve(&m, &apps, &a).unwrap();
        let gflops: Vec<f64> = r.apps.iter().map(|x| x.gflops).collect();
        for obj in [
            Objective::TotalGflops,
            Objective::MinAppGflops,
            Objective::WeightedGflops(vec![0.3, 0.7]),
        ] {
            let via_report = match &obj {
                Objective::TotalGflops => r.total_gflops(),
                Objective::MinAppGflops => r
                    .apps
                    .iter()
                    .map(|a| a.gflops)
                    .fold(f64::INFINITY, f64::min),
                Objective::WeightedGflops(w) => {
                    r.apps.iter().zip(w).map(|(a, &wt)| wt * a.gflops).sum()
                }
            };
            let via_slice = obj.evaluate_gflops(&gflops).unwrap();
            assert_eq!(via_report, via_slice, "{obj:?} diverged between paths");
        }
    }
}
