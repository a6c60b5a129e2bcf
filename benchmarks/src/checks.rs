//! Output checks against the paper's published numbers, run on every
//! invocation. A failure makes the run exit non-zero.

use coop_alloc::search::ExhaustiveSearch;
use coop_alloc::Objective;
use coop_workloads::apps::model_mix;
use numa_topology::presets::paper_model_machine;
use roofline_numa::{solve, AppSpec, ThreadAssignment};

/// Checks the anchors; returns how many there are (they count as attempted
/// operations) and one line per anchor that does not hold.
pub fn anchors() -> (u64, Vec<String>) {
    let mut checked = 0;
    let mut failures = Vec::new();
    let mut expect = |what: &str, got: f64, want: f64, tol: f64| {
        checked += 1;
        // A NaN (a solve that failed) is not within any tolerance.
        if (got - want).abs() <= tol {
            return;
        }
        failures.push(format!(
            "{what}: got {got}, the paper has {want} (tolerance {tol})"
        ));
    };

    // Tables I and II: the worked model examples, exact.
    let machine = paper_model_machine();
    let mix = model_mix();
    for (table, counts, want) in [
        ("Table I", [1, 1, 1, 5], 254.0),
        ("Table II", [2, 2, 2, 2], 140.0),
    ] {
        let assignment = ThreadAssignment::uniform_per_node(&machine, &counts);
        let got = solve(&machine, &mix, &assignment).map_or(f64::NAN, |r| r.total_gflops());
        expect(table, got, want, 1e-9);
    }

    // Table III, model column: the template's two assignments, to the
    // paper's printed digits.
    let template = memsim::scenario::template();
    let specs: Vec<AppSpec> = template.apps.iter().map(|a| a.spec.clone()).collect();
    for (named, want) in template.assignments.iter().zip([23.20, 18.12]) {
        let assignment = ThreadAssignment::from_matrix(named.threads.clone());
        let got =
            solve(&template.machine, &specs, &assignment).map_or(f64::NAN, |r| r.total_gflops());
        expect(&format!("Table III {}", named.name), got, want, 5e-3);
    }

    // The exhaustive optimum on the model mix is the machine's peak.
    let got = ExhaustiveSearch::new()
        .run(&machine, &mix, &Objective::TotalGflops)
        .map_or(f64::NAN, |r| r.score);
    expect("exhaustive optimum on model_mix", got, 320.0, 1e-9);

    (checked, failures)
}
