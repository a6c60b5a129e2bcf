//! E-sublin: the §II sub-linear scaling claim.
//!
//! "If the scaling of the applications is less than linear, we might get
//! better efficiency by reducing the number of threads. Note that we are
//! not assuming that the performance of that application actually degrades
//! with more threads ... it might be better to limit the number of threads
//! allocated to this application and assign the CPU cores to another
//! application, which can make better use of them."
//!
//! Two applications: one compute-bound with a synchronization overhead
//! that makes its scaling sub-linear (but still monotonic), one with
//! perfect scaling. A greedy search that uses the *simulator* as its
//! oracle discovers that capping the sub-linear application's threads and
//! giving the rest to the perfectly-scaling one beats the fair share.

use crate::report::{Row, Table};
use coop_alloc::search::GreedySearch;
use coop_alloc::strategies;
use memsim::{EffectModel, SimApp, SimConfig, Simulation};
use numa_topology::Machine;
use roofline_numa::ThreadAssignment;

/// Outcome of the sub-linear scaling experiment.
#[derive(Debug, Clone)]
pub struct SublinearResult {
    /// The comparison table.
    pub table: Table,
    /// Threads the searched allocation gave the sub-linear application.
    pub sublinear_threads: usize,
    /// Threads the searched allocation gave the linear application.
    pub linear_threads: usize,
}

/// Runs the experiment on `machine` with the sub-linear app's overhead
/// coefficient `alpha` (per extra thread).
pub fn run(machine: &Machine, alpha: f64, duration_s: f64) -> SublinearResult {
    let sim = Simulation::new(
        SimConfig::new(machine.clone())
            .with_effects(EffectModel::ideal()) // isolate the scaling effect
            .with_quantum(2e-3),
    );
    // Both compute-bound, so bandwidth sharing is not the story here.
    let apps = vec![
        SimApp::numa_local("sublinear", 8.0).with_sync_overhead(alpha),
        SimApp::numa_local("linear", 8.0),
    ];

    let fair = strategies::fair_share(machine, 2).expect("fair share valid");
    let r_fair = sim.run(&apps, &fair, duration_s).expect("runs");

    // Model-guided (simulator-oracle) greedy search, with both apps kept
    // alive (at least one thread each).
    let mut oracle = |a: &ThreadAssignment| -> coop_alloc::Result<f64> {
        if a.app_total(0) == 0 || a.app_total(1) == 0 {
            return Ok(f64::NEG_INFINITY);
        }
        Ok(sim.run(&apps, a, duration_s).expect("runs").total_gflops())
    };
    let found = GreedySearch::new()
        .filling()
        .run_with(machine, 2, &mut oracle)
        .expect("search succeeds");
    let r_found = sim.run(&apps, &found.assignment, duration_s).expect("runs");

    let mut table = Table::new(
        &format!("Sub-linear scaling (alpha={alpha}): fair share vs searched allocation"),
        "GFLOPS",
    );
    table.push(Row::new("fair share", r_fair.total_gflops()));
    table.push(Row::new("searched", r_found.total_gflops()));
    table.push(Row::new(
        "improvement %",
        (r_found.total_gflops() / r_fair.total_gflops() - 1.0) * 100.0,
    ));
    SublinearResult {
        table,
        sublinear_threads: found.assignment.app_total(0),
        linear_threads: found.assignment.app_total(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::tiny;
    use numa_topology::MachineBuilder;

    fn small_machine() -> Machine {
        // 2 nodes x 4 cores keeps the simulator-oracle search fast.
        MachineBuilder::new()
            .symmetric_nodes(2, 4)
            .core_peak_gflops(10.0)
            .node_bandwidth_gbs(100.0)
            .uniform_link_gbs(10.0)
            .build()
            .unwrap()
    }

    #[test]
    fn search_shifts_threads_to_the_linear_app() {
        let r = run(&small_machine(), 0.25, 0.02);
        assert!(
            r.linear_threads > r.sublinear_threads,
            "linear app should get more threads: {} vs {}",
            r.linear_threads,
            r.sublinear_threads
        );
        let improvement = r.table.rows[2].measured;
        assert!(
            improvement > 1.0,
            "searched allocation should beat fair share, got {improvement}%"
        );
    }

    #[test]
    fn no_overhead_means_fair_share_is_optimal() {
        let r = run(&tiny(), 0.0, 0.02);
        let improvement = r.table.rows[2].measured;
        assert!(
            improvement.abs() < 0.5,
            "identical perfectly-scaling apps: nothing to gain, got {improvement}%"
        );
    }
}
