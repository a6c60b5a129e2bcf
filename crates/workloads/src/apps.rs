//! The paper's application mixes, as shared constructors.
//!
//! Every evaluation scenario in the paper uses one of two mixes:
//!
//! * **Model mix** (§III.A, Tables I/II, Figure 2): three memory-bound
//!   applications with AI = 0.5 and one compute-bound with AI = 10.
//! * **Cross-node mix** (Figure 3): three NUMA-perfect AI = 0.5
//!   applications and one NUMA-bad AI = 1 application.
//! * **Skylake mix** (§III.B, Table III): AI = 1/32 memory-bound,
//!   AI = 1 compute-bound, AI = 1/16 NUMA-bad.
//!
//! Keeping them here means the solver tests, the benches, and the examples
//! can never drift apart on what the scenarios are.

use memsim::SimApp;
use numa_topology::NodeId;
use roofline_numa::AppSpec;

/// The §III.A model mix: `[mem1, mem2, mem3 (AI=0.5), comp (AI=10)]`.
pub fn model_mix() -> Vec<AppSpec> {
    vec![
        AppSpec::numa_local("mem1", 0.5),
        AppSpec::numa_local("mem2", 0.5),
        AppSpec::numa_local("mem3", 0.5),
        AppSpec::numa_local("comp", 10.0),
    ]
}

/// The Figure 3 mix: three NUMA-perfect AI=0.5 apps and one NUMA-bad AI=1
/// app whose data lives on `bad_node`.
pub fn crossnode_mix(bad_node: NodeId) -> Vec<AppSpec> {
    vec![
        AppSpec::numa_local("perf1", 0.5),
        AppSpec::numa_local("perf2", 0.5),
        AppSpec::numa_local("perf3", 0.5),
        AppSpec::numa_bad("bad", 1.0, bad_node),
    ]
}

/// The Table III NUMA-local mix: three AI=1/32 memory-bound apps and one
/// AI=1 compute-bound app.
pub fn skylake_mix() -> Vec<AppSpec> {
    vec![
        AppSpec::numa_local("mem1", 1.0 / 32.0),
        AppSpec::numa_local("mem2", 1.0 / 32.0),
        AppSpec::numa_local("mem3", 1.0 / 32.0),
        AppSpec::numa_local("comp", 1.0),
    ]
}

/// The Table III NUMA-bad mix: three AI=1/32 memory-bound apps and one
/// AI=1/16 NUMA-bad app with data on `bad_node`.
pub fn skylake_bad_mix(bad_node: NodeId) -> Vec<AppSpec> {
    vec![
        AppSpec::numa_local("mem1", 1.0 / 32.0),
        AppSpec::numa_local("mem2", 1.0 / 32.0),
        AppSpec::numa_local("mem3", 1.0 / 32.0),
        AppSpec::numa_bad("bad", 1.0 / 16.0, bad_node),
    ]
}

/// Wraps model-level specs into always-on simulator apps, with a per-app
/// synchronization-overhead coefficient (`alphas[i]` applies to
/// `specs[i]`; 0 is perfect scaling).
pub fn sim_apps_with_sync(specs: &[AppSpec], alphas: &[f64]) -> Vec<SimApp> {
    specs
        .iter()
        .zip(alphas)
        .map(|(s, &a)| SimApp {
            spec: s.clone(),
            activity: memsim::ActivityPattern::AlwaysOn,
            sync_overhead: a,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::{paper_model_machine, paper_skylake_machine};
    use roofline_numa::{solve, ThreadAssignment};

    #[test]
    fn model_mix_reproduces_table_1() {
        let m = paper_model_machine();
        let a = ThreadAssignment::uniform_per_node(&m, &[1, 1, 1, 5]);
        let r = solve(&m, &model_mix(), &a).unwrap();
        assert!((r.total_gflops() - 254.0).abs() < 1e-9);
    }

    #[test]
    fn skylake_mix_reproduces_table_3_row_2() {
        let m = paper_skylake_machine();
        let a = ThreadAssignment::uniform_per_node(&m, &[5, 5, 5, 5]);
        let r = solve(&m, &skylake_mix(), &a).unwrap();
        assert!((r.total_gflops() - 18.12).abs() < 5e-3);
    }

    #[test]
    fn sim_wrappers_preserve_specs() {
        let specs = crossnode_mix(NodeId(3));
        let sims = sim_apps_with_sync(&specs, &[0.0; 4]);
        assert_eq!(sims.len(), 4);
        for (sim, spec) in sims.iter().zip(&specs) {
            assert_eq!(&sim.spec, spec);
            assert_eq!(sim.sync_overhead, 0.0);
        }
        let with_sync = sim_apps_with_sync(&specs, &[0.0, 0.0, 0.0, 0.01]);
        assert_eq!(with_sync[3].sync_overhead, 0.01);
    }
}
