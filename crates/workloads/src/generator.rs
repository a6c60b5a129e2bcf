//! Seeded random machines and application mixes.
//!
//! The ablation benches and stress tests need scenario diversity beyond
//! the paper's fixed mixes; these generators produce it reproducibly.

use coop_alloc::rng::StdRng;
use numa_topology::{Machine, MachineBuilder, NodeId};
use roofline_numa::{AppSpec, ThreadAssignment};

/// Parameters for random machine generation.
#[derive(Debug, Clone)]
pub struct MachineGen {
    /// Inclusive range of NUMA node counts.
    pub nodes: (usize, usize),
    /// Inclusive range of cores per node.
    pub cores: (usize, usize),
    /// Range of per-core peak GFLOPS.
    pub gflops: (f64, f64),
    /// Range of per-node bandwidth, GB/s.
    pub bandwidth: (f64, f64),
    /// Range of link bandwidth, GB/s.
    pub link: (f64, f64),
}

impl Default for MachineGen {
    fn default() -> Self {
        MachineGen {
            nodes: (2, 4),
            cores: (4, 20),
            gflops: (1.0, 50.0),
            bandwidth: (20.0, 150.0),
            link: (5.0, 40.0),
        }
    }
}

impl MachineGen {
    /// Generates a machine from the seed (deterministic).
    pub fn generate(&self, seed: u64) -> Machine {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.gen_range(self.nodes.0..=self.nodes.1);
        let cores = rng.gen_range(self.cores.0..=self.cores.1);
        MachineBuilder::new()
            .name(&format!("gen-{seed}"))
            .symmetric_nodes(nodes, cores)
            .core_peak_gflops(rng.gen_range(self.gflops.0..=self.gflops.1))
            .node_bandwidth_gbs(rng.gen_range(self.bandwidth.0..=self.bandwidth.1))
            .uniform_link_gbs(rng.gen_range(self.link.0..=self.link.1))
            .build()
            .expect("generated machine is valid")
    }
}

/// Parameters for random application-mix generation.
#[derive(Debug, Clone)]
pub struct AppMixGen {
    /// Inclusive range of application counts.
    pub apps: (usize, usize),
    /// Log2 range of arithmetic intensity: AI drawn as `2^u` with `u`
    /// uniform in this range (covers memory-bound to compute-bound).
    pub log2_ai: (f64, f64),
    /// Probability that an application is NUMA-bad (all data on one node).
    pub numa_bad_prob: f64,
}

impl Default for AppMixGen {
    fn default() -> Self {
        AppMixGen {
            apps: (2, 5),
            log2_ai: (-6.0, 4.0),
            numa_bad_prob: 0.2,
        }
    }
}

impl AppMixGen {
    /// Generates an application mix for `machine` from the seed.
    pub fn generate(&self, machine: &Machine, seed: u64) -> Vec<AppSpec> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let count = rng.gen_range(self.apps.0..=self.apps.1);
        (0..count)
            .map(|i| {
                let ai = 2f64.powf(rng.gen_range(self.log2_ai.0..=self.log2_ai.1));
                if rng.gen_bool(self.numa_bad_prob) {
                    let node = NodeId(rng.gen_range(0..machine.num_nodes()));
                    AppSpec::numa_bad(&format!("bad{i}"), ai, node)
                } else {
                    AppSpec::numa_local(&format!("app{i}"), ai)
                }
            })
            .collect()
    }
}

/// Generates a random valid (non-over-subscribed) assignment for `apps` on
/// `machine`.
pub fn random_assignment(machine: &Machine, num_apps: usize, seed: u64) -> ThreadAssignment {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2545f4914f6cdd1d);
    let mut a = ThreadAssignment::zero(machine, num_apps);
    for node in machine.node_ids() {
        let mut left = machine.node(node).num_cores();
        for app in 0..num_apps {
            if left == 0 {
                break;
            }
            let take = rng.gen_range(0..=left);
            a.set(app, node, take);
            left -= take;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_are_deterministic_and_valid() {
        let g = MachineGen::default();
        let a = g.generate(1);
        let b = g.generate(1);
        assert_eq!(a, b);
        let c = g.generate(2);
        assert!(a != c || a.name() != c.name());
        assert!(a.num_nodes() >= 2 && a.num_nodes() <= 4);
    }

    #[test]
    fn app_mixes_validate_against_machine() {
        let m = MachineGen::default().generate(3);
        let mix = AppMixGen::default().generate(&m, 7);
        assert!(!mix.is_empty());
        for app in &mix {
            app.validate(&m).unwrap();
        }
        // Deterministic per seed.
        let mix2 = AppMixGen::default().generate(&m, 7);
        assert_eq!(mix, mix2);
    }

    #[test]
    fn random_assignments_validate() {
        let m = MachineGen::default().generate(5);
        for seed in 0..20 {
            let a = random_assignment(&m, 3, seed);
            a.validate(&m).unwrap();
        }
    }

    #[test]
    fn random_assignment_is_solvable() {
        let m = MachineGen::default().generate(9);
        let mix = AppMixGen::default().generate(&m, 9);
        let a = random_assignment(&m, mix.len(), 9);
        let r = roofline_numa::solve(&m, &mix, &a).unwrap();
        assert!(r.total_gflops() >= 0.0);
    }
}
