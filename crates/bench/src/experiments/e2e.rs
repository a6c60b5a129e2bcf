//! E-e2e: the paper's full pipeline, composed — on-node model-guided core
//! allocation produces per-node speedups, which the distributed layer then
//! translates (or fails to translate) into end-to-end speedup.
//!
//! This is the experiment the paper sketches across §II+§V but never runs:
//! a 12-node cluster where each node hosts a *different* mix of
//! cooperating applications. For every node we measure (in `memsim`) the
//! throughput of the naive allocation (every app gets a fair share)
//! versus the model-guided allocation found by greedy search with a
//! keep-alive floor; the ratio is that node's local speedup. The speedup
//! vector then drives `distsim` under the four synchronization/
//! distribution regimes.

use crate::report::{Row, Table};
use coop_alloc::search::{GreedySearch, ModelOracle};
use coop_alloc::{strategies, Objective};
use distsim::{simulate, Cluster, Distribution, Synchronization, Workload};
use memsim::{EffectModel, SimApp, SimConfig, Simulation};
use numa_topology::presets::dual_socket;
use roofline_numa::AppSpec;

/// One cluster node's application mix (by variant index).
fn node_mix(variant: usize) -> Vec<AppSpec> {
    match variant % 3 {
        // Strongly skewed: the classic Table-I-style mix — big win.
        0 => vec![
            AppSpec::numa_local("mem1", 1.0 / 16.0),
            AppSpec::numa_local("mem2", 1.0 / 16.0),
            AppSpec::numa_local("comp", 16.0),
        ],
        // Mildly skewed.
        1 => vec![
            AppSpec::numa_local("mem", 0.25),
            AppSpec::numa_local("comp", 4.0),
        ],
        // Symmetric: nothing to gain over fair share.
        _ => vec![AppSpec::numa_local("a", 1.0), AppSpec::numa_local("b", 1.0)],
    }
}

/// Computes one node's local speedup: model-guided allocation vs fair
/// share, both measured in the effectful simulator.
fn local_speedup(variant: usize, duration_s: f64) -> f64 {
    let machine = dual_socket();
    let apps = node_mix(variant);
    let sim = Simulation::new(
        SimConfig::new(machine.clone())
            .with_effects(EffectModel::skylake_like())
            .with_seed(variant as u64),
    );
    let sim_apps: Vec<SimApp> = apps
        .iter()
        .map(|s| SimApp {
            spec: s.clone(),
            activity: memsim::ActivityPattern::AlwaysOn,
            sync_overhead: 0.0,
        })
        .collect();

    let fair = strategies::fair_share(&machine, apps.len()).expect("fair share valid");
    let r_fair = sim.run(&sim_apps, &fair, duration_s).expect("sim runs");

    // Model-guided with a keep-alive floor (every app keeps >= 1 thread).
    let mut oracle = ModelOracle::new(&machine, &apps, &Objective::TotalGflops)
        .expect("the mix is valid")
        .with_min_threads(1);
    let found = GreedySearch::new()
        .run_model(&machine, &mut oracle)
        .expect("search succeeds");
    let r_guided = sim
        .run(&sim_apps, &found.assignment, duration_s)
        .expect("sim runs");

    (r_guided.total_gflops() / r_fair.total_gflops()).max(1.0)
}

/// Runs the composed experiment on a `ranks`-node cluster.
pub fn run(ranks: usize, duration_s: f64) -> Table {
    // Per-node speedups from the on-node layer (3 distinct mixes).
    let per_variant: Vec<f64> = (0..3).map(|v| local_speedup(v, duration_s)).collect();
    let speedups: Vec<f64> = (0..ranks).map(|i| per_variant[i % 3]).collect();
    let cluster = Cluster::uniform(ranks, 1.0).with_speedups(&speedups);
    let mean = cluster.mean_speedup();

    let mut t = Table::new(
        &format!(
            "End-to-end: on-node gains {:.2}/{:.2}/{:.2} per mix, mean {:.3}",
            per_variant[0], per_variant[1], per_variant[2], mean
        ),
        "overall speedup",
    );
    for (sync, sl) in [
        (Synchronization::Tight, "tight"),
        (Synchronization::Loose, "loose"),
    ] {
        for (dist, dl) in [
            (Distribution::Static, "static"),
            (Distribution::Dynamic, "dynamic"),
        ] {
            let w = Workload::new(ranks * 400, 1.0)
                .iterations(16)
                .sync(sync)
                .distribution(dist)
                .unit_variability(0.15);
            let r = simulate(&cluster, &w, 99);
            t.push(Row::new(&format!("{sl} + {dl}"), r.speedup_vs_uniform));
        }
    }
    t.push(Row::new("mean local speedup", mean));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_mix_gains_most_symmetric_gains_nothing() {
        let s0 = local_speedup(0, 0.03);
        let s2 = local_speedup(2, 0.03);
        assert!(s0 > 1.1, "skewed mix should gain well over 10%: {s0}");
        assert!(s2 < 1.05, "symmetric mix has nothing to gain: {s2}");
        assert!(s0 > s2);
    }

    #[test]
    fn composed_pipeline_translates_when_loose() {
        let t = run(12, 0.03);
        let find = |prefix: &str| {
            t.rows
                .iter()
                .find(|r| r.label.starts_with(prefix))
                .unwrap()
                .measured
        };
        let mean = find("mean local speedup");
        assert!(mean > 1.0, "the on-node layer must produce some gain");
        let loose_dyn = find("loose + dynamic");
        let tight_static = find("tight + static");
        assert!(loose_dyn > tight_static);
        assert!(
            loose_dyn > 1.0 + 0.6 * (mean - 1.0),
            "loose+dynamic {loose_dyn} vs mean {mean}"
        );
    }
}
