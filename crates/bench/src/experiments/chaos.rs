//! E-chaos: what core reclamation buys under partial failure.
//!
//! The supervision layer's promise (agent `supervise` module) is that when
//! one cooperating application dies, the survivors absorb its cores
//! instead of letting them idle. This experiment measures that promise in
//! the simulator across application mixes: each mix runs the same
//! kill-at-half-time outage twice — once with the dead application's cores
//! idling (no reclamation) and once with the survivors fair-sharing them —
//! and reports the survivor-throughput ratio. A ratio above 1.0 is the
//! payoff of eviction + reclamation; symmetric memory-bound mixes show the
//! smallest gain (the freed cores add bandwidth pressure, not compute),
//! compute-heavy mixes the largest.

use crate::report::{Row, Table};
use memsim::chaos::{run_chaos_scenario, AppOutage, ChaosPlan};
use memsim::scenario::NamedAssignment;
use memsim::{EffectModel, Scenario, SimApp};
use numa_topology::presets::dual_socket;

/// One experiment mix: a label, the applications, and which one dies.
fn mixes() -> Vec<(&'static str, Vec<SimApp>, usize)> {
    vec![
        (
            "compute mix, comp dies",
            vec![
                SimApp::numa_local("mem", 1.0 / 16.0),
                SimApp::numa_local("comp1", 8.0),
                SimApp::numa_local("comp2", 8.0),
            ],
            1,
        ),
        (
            "compute mix, mem dies",
            vec![
                SimApp::numa_local("mem", 1.0 / 16.0),
                SimApp::numa_local("comp1", 8.0),
                SimApp::numa_local("comp2", 8.0),
            ],
            0,
        ),
        (
            "symmetric memory-bound",
            vec![
                SimApp::numa_local("mem1", 1.0 / 16.0),
                SimApp::numa_local("mem2", 1.0 / 16.0),
                SimApp::numa_local("mem3", 1.0 / 16.0),
            ],
            2,
        ),
    ]
}

/// Builds the fair-share starting scenario for one mix.
fn scenario(label: &str, apps: Vec<SimApp>, duration_s: f64) -> Scenario {
    let machine = dual_socket();
    let fair = coop_alloc::strategies::fair_share(&machine, apps.len())
        .expect("fair share of dual-socket is valid");
    Scenario {
        name: format!("chaos:{label}"),
        assignments: vec![NamedAssignment {
            name: "fair".into(),
            threads: fair.to_matrix(),
        }],
        duration_s,
        effects: EffectModel::skylake_like(),
        seed: 11,
        machine,
        apps,
    }
}

/// Survivor throughput (GFLOPS, dead app excluded) of one chaos run.
fn survivor_gflops(s: &Scenario, victim: usize, reclaim: bool, duration_s: f64) -> f64 {
    let plan = ChaosPlan {
        outages: vec![AppOutage {
            app: victim,
            down_at_s: duration_s / 2.0,
            up_at_s: None,
        }],
        reclaim,
    };
    let r = run_chaos_scenario(s, &plan).expect("chaos scenario runs");
    (0..s.apps.len())
        .filter(|&i| i != victim)
        .map(|i| r.result.app_gflops(i))
        .sum()
}

/// Runs the experiment: survivor-throughput ratio (reclaimed / idle) per
/// mix, simulated for `duration_s` seconds each.
pub fn run(duration_s: f64) -> Table {
    let mut table = Table::new(
        "E-chaos: survivor throughput, reclaimed vs idle cores",
        "ratio",
    );
    for (label, apps, victim) in mixes() {
        let s = scenario(label, apps, duration_s);
        let idle = survivor_gflops(&s, victim, false, duration_s);
        let reclaimed = survivor_gflops(&s, victim, true, duration_s);
        table.push(Row::new(label, reclaimed / idle));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclamation_never_hurts_and_helps_compute_mixes() {
        let table = run(0.05);
        assert_eq!(table.rows.len(), 3);
        for row in &table.rows {
            assert!(
                row.measured >= 0.9,
                "{}: reclamation must not hurt survivors ({})",
                row.label,
                row.measured
            );
        }
        // Losing a compute app frees cores the other compute app can use
        // productively: a clear win.
        assert!(
            table.rows[1].measured > 1.05,
            "compute survivors must gain from reclaimed cores ({})",
            table.rows[1].measured
        );
    }
}
