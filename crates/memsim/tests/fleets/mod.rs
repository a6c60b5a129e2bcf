//! The fleets of the budget and pin tests: one thread per tenant striped
//! over the nodes, memory- and compute-bound tenants alternating, ideal
//! effects, with two cores a node to spare. The outage fleet is the
//! `fleet_outages` shape: 256 tenants on 16 nodes of 18 cores, 16 waves
//! that each take a block of 20 tenants down and bring it back before the
//! next — 33 segments.

use memsim::{AppOutage, ChaosPlan, EffectModel, NamedAssignment, Scenario, SimApp};
use numa_topology::{Machine, MachineBuilder};

pub const DURATION_S: f64 = 4.0;

/// The outage fleet: 256 tenants on 16 nodes.
pub const TENANTS: usize = 256;
pub const NODES: usize = 16;
pub const WAVES: usize = 16;
const BLOCK: usize = 20;

/// `nodes` nodes with two cores to spare over the striped tenants.
pub fn machine(tenants: usize, nodes: usize) -> Machine {
    MachineBuilder::new()
        .symmetric_nodes(nodes, tenants.div_ceil(nodes) + 2)
        .core_peak_gflops(12.8)
        .node_bandwidth_gbs(80.0)
        .uniform_link_gbs(12.0)
        .build()
        .expect("fleet machine parameters are well-formed")
}

/// One thread per tenant striped over the nodes.
pub fn striped(tenants: usize, nodes: usize) -> Vec<Vec<usize>> {
    let mut striped = vec![vec![0usize; nodes]; tenants];
    for (i, row) in striped.iter_mut().enumerate() {
        row[i % nodes] = 1;
    }
    striped
}

/// Memory- and compute-bound tenants alternating.
pub fn tenant(i: usize) -> SimApp {
    SimApp::numa_local(
        &format!("t{i}"),
        if i.is_multiple_of(2) { 1.0 / 32.0 } else { 1.0 },
    )
}

pub fn outage_fleet() -> Scenario {
    Scenario {
        name: "fleet-outages-256x16".into(),
        machine: machine(TENANTS, NODES),
        apps: (0..TENANTS).map(tenant).collect(),
        assignments: vec![NamedAssignment {
            name: "striped".into(),
            threads: striped(TENANTS, NODES),
        }],
        duration_s: DURATION_S,
        effects: EffectModel::ideal(),
        seed: 42,
    }
}

/// Wave `w` is down for 3 % of the run, starting a sixteenth of 90 % of the
/// run after wave `w - 1` did: no two overlap. Reclamation on.
pub fn waves() -> ChaosPlan {
    waves_of(WAVES)
}

/// The first `n` of those waves, at the same times: `2 * n + 1` segments.
pub fn waves_of(n: usize) -> ChaosPlan {
    let outages = (0..n)
        .flat_map(|wave| {
            let down_at_s = DURATION_S * (0.05 + 0.9 * wave as f64 / WAVES as f64);
            let lo = wave * 37 % (TENANTS - BLOCK + 1);
            (lo..lo + BLOCK).map(move |app| AppOutage {
                app,
                down_at_s,
                up_at_s: Some(down_at_s + DURATION_S * 0.03),
            })
        })
        .collect();
    ChaosPlan {
        outages,
        reclaim: true,
    }
}
