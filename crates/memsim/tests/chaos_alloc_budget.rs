//! Allocation budget of an outage run at fleet scale.
//!
//! The counting `#[global_allocator]` of `supervised_alloc_budget.rs`
//! (`counting/mod.rs`) over the public API: one `run_chaos_scenario_on` of the
//! `fleet_outages` shape — 256 tenants striped over 16 nodes of 18 cores,
//! 16 waves that each take a block of 20 tenants down and bring it back
//! before the next, reclamation on, event engine — so 33 segments, each
//! after a fair-share reclaim over the survivors and a schedule entry cut
//! from it. The count does not depend on the host.
//!
//! While an assignment was one heap row per application the run made
//! 20 080 allocator calls: every `fair_share` allocated (and freed) 236 or
//! 256 rows and the segment matrix 257 more, 33 times over. With one
//! allocation per assignment it makes about 3 600, nearly all of them the
//! simulation's own (per-tenant series, the event heap, the result).

mod counting;

use memsim::{
    run_chaos_scenario_on, AppOutage, ChaosPlan, EffectModel, EngineKind, NamedAssignment,
    Scenario, SimApp,
};
use numa_topology::MachineBuilder;

const TENANTS: usize = 256;
const NODES: usize = 16;
const WAVES: usize = 16;
const BLOCK: usize = 20;
const DURATION_S: f64 = 4.0;

/// One thread per tenant striped over the nodes, memory- and compute-bound
/// tenants alternating.
fn fleet() -> Scenario {
    let machine = MachineBuilder::new()
        .symmetric_nodes(NODES, TENANTS / NODES + 2)
        .core_peak_gflops(12.8)
        .node_bandwidth_gbs(80.0)
        .uniform_link_gbs(12.0)
        .build()
        .expect("fleet machine parameters are well-formed");
    let apps = (0..TENANTS)
        .map(|i| SimApp::numa_local(&format!("t{i}"), if i % 2 == 0 { 1.0 / 32.0 } else { 1.0 }))
        .collect();
    let mut striped = vec![vec![0usize; NODES]; TENANTS];
    for (i, row) in striped.iter_mut().enumerate() {
        row[i % NODES] = 1;
    }
    Scenario {
        name: "fleet-outages-256x16".into(),
        machine,
        apps,
        assignments: vec![NamedAssignment {
            name: "striped".into(),
            threads: striped,
        }],
        duration_s: DURATION_S,
        effects: EffectModel::ideal(),
        seed: 42,
    }
}

/// Wave `w` is down for 3 % of the run, starting a sixteenth of 90 % of the
/// run after wave `w - 1` did: no two overlap.
fn waves() -> ChaosPlan {
    let outages = (0..WAVES)
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

/// One test, so that no other thread of this binary allocates while the run
/// is counted.
#[test]
fn an_outage_run_stays_within_its_allocation_budget() {
    let (scenario, plan) = (fleet(), waves());
    let (out, calls) = counting::allocator_calls(|| {
        run_chaos_scenario_on(&scenario, &plan, None, EngineKind::Event)
    });
    let out = out.expect("the fleet run succeeds");
    assert_eq!(out.segments.len(), 2 * WAVES + 1);
    assert!(out.result.total_gflops() > 0.0);
    println!("allocator calls of one 256 x 16 outage run: {calls}");
    assert!(
        calls <= 4096,
        "an outage run of 33 segments made {calls} allocator calls (budget 4096)"
    );
}
