//! Allocation budgets of the two fleet-scale runs.
//!
//! The counting `#[global_allocator]` of `supervised_alloc_budget.rs`
//! (`counting/mod.rs`) over the public API, on two fleets of one shape (one
//! thread per tenant striped over the nodes, memory- and compute-bound
//! tenants alternating, ideal effects, event cuts). The counts do not
//! depend on the host.
//!
//! - An outage run of the `fleet_outages` shape: one `run_chaos_scenario_on`
//!   of 256 tenants on 16 nodes of 18 cores, 16 waves that each take a
//!   block of 20 tenants down and bring it back before the next,
//!   reclamation on — so 33 segments, each after a fair-share reclaim over
//!   the survivors and a schedule entry cut from it.
//! - A bursting run of the `fleet_diurnal` shape: one `run_logged` of 1 000
//!   tenants on 64 nodes, each bursting at a 50 % duty in one of 16 phase
//!   groups — about 7 900 events in 64 segments.
//!
//! Where the calls go. Since an assignment became one allocation, almost
//! all of them are the result's: three per tenant, its name, its sample
//! times and its sample rates, each built once at its exact length (768 of
//! the outage run's 989). The rest grows with the run, not the fleet: a
//! sample window appends one time and one flat row of per-tenant rates,
//! and those two vectors and the event log grow by doubling. Each of the
//! outage run's 33 segments adds its live flags and one
//! `fair_share_among`: the survivors' row indices, the per-node splits and
//! the assignment itself. The outage run made 1 505 calls while
//! `Scenario::validate` cloned the 256-row matrix to check its shape, the
//! runner cloned it again as the survivors' `base` with reclamation on, and
//! each segment copied a `shared` fair share into a zeroed matrix of its
//! own; 3 541 while each sample window pushed onto two vectors per tenant,
//! all of them growing by doubling (the bursting run: 11 074).

mod counting;
mod fleets;

use fleets::{machine, outage_fleet, striped, tenant, waves, DURATION_S, WAVES};
use memsim::{
    run_chaos_scenario_on, ActivityPattern, EffectModel, EngineKind, SimApp, SimConfig, Simulation,
};
use roofline_numa::ThreadAssignment;

/// The bursting fleet: 1 000 tenants on 64 nodes.
const BURSTING_TENANTS: usize = 1000;
const BURSTING_NODES: usize = 64;

/// Tenants bursting at a 50 % duty over a quarter of the run, in 16 phase
/// groups.
fn bursting_tenants() -> Vec<SimApp> {
    let period_s = DURATION_S / 4.0;
    (0..BURSTING_TENANTS)
        .map(|i| {
            tenant(i).with_activity(ActivityPattern::Bursts {
                period_s,
                duty: 0.5,
                phase_s: period_s * (i * 7 % 16) as f64 / 16.0,
            })
        })
        .collect()
}

/// One test, so that no other thread of this binary allocates while a run
/// is counted: the outage run, then the bursting run.
#[test]
fn an_outage_run_stays_within_its_allocation_budget() {
    let (scenario, plan) = (outage_fleet(), waves());
    let (out, calls) = counting::allocator_calls(|| {
        run_chaos_scenario_on(&scenario, &plan, None, EngineKind::Event)
    });
    let out = out.expect("the outage run succeeds");
    assert_eq!(out.segments.len(), 2 * WAVES + 1);
    assert!(out.result.total_gflops() > 0.0);
    println!("allocator calls of one 256 x 16 outage run: {calls}");
    assert!(
        calls <= 1088,
        "an outage run of 33 segments made {calls} allocator calls (budget 1088)"
    );

    let sim = Simulation::new(
        SimConfig::new(machine(BURSTING_TENANTS, BURSTING_NODES))
            .with_effects(EffectModel::ideal())
            .with_seed(42),
    );
    let apps = bursting_tenants();
    let striped = ThreadAssignment::from_matrix(striped(BURSTING_TENANTS, BURSTING_NODES));
    let schedule = [(0.0, striped)];
    let (out, calls) = counting::allocator_calls(|| sim.run_logged(&apps, &schedule, DURATION_S));
    let (result, log) = out.expect("the bursting run succeeds");
    assert!(log.len() > 4 * BURSTING_TENANTS && result.total_gflops() > 0.0);
    println!(
        "allocator calls of one 1000 x 64 bursting run ({} events, {} segments): {calls}",
        log.len(),
        log.segments
    );
    let budget = 4 * BURSTING_TENANTS as u64;
    assert!(
        calls <= budget,
        "a 1000-tenant bursting run made {calls} allocator calls (budget {budget}, 4 per tenant)"
    );
}
