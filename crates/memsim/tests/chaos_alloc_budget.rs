//! Allocation budgets of the two fleet-scale runs.
//!
//! The counting `#[global_allocator]` (`counting/mod.rs`) over the public
//! API, on two fleets of one shape (`work/mod.rs`: one thread per tenant
//! striped over the nodes, memory- and compute-bound tenants alternating,
//! ideal effects, event cuts). The counts do not depend on the host, and
//! neither may exceed its committed `BENCH_work.json` cell.
//!
//! - An outage run of the `fleet_outages` shape: one `run_chaos_scenario_on`
//!   of 256 tenants on 16 nodes of 18 cores, 16 waves that each take a
//!   block of 20 tenants down and bring it back before the next,
//!   reclamation on — so 33 segments, each written as the survivors'
//!   cells of a fair-share reclaim.
//! - A bursting run of the `fleet_diurnal` shape: one `run_logged` of 1 000
//!   tenants on 64 nodes, each bursting at a 50 % duty in one of 16 phase
//!   groups — about 7 900 events in 64 segments.
//!
//! Where the calls go. Since an assignment became one allocation, almost
//! all of them are the result's: three per tenant, its name, its sample
//! times and its sample rates, each built once at its exact length (768 of
//! the outage run's 920). The rest grows with the run, not the fleet: a
//! sample window appends one time and one flat row of per-tenant rates,
//! and those two vectors, the event log and the run's one flat buffer of
//! schedule cells grow by doubling. Each of the outage run's 33 segments
//! adds its live flags and the per-node split table of `fair_split`, whose
//! cells go straight to that buffer. The outage run made 986 calls while
//! each segment was a `fair_share_among` matrix (the survivors' row
//! indices, the split table and the 256 × 16 assignment itself); 1 505
//! while `Scenario::validate` cloned the 256-row matrix to check its
//! shape, the runner cloned it again as the survivors' `base` with
//! reclamation on, and each segment copied a `shared` fair share into a
//! zeroed matrix of its own; 3 541 while each sample window pushed onto two
//! vectors per tenant, all of them growing by doubling (the bursting run:
//! 11 074).

mod counting;
mod fleets;
mod work;

/// The outage run, then the bursting run, each counted on the test's own
/// thread (`counting::cost_of`). Their segment and event counts are held to
/// their cells too.
#[test]
fn an_outage_run_stays_within_its_allocation_budget() {
    let cells = work::fleet_outages_run()
        .into_iter()
        .chain(work::fleet_diurnal_run());
    for (name, measured) in cells {
        println!("{name}: {measured}");
        let budget = counting::committed(&name);
        assert!(
            measured <= budget,
            "{name}: {measured} (committed {budget})"
        );
    }
}
