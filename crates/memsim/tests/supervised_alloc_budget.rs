//! Allocation budget of the supervised decision tick.
//!
//! The counting `#[global_allocator]` (`counting/mod.rs`) over the public
//! API, on the `ctl_paper` shape (`work/mod.rs`): a steady-state tick may
//! allocate for what it leaves behind and for nothing it rebuilds. The
//! per-tick cost is the difference between a 500-tick and a 250-tick run
//! divided by 250, so that everything a run sets up once cancels; it may not
//! exceed its committed `BENCH_work.json` cell. A tick makes 2 allocations,
//! re-optimizing or not: the measured series and the residuals, which the
//! tick keeps and the provenance record derives again from the measured
//! series it keeps. The record shares the run's prediction template, built
//! again only when the rows in force or the policy's `search/*` inputs
//! change; a re-optimizing tick with no search due, or a skipped one, asks
//! the policy for nothing it allocates. A tick made 7 (re-optimizing) and
//! 5 while each cloned the template — its inputs and its series — kept its
//! residuals twice, and the warm re-search cloned its start twice. Its
//! timeline events allocate nothing: the four bandwidth samples, the
//! provenance instant and any drift alarms are packed, their labels
//! literals or keys the run formatted once (41 and 38 while they were
//! `String`s, 29 allocations a tick; a drift alarm made 12, which the
//! policy's rows, alarming on 1.4 series a tick, would have made 18.8 a
//! tick). Both ways of cutting time serve the tick from one resident run
//! state, so the quantum grid's second sample window costs nothing either.

mod counting;
mod fleets;
mod work;

use memsim::EngineKind;

/// Each run is counted on the test's own thread (`counting::cost_of`), so
/// what the harness's threads allocate meanwhile is not in it.
#[test]
fn steady_state_tick_stays_within_its_allocation_budget() {
    for engine in [EngineKind::Event, EngineKind::Slice] {
        for reoptimize in [true, false] {
            let [(name, calls), (_, bytes)] = work::ctl_paper_tick(reoptimize, engine);
            println!("{name}: {calls:.3} ({bytes:.1} bytes)");
            let budget = counting::committed(&name);
            assert!(
                calls <= budget,
                "{name}: a steady tick made {calls:.3} allocator calls (committed {budget})"
            );
        }
    }
}
