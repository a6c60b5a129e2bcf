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
//! series it keeps. The record shares the run's prediction template (a
//! re-optimizing tick whose `search/*` counters differ from the template's
//! writes a copy), and the warm re-search moves the incumbent in and back
//! out. A tick made 7 (re-optimizing) and 5 while each cloned the template
//! — its inputs and its series — kept its residuals twice, and the warm
//! re-search cloned its start twice. Its timeline events allocate nothing:
//! the four bandwidth samples and the provenance instant are packed, their
//! labels literals or keys the run formatted once (41 and 38 while they
//! were `String`s, 29 allocations a tick). Both ways of cutting time serve
//! the tick from one resident run state, so the quantum grid's second
//! sample window costs nothing either.

mod counting;
mod fleets;
mod work;

use memsim::EngineKind;

/// One test, so that no other thread of this binary allocates while a run
/// is counted.
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
