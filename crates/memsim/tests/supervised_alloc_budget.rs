//! Allocation budget of the supervised decision tick.
//!
//! A counting `#[global_allocator]` (`counting/mod.rs`) over the public API: on the `ctl_paper`
//! shape a steady-state tick may allocate for the records it keeps and for
//! nothing it rebuilds. The per-tick cost is the difference between a
//! 500-tick and a 250-tick run divided by 250, so that everything a run sets
//! up once cancels. A fixed-assignment tick makes 5 allocations: the tick's
//! prediction (a clone of the run's template: its inputs and its series, the
//! keys shared), the measured series, and the residuals — once returned,
//! once kept by the provenance record. A re-optimizing tick makes 7: the
//! warm re-search also clones its start and its result, one row-major
//! assignment each. Its timeline events allocate nothing: the four
//! bandwidth samples and the provenance instant are packed, their labels
//! literals or keys the run formatted once (41 and 38 while they were
//! `String`s, 29 allocations a tick). Both ways of cutting time serve the
//! tick from one resident run state, so the quantum grid's second sample
//! window costs nothing either, and one budget holds for both engines; it
//! leaves room for a record to grow a field, not for a rebuilt structure.

mod counting;

use coop_telemetry::TelemetryHub;
use memsim::{run_supervised, EffectModel, EngineKind, SupervisorConfig};
use std::sync::Arc;

/// Allocator calls (allocations and reallocations) one supervised run of
/// `ticks` decision ticks makes, set-up and tear-down included.
fn allocations_of_run(ticks: u64, reoptimize: bool, engine: EngineKind) -> u64 {
    let mut scenario = memsim::scenario::template();
    scenario.effects = EffectModel::skylake_like();
    let config = SupervisorConfig {
        decision_period_s: 0.02,
        duration_s: ticks as f64 * 0.02,
        reoptimize,
        engine,
        ..SupervisorConfig::default()
    };
    let hub = Arc::new(TelemetryHub::new());
    let (result, calls) = counting::allocator_calls(|| run_supervised(&scenario, &config, hub));
    let result = result.expect("the template run succeeds");
    assert_eq!(result.ticks.len() as u64, ticks);
    calls
}

fn per_steady_tick(reoptimize: bool, engine: EngineKind) -> f64 {
    let short = allocations_of_run(250, reoptimize, engine);
    let long = allocations_of_run(500, reoptimize, engine);
    (long - short) as f64 / 250.0
}

/// One test, so that no other thread of this binary allocates while a run
/// is counted.
#[test]
fn steady_state_tick_stays_within_its_allocation_budget() {
    for engine in [EngineKind::Event, EngineKind::Slice] {
        let reopt = per_steady_tick(true, engine);
        let fixed = per_steady_tick(false, engine);
        println!(
            "{engine}: allocations per steady-state tick: reoptimize {reopt:.1}, fixed {fixed:.1}"
        );
        assert!(
            reopt <= 12.0,
            "{engine}: a re-optimizing tick made {reopt:.1} allocations (budget 12)"
        );
        assert!(
            fixed <= 9.0,
            "{engine}: a fixed-assignment tick made {fixed:.1} allocations (budget 9)"
        );
    }
}
