//! Allocation budget of the supervised decision tick.
//!
//! A counting `#[global_allocator]` (`counting/mod.rs`) over the public API: on the `ctl_paper`
//! shape a steady-state tick may allocate for the records it keeps (the
//! provenance record, the tick's residuals, the timeline events) and for
//! nothing it rebuilds. The per-tick cost is the difference between a
//! 500-tick and a 250-tick run divided by 250, so that everything a run sets
//! up once cancels. A re-optimizing tick makes 41 allocations (48 while an
//! assignment was one heap row per application: the warm re-search clones
//! its incumbent), a fixed-assignment tick 38; the budgets leave room for a
//! record to grow a field, not for a rebuilt structure. The resident run
//! state serves both ways of cutting time; a tick on the quantum grid keeps
//! one record more — its 20 quanta close two sample windows where the event
//! tick's one segment is one, and a bandwidth sample is 5 allocations on
//! each of the 4 nodes — so it makes 61 and 58 (91 and 88 while it built a
//! `SimResult` per tick).

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
        let second_window = match engine {
            EngineKind::Event => 0.0,
            EngineKind::Slice => 4.0 * 5.0,
        };
        assert!(
            reopt <= 48.0 + second_window,
            "{engine}: a re-optimizing tick made {reopt:.1} allocations (budget 48)"
        );
        assert!(
            fixed <= 52.0 + second_window,
            "{engine}: a fixed-assignment tick made {fixed:.1} allocations (budget 52)"
        );
    }
}
