//! Allocation budget of the supervised decision tick.
//!
//! A counting `#[global_allocator]` over the public API: on the `ctl_paper`
//! shape a steady-state tick may allocate for the records it keeps (the
//! provenance record, the tick's residuals, the timeline events) and for
//! nothing it rebuilds. The per-tick cost is the difference between a
//! 500-tick and a 250-tick run divided by 250, so that everything a run sets
//! up once cancels. An integration test is a crate of its own: the
//! libraries' `#![forbid(unsafe_code)]` stands.

use coop_telemetry::TelemetryHub;
use memsim::{run_supervised, EffectModel, EngineKind, SupervisorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls (allocations and reallocations) one supervised run of
/// `ticks` decision ticks makes, set-up and tear-down included.
fn allocations_of_run(ticks: u64, reoptimize: bool) -> u64 {
    let mut scenario = memsim::scenario::template();
    scenario.effects = EffectModel::skylake_like();
    let config = SupervisorConfig {
        decision_period_s: 0.02,
        duration_s: ticks as f64 * 0.02,
        reoptimize,
        engine: EngineKind::Event,
        ..SupervisorConfig::default()
    };
    let hub = Arc::new(TelemetryHub::new());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = run_supervised(&scenario, &config, hub).expect("the template run succeeds");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(result.ticks.len() as u64, ticks);
    after - before
}

fn per_steady_tick(reoptimize: bool) -> f64 {
    let short = allocations_of_run(250, reoptimize);
    let long = allocations_of_run(500, reoptimize);
    (long - short) as f64 / 250.0
}

/// One test, so that no other thread of this binary allocates while a run
/// is counted.
#[test]
fn steady_state_tick_stays_within_its_allocation_budget() {
    let reopt = per_steady_tick(true);
    let fixed = per_steady_tick(false);
    println!("allocations per steady-state tick: reoptimize {reopt:.1}, fixed {fixed:.1}");
    assert!(
        reopt <= 64.0,
        "a re-optimizing tick made {reopt:.1} allocations (budget 64)"
    );
    assert!(
        fixed <= 52.0,
        "a fixed-assignment tick made {fixed:.1} allocations (budget 52)"
    );
}
