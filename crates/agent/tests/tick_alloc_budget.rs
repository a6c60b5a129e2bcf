//! Allocation budget of the real agent's tick.
//!
//! A counting `#[global_allocator]` over the public API (the instrument of
//! `crates/memsim/tests/supervised_alloc_budget.rs`): eight in-memory
//! runtimes under supervision, a tenant ledger installed, and a policy with
//! no search due. The count covers every thread of the process, so what the
//! eight couriers and the stand-in runtimes allocate to answer a poll is in
//! it. The per-tick cost is the difference between a 600-tick and a
//! 300-tick run divided by 300, so that what a run sets up once (threads,
//! series, the ledger's tenants) cancels. An integration test is a crate of
//! its own: the libraries' `#![forbid(unsafe_code)]` stands.
//!
//! Recorded with this file, unedited, at the parent commit 0eba4bc, where a
//! tick looked `scheduler_locality(registry, name)` up for every tenant
//! (36 allocations each: five keys of a name, a label vector and its
//! strings) and cloned the handle names it passed on: **374** allocations a
//! quiet tick, **504** a commanding one. With the five counters kept per
//! handle and the names borrowed the same two ticks make **78** and **199**,
//! and repeat to the allocation; the budgets below leave room for a record
//! or two, not for a lookup per tenant.

use coop_agent::{Agent, Policy, RuntimeHandle, RuntimeStats, SupervisionConfig, ThreadCommand};
use coop_runtime::NodeOccupancy;
use coop_telemetry::{TelemetryHub, TenantLedger};
use numa_topology::presets::tiny;
use numa_topology::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

const RUNTIMES: usize = 8;

/// An in-memory runtime on `tiny()`'s two nodes whose counters advance with
/// every poll, as a working runtime's do.
struct Stub {
    name: String,
    polls: AtomicU64,
}

impl RuntimeHandle for Stub {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn stats(&self) -> coop_agent::Result<RuntimeStats> {
        let n = self.polls.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(RuntimeStats {
            name: self.name.clone(),
            tasks_executed: 200 * n,
            tasks_panicked: 0,
            tasks_spawned: 200 * n,
            tasks_ready: 0,
            tasks_pending: 0,
            running_workers: 2,
            blocked_workers: 2,
            external_threads: 0,
            per_node: (0..2)
                .map(|node| NodeOccupancy {
                    node: NodeId(node),
                    running_workers: 1,
                    tasks_executed: 100 * n,
                })
                .collect(),
            user_counters: HashMap::new(),
            uptime_us: 1_000 * n,
            tasks_preempted: 0,
            tasks_runaway: 0,
            overbudget_cpu_us: 0,
        })
    }

    fn command(&self, _cmd: ThreadCommand) -> coop_agent::Result<()> {
        Ok(())
    }
}

/// No search due: nothing to command, or the same one thread per node to
/// everybody every tick.
struct Fixed {
    commanding: bool,
}

impl Policy for Fixed {
    fn tick(&mut self, stats: &[RuntimeStats], _tick: u64) -> Vec<Option<ThreadCommand>> {
        let cmd = self.commanding.then(|| ThreadCommand::PerNode(vec![1, 1]));
        vec![cmd; stats.len()]
    }
}

/// Allocator calls (allocations and reallocations) of one agent's life of
/// `ticks` ticks, set-up and tear-down included.
fn allocations_of_run(ticks: u64, commanding: bool) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let hub = Arc::new(TelemetryHub::new());
    assert!(hub.install_tenant_ledger(Arc::new(TenantLedger::new())));
    let mut agent = Agent::with_telemetry(Box::new(Fixed { commanding }), hub);
    agent.set_supervision(SupervisionConfig::aggressive(Duration::from_secs(5)));
    agent.set_reclaim_machine(tiny());
    for i in 0..RUNTIMES {
        agent.manage(Box::new(Stub {
            name: format!("app{i}"),
            polls: AtomicU64::new(0),
        }));
    }
    for _ in 0..ticks {
        agent.tick().expect("a tick never fails");
    }
    let log = agent.log();
    assert_eq!(log.ticks, ticks);
    assert!(log.errors.is_empty(), "{:?}", log.errors);
    assert_eq!(
        log.decisions.len() as u64,
        if commanding {
            RUNTIMES as u64 * ticks
        } else {
            0
        }
    );
    drop(log);
    drop(agent);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn per_steady_tick(commanding: bool) -> f64 {
    let short = allocations_of_run(300, commanding);
    let long = allocations_of_run(600, commanding);
    (long - short) as f64 / 300.0
}

/// One test, so that no other thread of this binary allocates while a run
/// is counted.
#[test]
fn steady_state_tick_stays_within_its_allocation_budget() {
    let quiet = per_steady_tick(false);
    let commanding = per_steady_tick(true);
    println!("allocations per steady-state tick: quiet {quiet:.1}, commanding {commanding:.1}");
    assert!(
        quiet <= 96.0,
        "a quiet tick over {RUNTIMES} runtimes made {quiet:.1} allocations (budget 96)"
    );
    assert!(
        commanding <= 224.0,
        "a commanding tick over {RUNTIMES} runtimes made {commanding:.1} allocations (budget 224)"
    );
}
