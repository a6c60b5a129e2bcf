//! The `live_squeeze` round whose allocator work `BENCH_work.json` records:
//! the benchmark's gated DAG (16 levels of 64 fan tasks, each level joined
//! by a latch the next waits on, beside a 128-task chain of finish events,
//! every root waiting on one gate) spawned into a runtime with a hub
//! attached, first with every worker held at `TotalThreads(0)`, then run
//! from the opened gate to quiescence by one worker. The budget test and
//! the recorder include this file next to the counting allocator.

use super::counting::process_cost_of;
use coop_runtime::{Event, Runtime, RuntimeConfig, TelemetryHub, ThreadCommand};
use numa_topology::presets::tiny;
use numa_topology::{CpuSet, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const LEVELS: usize = 16;
const FAN_WIDTH: usize = 64;
const CHAIN: usize = 128;
const TASKS: u64 = (LEVELS * FAN_WIDTH + CHAIN) as u64;
/// Every this-many-th fan task carries a node affinity hint.
const AFFINITY_EVERY: usize = 4;
/// Rounds before the measured one: enough for the queues and the timeline
/// ring of the one running worker to stop growing.
const WARM_ROUNDS: usize = 5;

/// Counters task bodies bump.
#[derive(Default)]
struct Ran {
    tasks: AtomicU64,
    hinted_local: AtomicU64,
}

/// The benchmark's `spawn_gated`: bodies capture what its bodies capture
/// (the join, the counters, the hint) and do no work.
fn spawn_gated(rt: &Runtime, ran: &Arc<Ran>) -> Event {
    let gate = rt.new_once_event();
    let nodes = rt.machine().num_nodes();
    let mut prev = gate.clone();
    for level in 0..LEVELS {
        let join = rt.new_latch_event(FAN_WIDTH as u64);
        for t in 0..FAN_WIDTH {
            let hint = (t % AFFINITY_EVERY == 0).then(|| NodeId((level + t) % nodes));
            let mut builder = rt.task("fan").depends_on(&prev);
            if let Some(node) = hint {
                builder = builder.affinity(node);
            }
            let join = join.clone();
            let ran = Arc::clone(ran);
            builder
                .body(move |ctx| {
                    ran.tasks.fetch_add(1, Ordering::Relaxed);
                    if hint == Some(ctx.node()) {
                        ran.hinted_local.fetch_add(1, Ordering::Relaxed);
                    }
                    ctx.satisfy(&join);
                })
                .spawn()
                .expect("fan task spawns");
        }
        prev = join;
    }
    let mut prev = gate.clone();
    for _ in 0..CHAIN {
        let ran = Arc::clone(ran);
        let (_, finished) = rt
            .task("chain")
            .depends_on(&prev)
            .body(move |_| {
                ran.tasks.fetch_add(1, Ordering::Relaxed);
            })
            .spawn_with_finish()
            .expect("chain task spawns");
        prev = finished;
    }
    gate
}

/// Blocks every core but the machine's first.
fn first_worker_only(rt: &Runtime) -> ThreadCommand {
    let others = rt.machine().nodes().flat_map(|n| n.cores()).skip(1);
    ThreadCommand::BlockCores(CpuSet::from_cores(others))
}

/// The `live_squeeze` cells: allocator calls and bytes per task of a
/// steady round's spawn, and allocator calls per task of its execution.
pub fn live_squeeze() -> Vec<(String, f64)> {
    let hub = Arc::new(TelemetryHub::new());
    let rt = Runtime::start(RuntimeConfig::new("squeeze", tiny()).with_telemetry(hub))
        .expect("runtime starts");
    let ran = Arc::new(Ran::default());
    let round = || {
        let control = rt.control();
        control
            .apply(ThreadCommand::TotalThreads(0))
            .expect("a valid count");
        assert!(control.wait_converged(Duration::from_secs(10), |run, _| run == 0));
        let (gate, spawn) = process_cost_of(|| spawn_gated(&rt, &ran));
        // The gate opens before the worker starts, so no other thread
        // pushes while it steals, and it is the same worker every round:
        // its batches, and so its calls, are fixed.
        let ((), execute) = process_cost_of(|| {
            rt.satisfy(&gate).expect("the gate is the runtime's");
            control
                .apply(first_worker_only(&rt))
                .expect("tiny() has the cores");
            rt.wait_quiescent().expect("no task panics");
        });
        (spawn, execute)
    };
    for _ in 0..WARM_ROUNDS {
        round();
    }
    let (spawn, execute) = round();
    let rounds = WARM_ROUNDS as u64 + 1;
    assert_eq!(ran.tasks.load(Ordering::Relaxed), rounds * TASKS);
    rt.shutdown();
    // To three decimals: a cell reads as calls per task, not as a ratio.
    let per_task = |n: u64| (n as f64 * 1000.0 / TASKS as f64).round() / 1000.0;
    vec![
        (
            "live_squeeze.spawn.calls_per_task".into(),
            per_task(spawn.calls),
        ),
        (
            "live_squeeze.spawn.bytes_per_task".into(),
            per_task(spawn.bytes),
        ),
        (
            "live_squeeze.execute.calls_per_task".into(),
            per_task(execute.calls),
        ),
    ]
}
