//! The `live_squeeze` round whose allocator work `BENCH_work.json` records:
//! the benchmark's gated DAG (16 levels of 64 fan tasks, each level joined
//! by a latch the next waits on, beside a 128-task chain of finish events,
//! every root waiting on one gate) spawned into a runtime with a hub
//! attached, first with every worker held at `TotalThreads(0)`, then run
//! from the opened gate to quiescence by one worker; and the benchmark's
//! set-up: two runtimes, an agent and two endpoints. The budget test and
//! the recorder include this file next to the counting allocator.

#![allow(dead_code)] // the budget test uses the round, the recorder both

use super::counting::{cost_of, process_cost_of, Cost};
use coop_agent::policies::FairShare;
use coop_agent::proto;
use coop_agent::Agent;
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

/// The names of this process's threads (Linux only).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

/// This process's threads that a `live_squeeze` set-up starts: the
/// workers, watchdogs and endpoints of its `squeeze-*` runtimes, and any
/// agent runner or courier. Counted by name, as the agent's episode counts
/// its serving threads, so that threads of anything else starting or
/// ending meanwhile are not — once every thread has named itself: a new
/// thread wears its spawner's name until it runs, so this waits until no
/// thread but the caller wears the caller's.
fn setup_threads() -> u64 {
    let own = std::fs::read_to_string("/proc/thread-self/comm").expect("the caller's name");
    let own = own.trim_end();
    for _ in 0..10_000 {
        if thread_names().iter().filter(|name| *name == own).count() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    thread_names()
        .iter()
        .filter(|name| {
            name.starts_with("squeeze-") || *name == "coop-runner" || name.ends_with("-courier")
        })
        .count() as u64
}

/// One `live_squeeze` set-up: two runtimes with a hub on `tiny()` (the
/// benchmark sizes its machine by the host, a cell may not), an agent with
/// a `FairShare` policy and each runtime behind a `proto::connect`
/// endpoint, counted until every worker runs; then its threads by name,
/// then its tear-down, waited out.
fn one_setup() -> (Cost, u64) {
    let machine = tiny();
    let ((runtimes, pumps, agent), cost) = cost_of(|| {
        let hub = Arc::new(TelemetryHub::new());
        let start = |name: &str| {
            let config = RuntimeConfig::new(name, machine.clone()).with_telemetry(Arc::clone(&hub));
            Arc::new(Runtime::start(config).expect("runtime starts"))
        };
        let runtimes = [start("squeeze-a"), start("squeeze-b")];
        let mut agent =
            Agent::with_telemetry(Box::new(FairShare::new(machine.clone())), Arc::clone(&hub));
        agent.set_reclaim_machine(machine.clone());
        let mut pumps = Vec::new();
        for rt in &runtimes {
            let (agent_side, runtime_side) =
                proto::connect(Arc::clone(rt)).expect("endpoint pump starts");
            agent.manage(Box::new(agent_side));
            pumps.push(runtime_side);
        }
        for rt in &runtimes {
            let all = machine.total_cores();
            let control = rt.control();
            assert!(control.wait_converged(Duration::from_secs(10), |run, _| run == all));
        }
        (runtimes, pumps, agent)
    });
    let threads = setup_threads();
    drop((agent, pumps));
    for rt in &runtimes {
        rt.shutdown();
    }
    drop(runtimes);
    for _ in 0..1000 {
        if setup_threads() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    (cost, threads)
}

/// The `live_squeeze` set-up cells: its allocator calls and bytes on the
/// calling thread (the threads it starts allocate as they are scheduled),
/// and the threads it starts.
pub fn live_squeeze_setup() -> [(String, f64); 3] {
    assert_eq!(setup_threads(), 0, "no other squeeze runtime runs");
    let (cost, threads) = one_setup();
    [
        ("live_squeeze.setup.calls".into(), cost.calls as f64),
        ("live_squeeze.setup.bytes".into(), cost.bytes as f64),
        ("live_squeeze.setup.threads".into(), threads as f64),
    ]
}
