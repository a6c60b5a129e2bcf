//! Property tests on the seeded case runner: random task DAGs execute every task exactly once,
//! respecting dependencies, under random thread-control churn and under spawns racing the
//! satisfactions they wait for.

use coop_alloc::cases::{check, Gen};
use coop_runtime::{Event, EventKind, Runtime, RuntimeConfig, ThreadCommand};
use numa_topology::presets::tiny;
use numa_topology::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const CASES: usize = 24;

/// A random DAG description: for each task, the set of earlier tasks it
/// depends on (indices strictly smaller, so the graph is acyclic by
/// construction).
#[derive(Debug, Clone)]
struct DagSpec {
    deps: Vec<Vec<usize>>,
}

fn arb_dag(g: &mut Gen, max_tasks: usize) -> DagSpec {
    let n = g.size(1..max_tasks);
    // For task i, choose a subset of 0..i as dependencies.
    let deps = (0..n)
        .map(|i| {
            let mut d = g.vec(0..i.min(4) + 1, |g| g.range(0..i.max(1)));
            d.retain(|&x| x < i);
            d.sort_unstable();
            d.dedup();
            d
        })
        .collect();
    DagSpec { deps }
}

/// Every task of a random DAG runs exactly once, and only after all its
/// dependencies have finished.
#[test]
fn random_dag_executes_in_order() {
    check(1, CASES, |g| {
        let spec = arb_dag(g, 24);
        let rt = Runtime::start(RuntimeConfig::new("dag", tiny())).unwrap();
        let n = spec.deps.len();
        // finished[i] = logical completion timestamp (0 = not finished).
        let stamps: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let clock = Arc::new(AtomicU64::new(1));

        // Build finish events in topological (index) order.
        let mut finish_events = Vec::with_capacity(n);
        for (i, deps) in spec.deps.iter().enumerate() {
            let stamps = stamps.clone();
            let clock = clock.clone();
            let mut builder = rt
                .task(&format!("t{i}"))
                .body(move |_| {
                    let t = clock.fetch_add(1, Ordering::SeqCst);
                    let prev = stamps[i].swap(t, Ordering::SeqCst);
                    assert_eq!(prev, 0, "task {i} ran twice");
                })
                .with_finish_event();
            for &d in deps {
                let ev: &coop_runtime::Event = &finish_events[d];
                builder = builder.depends_on(ev);
            }
            let (_, ev) = builder.spawn_with_finish().unwrap();
            finish_events.push(ev);
        }

        rt.wait_quiescent().unwrap();
        // Every task ran exactly once...
        for i in 0..n {
            assert!(stamps[i].load(Ordering::SeqCst) > 0, "task {i} never ran");
        }
        // ...and after each of its dependencies.
        for (i, deps) in spec.deps.iter().enumerate() {
            for &d in deps {
                assert!(
                    stamps[d].load(Ordering::SeqCst) < stamps[i].load(Ordering::SeqCst),
                    "task {i} ran before its dependency {d}"
                );
            }
        }
        assert_eq!(rt.stats().tasks_executed, n as u64);
        rt.shutdown();
    });
}

/// Thread-control churn (random command sequences) never loses tasks
/// and always converges to the final command's census.
#[test]
fn control_churn_loses_nothing() {
    check(2, CASES, |g| {
        let commands = g.vec(1..6, |g| g.range(0..4u8));
        let tasks = g.size(1..40);
        let rt = Runtime::start(RuntimeConfig::new("churn", tiny())).unwrap();
        let count = Arc::new(AtomicU64::new(0));
        for i in 0..tasks {
            let c = count.clone();
            rt.task(&format!("t{i}"))
                .body(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                })
                .spawn()
                .unwrap();
        }
        for (k, cmd) in commands.iter().enumerate() {
            let command = match cmd {
                0 => ThreadCommand::TotalThreads(1 + k % 4),
                1 => ThreadCommand::PerNode(vec![1 + k % 2, (k + 1) % 3]),
                2 => ThreadCommand::Unrestricted,
                _ => ThreadCommand::TotalThreads(2),
            };
            // PerNode targets of 0 are allowed; ensure at least one node
            // can run so the work finishes.
            rt.control().apply(command).unwrap();
        }
        // Whatever the churn was, end unrestricted so work can drain.
        rt.control().apply(ThreadCommand::Unrestricted).unwrap();
        rt.wait_quiescent_timeout(Duration::from_secs(20)).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), tasks as u64);
        assert!(rt
            .control()
            .wait_converged(Duration::from_secs(5), |run, _| run == 4));
        rt.shutdown();
    });
}

/// Affinity hints are honoured for queue placement: with all workers of
/// the hinted node available and no competing work, tasks run there.
#[test]
fn affinity_single_node_workload() {
    check(3, CASES, |g| {
        let node_idx = g.range(0..2usize);
        let rt = Runtime::start(RuntimeConfig::new("aff", tiny())).unwrap();
        // Freeze the *other* node so no stealing can occur.
        let mut targets = vec![2, 2];
        targets[1 - node_idx] = 0;
        rt.control().apply(ThreadCommand::PerNode(targets)).unwrap();
        assert!(rt
            .control()
            .wait_converged(Duration::from_secs(5), |_, per| per[1 - node_idx] == 0));
        let on_node = Arc::new(AtomicU64::new(0));
        for i in 0..10 {
            let on_node = on_node.clone();
            rt.task(&format!("t{i}"))
                .affinity(NodeId(node_idx))
                .body(move |ctx| {
                    if ctx.node() == NodeId(node_idx) {
                        on_node.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .spawn()
                .unwrap();
        }
        rt.wait_quiescent_timeout(Duration::from_secs(20)).unwrap();
        assert_eq!(on_node.load(Ordering::SeqCst), 10);
        rt.shutdown();
    });
}

/// Spawner threads race satisfier threads on shared once and latch events.
/// A task waits on 0–3 of them, so it goes straight to a queue, waits in
/// one event's list as it is, or waits in several behind a shared counter
/// — and any of its events may satisfy between the spawn's first look and
/// its re-check under the event's lock. Every task runs exactly once,
/// after all its dependencies, and nothing stays pending.
#[test]
fn spawns_racing_satisfactions_release_every_task_once() {
    const SPAWNERS: usize = 2;
    const SATISFIERS: usize = 2;
    // The race window is a few instructions wide: without the re-check
    // under the lock, 4 × CASES cases strand a task in most runs.
    check(4, 4 * CASES, |g| {
        let rt = Runtime::start(RuntimeConfig::new("race", tiny())).unwrap();
        let events: Vec<Event> = (0..g.size(1..8))
            .map(|_| match g.range(0..32u64) {
                0 => rt.new_once_event(),
                n => rt.new_latch_event(n + 1),
            })
            .collect();
        // Every decrement each event needs, dealt to a satisfier thread.
        let mut decrements = vec![Vec::new(); SATISFIERS];
        for event in &events {
            let count = match event.kind() {
                EventKind::Once => 1,
                EventKind::Latch { count } => count,
            };
            for _ in 0..count {
                decrements[g.range(0..SATISFIERS)].push(event.clone());
            }
        }
        let tasks: Vec<Vec<Vec<usize>>> = (0..SPAWNERS)
            .map(|_| {
                let n = g.size(1..200);
                (0..n)
                    .map(|_| g.vec(0..4, |g| g.range(0..events.len())))
                    .collect()
            })
            .collect();
        let total: usize = tasks.iter().map(Vec::len).sum();
        let runs: Arc<Vec<AtomicU64>> = Arc::new((0..total).map(|_| AtomicU64::new(0)).collect());

        let start = Barrier::new(SPAWNERS + SATISFIERS);
        std::thread::scope(|s| {
            let mut first = 0;
            for spawner in &tasks {
                let (rt, events, runs, start) = (&rt, &events, &runs, &start);
                s.spawn(move || {
                    start.wait();
                    for (k, deps) in spawner.iter().enumerate() {
                        let i = first + k;
                        let deps: Vec<Event> = deps.iter().map(|&d| events[d].clone()).collect();
                        let runs = Arc::clone(runs);
                        rt.task(&format!("t{i}"))
                            .depends_on_all(&deps)
                            .body({
                                let deps = deps.clone();
                                move |_| {
                                    assert!(
                                        deps.iter().all(Event::is_satisfied),
                                        "task {i} ran before its dependencies"
                                    );
                                    runs[i].fetch_add(1, Ordering::SeqCst);
                                }
                            })
                            .spawn()
                            .unwrap();
                    }
                });
                first += spawner.len();
            }
            for share in &decrements {
                let (rt, start) = (&rt, &start);
                s.spawn(move || {
                    start.wait();
                    // Yielding spreads the satisfactions over the spawns.
                    for event in share {
                        rt.satisfy(event).unwrap();
                        std::thread::yield_now();
                    }
                });
            }
        });

        rt.wait_quiescent_timeout(Duration::from_secs(20)).unwrap();
        for (i, n) in runs.iter().enumerate() {
            assert_eq!(n.load(Ordering::SeqCst), 1, "task {i} ran {n:?} times");
        }
        assert_eq!(rt.stats().tasks_pending, 0);
        rt.shutdown();
    });
}
