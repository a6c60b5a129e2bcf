//! Property tests on the seeded case runner: random task DAGs execute every task exactly once,
//! respecting dependencies, under random thread-control churn.

use coop_alloc::cases::{check, Gen};
use coop_runtime::{Runtime, RuntimeConfig, ThreadCommand};
use numa_topology::presets::tiny;
use numa_topology::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
