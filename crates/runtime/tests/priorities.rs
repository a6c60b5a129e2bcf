//! Tests for two-tier task priorities.

use coop_runtime::{Runtime, RuntimeConfig, ThreadCommand};
use coop_telemetry::sync::Mutex;
use numa_topology::presets::tiny;
use numa_topology::NodeId;
use std::sync::Arc;
use std::time::Duration;

/// With a single worker and all tasks queued before any can run,
/// high-priority tasks execute before earlier-spawned normal ones.
#[test]
fn high_priority_runs_before_normal() {
    let rt = Runtime::start(RuntimeConfig::new("prio", tiny())).unwrap();
    // Freeze everyone while we enqueue, then let a single worker drain.
    rt.control().apply(ThreadCommand::TotalThreads(0)).unwrap();
    assert!(rt
        .control()
        .wait_converged(Duration::from_secs(5), |run, _| run == 0));

    let order = Arc::new(Mutex::new(Vec::<String>::new()));
    for i in 0..5 {
        let order = order.clone();
        rt.task(&format!("normal{i}"))
            .body(move |_| order.lock().push(format!("normal{i}")))
            .spawn()
            .unwrap();
    }
    for i in 0..3 {
        let order = order.clone();
        rt.task(&format!("high{i}"))
            .high_priority()
            .body(move |_| order.lock().push(format!("high{i}")))
            .spawn()
            .unwrap();
    }

    rt.control().apply(ThreadCommand::TotalThreads(1)).unwrap();
    rt.wait_quiescent().unwrap();

    let order = order.lock();
    assert_eq!(order.len(), 8);
    // The first three executed tasks are the high-priority ones.
    for (i, name) in order.iter().take(3).enumerate() {
        assert!(
            name.starts_with("high"),
            "position {i} should be high-priority, got {name} (full order {order:?})"
        );
    }
    rt.shutdown();
}

/// High-priority tasks with an affinity hint still land on their node.
#[test]
fn high_priority_respects_affinity() {
    let rt = Runtime::start(RuntimeConfig::new("prio-aff", tiny())).unwrap();
    // Only node 1 may run.
    rt.control()
        .apply(ThreadCommand::PerNode(vec![0, 2]))
        .unwrap();
    assert!(rt
        .control()
        .wait_converged(Duration::from_secs(5), |_, per| per == [0, 2]));

    let wrong = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    for i in 0..10 {
        let wrong = wrong.clone();
        rt.task(&format!("h{i}"))
            .high_priority()
            .affinity(NodeId(1))
            .body(move |ctx| {
                if ctx.node() != NodeId(1) {
                    wrong.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
            })
            .spawn()
            .unwrap();
    }
    rt.wait_quiescent_timeout(Duration::from_secs(20)).unwrap();
    assert_eq!(wrong.load(std::sync::atomic::Ordering::SeqCst), 0);
    rt.shutdown();
}

/// Dependencies work across priorities: a high-priority task waiting on a
/// normal task's finish event runs as soon as it becomes ready.
#[test]
fn priorities_compose_with_dependencies() {
    let rt = Runtime::start(RuntimeConfig::new("prio-dep", tiny())).unwrap();
    let hit = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let (_, finish) = rt
        .task("normal-producer")
        .body(|_| {})
        .spawn_with_finish()
        .unwrap();
    let h = hit.clone();
    rt.task("high-consumer")
        .high_priority()
        .depends_on(&finish)
        .body(move |_| {
            h.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        })
        .spawn()
        .unwrap();
    rt.wait_quiescent().unwrap();
    assert_eq!(hit.load(std::sync::atomic::Ordering::SeqCst), 1);
    rt.shutdown();
}

/// Stats count high-priority ready tasks too.
#[test]
fn stats_include_high_priority_queue() {
    let rt = Runtime::start(RuntimeConfig::new("prio-stats", tiny())).unwrap();
    rt.control().apply(ThreadCommand::TotalThreads(0)).unwrap();
    assert!(rt
        .control()
        .wait_converged(Duration::from_secs(5), |run, _| run == 0));
    rt.task("h").high_priority().body(|_| {}).spawn().unwrap();
    rt.task("n").body(|_| {}).spawn().unwrap();
    assert_eq!(rt.stats().tasks_ready, 2);
    rt.control().apply(ThreadCommand::Unrestricted).unwrap();
    rt.wait_quiescent().unwrap();
    rt.shutdown();
}
