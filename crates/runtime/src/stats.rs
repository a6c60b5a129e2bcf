//! Runtime statistics — what the agent process consumes.
//!
//! Figure 1 of the paper: the agent "receives information about the
//! execution from the runtimes (number of tasks executed, number of running
//! threads, etc.)". [`RuntimeStats`] is that message. Counters are plain
//! atomics updated by workers; a snapshot is consistent enough for control
//! decisions (the paper's agent polls, it does not need a linearizable
//! view).

use coop_telemetry::sync::Mutex;
use numa_topology::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-node occupancy in a [`RuntimeStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOccupancy {
    /// The node.
    pub node: NodeId,
    /// Workers currently running (not blocked) on this node.
    pub running_workers: usize,
    /// Tasks executed by workers of this node so far.
    pub tasks_executed: u64,
}

/// A point-in-time snapshot of a runtime's execution state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// Runtime (application) name.
    pub name: String,
    /// Tasks whose bodies have finished successfully.
    pub tasks_executed: u64,
    /// Tasks that panicked (contained; see `RuntimeError::TaskPanicked`).
    pub tasks_panicked: u64,
    /// Tasks spawned so far (executed + panicked + in flight + waiting).
    pub tasks_spawned: u64,
    /// Tasks currently ready to run but not yet picked up.
    pub tasks_ready: usize,
    /// Tasks not yet finished (spawned - executed - panicked).
    pub tasks_pending: u64,
    /// Workers currently running (not blocked).
    pub running_workers: usize,
    /// Workers currently blocked by thread control.
    pub blocked_workers: usize,
    /// Non-worker threads: always 0, the runtime keeps no registry of them.
    pub external_threads: usize,
    /// Per-node occupancy.
    pub per_node: Vec<NodeOccupancy>,
    /// Application-defined counters (e.g. iterations produced/consumed).
    pub user_counters: HashMap<String, u64>,
    /// Microseconds since the runtime started, measured when the snapshot
    /// was taken. Lets consumers turn two snapshots' counter deltas into
    /// rates (the model-drift observatory's measured throughput) without a
    /// clock of their own.
    pub uptime_us: u64,
    /// Tasks parked into the over-budget queue after exhausting their
    /// fuel budget (each later resumes at low priority with a refill).
    pub tasks_preempted: u64,
    /// Watchdog deadline breaches: tasks that held a worker past the
    /// configured wall-clock deadline and were contained.
    pub tasks_runaway: u64,
    /// CPU time (µs) runaway tasks spent *past* their deadline — the
    /// over-budget cost the tenant ledger books against the offender.
    pub overbudget_cpu_us: u64,
}

impl RuntimeStats {
    /// Convenience: value of a user counter, or 0 if absent.
    pub fn user_counter(&self, name: &str) -> u64 {
        self.user_counters.get(name).copied().unwrap_or(0)
    }

    /// Cumulative tasks executed per NUMA node, as a dense vector indexed
    /// by node id (nodes the runtime has no workers on read 0). This is
    /// the shape the telemetry tenant ledger books.
    pub fn per_node_tasks(&self) -> Vec<u64> {
        let len = self
            .per_node
            .iter()
            .map(|o| o.node.0 + 1)
            .max()
            .unwrap_or(0);
        let mut out = vec![0u64; len];
        for occ in &self.per_node {
            out[occ.node.0] = occ.tasks_executed;
        }
        out
    }

    /// Workers currently running per NUMA node, as a dense vector indexed
    /// by node id. Paired with [`per_node_tasks`](Self::per_node_tasks)
    /// when feeding accounting samples.
    pub fn running_per_node(&self) -> Vec<u64> {
        let len = self
            .per_node
            .iter()
            .map(|o| o.node.0 + 1)
            .max()
            .unwrap_or(0);
        let mut out = vec![0u64; len];
        for occ in &self.per_node {
            out[occ.node.0] = occ.running_workers as u64;
        }
        out
    }
}

/// Internal counter block shared by workers.
pub(crate) struct StatsCollector {
    pub tasks_executed: AtomicU64,
    pub tasks_panicked: AtomicU64,
    pub tasks_spawned: AtomicU64,
    pub tasks_preempted: AtomicU64,
    pub tasks_runaway: AtomicU64,
    pub overbudget_cpu_us: AtomicU64,
    pub per_node_executed: Vec<AtomicU64>,
    pub user: Mutex<HashMap<String, u64>>,
    /// When the runtime was constructed; `RuntimeStats::uptime_us` is
    /// measured from here.
    pub epoch: Instant,
}

impl StatsCollector {
    pub(crate) fn new(num_nodes: usize) -> Self {
        StatsCollector {
            tasks_executed: AtomicU64::new(0),
            tasks_panicked: AtomicU64::new(0),
            tasks_spawned: AtomicU64::new(0),
            tasks_preempted: AtomicU64::new(0),
            tasks_runaway: AtomicU64::new(0),
            overbudget_cpu_us: AtomicU64::new(0),
            per_node_executed: (0..num_nodes).map(|_| AtomicU64::new(0)).collect(),
            user: Mutex::new(HashMap::new()),
            epoch: Instant::now(),
        }
    }

    /// Microseconds elapsed since construction.
    pub(crate) fn uptime_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    // Finish counters are recorded with Release and read with Acquire so
    // that a reader who observes a task's finish also observes its spawn
    // (the spawn increment is sequenced before the queue handoff, which
    // synchronizes with the executing worker). Snapshot code relies on
    // this: reading executed/panicked *before* spawned guarantees
    // `spawned >= executed + panicked`.

    pub(crate) fn record_executed(&self, node: NodeId) {
        self.tasks_executed.fetch_add(1, Ordering::Release);
        self.per_node_executed[node.0].fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes `n` completions a worker counted locally (the batched
    /// flush of the work-stealing scheduler: on idle, on gate block, on
    /// exit, or every `STATS_FLUSH_EVERY` tasks). Same ordering contract
    /// as [`record_executed`](Self::record_executed) — the flush happens
    /// strictly after the counted tasks executed.
    pub(crate) fn record_executed_batch(&self, node: NodeId, n: u64) {
        self.tasks_executed.fetch_add(n, Ordering::Release);
        self.per_node_executed[node.0].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_panicked(&self) {
        self.tasks_panicked.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn record_spawned(&self) {
        self.tasks_spawned.fetch_add(1, Ordering::Release);
    }

    /// One fuel-exhaustion preemption (task parked into the over-budget
    /// queue). Relaxed: preemption counts feed rate metrics only, no
    /// conservation law reads them against another counter.
    pub(crate) fn record_preempted(&self) {
        self.tasks_preempted.fetch_add(1, Ordering::Relaxed);
    }

    /// One watchdog deadline breach.
    pub(crate) fn record_runaway(&self) {
        self.tasks_runaway.fetch_add(1, Ordering::Relaxed);
    }

    /// Books `us` microseconds of past-deadline CPU time.
    pub(crate) fn add_overbudget_us(&self, us: u64) {
        self.overbudget_cpu_us.fetch_add(us, Ordering::Relaxed);
    }

    pub(crate) fn add_user(&self, name: &str, delta: u64) {
        *self.user.lock().entry(name.to_string()).or_insert(0) += delta;
    }

    pub(crate) fn finished(&self) -> u64 {
        self.tasks_executed.load(Ordering::Acquire) + self.tasks_panicked.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_counts() {
        let c = StatsCollector::new(2);
        c.record_spawned();
        c.record_spawned();
        c.record_executed(NodeId(1));
        c.record_panicked();
        assert_eq!(c.tasks_spawned.load(Ordering::Relaxed), 2);
        assert_eq!(c.tasks_executed.load(Ordering::Relaxed), 1);
        assert_eq!(c.per_node_executed[1].load(Ordering::Relaxed), 1);
        assert_eq!(c.per_node_executed[0].load(Ordering::Relaxed), 0);
        assert_eq!(c.finished(), 2);
    }

    #[test]
    fn user_counters_accumulate() {
        let c = StatsCollector::new(1);
        c.add_user("produced", 3);
        c.add_user("produced", 2);
        c.add_user("consumed", 1);
        let m = c.user.lock();
        assert_eq!(m["produced"], 5);
        assert_eq!(m["consumed"], 1);
    }

    #[test]
    fn stats_user_counter_accessor() {
        let s = RuntimeStats {
            name: "x".into(),
            tasks_executed: 0,
            tasks_panicked: 0,
            tasks_spawned: 0,
            tasks_ready: 0,
            tasks_pending: 0,
            running_workers: 0,
            blocked_workers: 0,
            external_threads: 0,
            per_node: vec![],
            user_counters: HashMap::from([("a".to_string(), 7u64)]),
            uptime_us: 0,
            tasks_preempted: 0,
            tasks_runaway: 0,
            overbudget_cpu_us: 0,
        };
        assert_eq!(s.user_counter("a"), 7);
        assert_eq!(s.user_counter("missing"), 0);
    }

    #[test]
    fn dense_per_node_vectors() {
        let s = RuntimeStats {
            name: "x".into(),
            tasks_executed: 9,
            tasks_panicked: 0,
            tasks_spawned: 9,
            tasks_ready: 0,
            tasks_pending: 0,
            running_workers: 3,
            blocked_workers: 0,
            external_threads: 0,
            per_node: vec![
                NodeOccupancy {
                    node: NodeId(2),
                    running_workers: 1,
                    tasks_executed: 4,
                },
                NodeOccupancy {
                    node: NodeId(0),
                    running_workers: 2,
                    tasks_executed: 5,
                },
            ],
            user_counters: HashMap::new(),
            uptime_us: 0,
            tasks_preempted: 0,
            tasks_runaway: 0,
            overbudget_cpu_us: 0,
        };
        // Dense, node-id indexed, gaps zero-filled.
        assert_eq!(s.per_node_tasks(), vec![5, 0, 4]);
        assert_eq!(s.running_per_node(), vec![2, 0, 1]);
        let empty = RuntimeStats {
            per_node: vec![],
            ..s.clone()
        };
        assert!(empty.per_node_tasks().is_empty());
        assert!(empty.running_per_node().is_empty());
    }
}
