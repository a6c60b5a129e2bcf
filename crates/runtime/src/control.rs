//! Dynamic worker-thread control — the paper's three blocking options.
//!
//! §II of the paper describes three ways a runtime can be told which worker
//! threads to suspend:
//!
//! 1. **Total number of threads** ([`ThreadCommand::TotalThreads`]): keep at
//!    most `n` workers running, machine-wide. Workers are not chosen
//!    explicitly; whichever worker reaches a task boundary (or is idle)
//!    while the running count exceeds the target blocks itself — so a
//!    thread in a long task naturally keeps running, exactly the
//!    inactivity-based selection the paper describes. Raising the target
//!    releases blocked workers almost immediately (whichever wake first).
//! 2. **Individual cores** ([`ThreadCommand::BlockCores`]): block the
//!    workers bound to the given cores. Requires per-core worker binding.
//! 3. **Threads per NUMA node** ([`ThreadCommand::PerNode`]): keep at most
//!    `targets[i]` workers running on node `i`.
//!
//! Blocking is cooperative and non-preemptive: a worker checks its gate
//! after finishing each task and whenever it is idle, matching OCR-Vx's
//! lack of task preemption.

use crate::{Result, RuntimeError};
use coop_telemetry::sync::{Condvar, Mutex};
use numa_topology::{CoreId, CpuSet, NodeId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A thread-control command, as issued by an agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadCommand {
    /// Option 1: keep at most this many workers running, machine-wide.
    TotalThreads(usize),
    /// Option 2: block exactly the workers bound to these cores (all other
    /// workers run). Requires per-core binding.
    BlockCores(CpuSet),
    /// Option 3: keep at most `targets[node]` workers running on each node.
    PerNode(Vec<usize>),
    /// Remove all restrictions (all workers may run).
    Unrestricted,
}

/// The active control mode (a validated [`ThreadCommand`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMode {
    /// See [`ThreadCommand::TotalThreads`].
    TotalThreads(usize),
    /// See [`ThreadCommand::BlockCores`].
    BlockCores(CpuSet),
    /// See [`ThreadCommand::PerNode`].
    PerNode(Vec<usize>),
    /// See [`ThreadCommand::Unrestricted`].
    Unrestricted,
}

pub(crate) struct ControlState {
    /// Current mode.
    pub mode: ControlMode,
    /// Number of workers currently running (not blocked), machine-wide.
    pub running_total: usize,
    /// Number of workers currently running per node.
    pub running_per_node: Vec<usize>,
    /// Which workers are currently blocked (index = worker id).
    pub blocked: Vec<bool>,
    /// When each blocked worker blocked, and under which blocking option
    /// (feeds the per-option block-latency histogram on unblock).
    pub blocked_since: Vec<Option<(Instant, &'static str)>>,
    /// Monotonic command counter, so tests can await convergence.
    pub commands_applied: u64,
    /// True once the runtime is shutting down (gates must release).
    pub shutdown: bool,
}

/// Shared control plane between the runtime, its workers, and agents.
///
/// Cloneable; all clones drive the same runtime.
#[derive(Clone)]
pub struct ControlHandle {
    inner: Arc<ControlShared>,
}

pub(crate) struct ControlShared {
    pub state: Mutex<ControlState>,
    /// Telemetry handles shared with the runtime, when a hub is attached.
    pub telemetry: Option<crate::telemetry::RuntimeTelemetry>,
    /// Signalled when the mode changes or shutdown begins.
    pub gate: Condvar,
    /// Per-worker home node (index = worker id).
    pub worker_node: Vec<NodeId>,
    /// Per-worker bound core, if per-core binding is in use.
    pub worker_core: Vec<Option<CoreId>>,
    pub num_nodes: usize,
    /// The scheduler's idle-worker registry. Mode changes and shutdown
    /// must unpark every worker: a parked worker is "running" in the
    /// census and has to reach its gate checkpoint for a new blocking
    /// mode to converge.
    pub parking: Arc<crate::sched::ParkRegistry>,
}

impl ControlHandle {
    pub(crate) fn new(
        worker_node: Vec<NodeId>,
        worker_core: Vec<Option<CoreId>>,
        num_nodes: usize,
        telemetry: Option<crate::telemetry::RuntimeTelemetry>,
        parking: Arc<crate::sched::ParkRegistry>,
    ) -> Self {
        let workers = worker_node.len();
        let mut running_per_node = vec![0usize; num_nodes];
        for n in &worker_node {
            running_per_node[n.0] += 1;
        }
        ControlHandle {
            inner: Arc::new(ControlShared {
                telemetry,
                state: Mutex::new(ControlState {
                    mode: ControlMode::Unrestricted,
                    running_total: workers,
                    running_per_node,
                    blocked: vec![false; workers],
                    blocked_since: vec![None; workers],
                    commands_applied: 0,
                    shutdown: false,
                }),
                gate: Condvar::new(),
                worker_node,
                worker_core,
                num_nodes,
                parking,
            }),
        }
    }

    /// Applies a thread-control command. Takes effect at each worker's next
    /// task boundary (blocking) or almost immediately (unblocking).
    pub fn apply(&self, cmd: ThreadCommand) -> Result<()> {
        if let Some(tel) = &self.inner.telemetry {
            tel.record_command(&format!("{cmd:?}"));
        }
        let mode = self.validate(cmd)?;
        let mut st = self.inner.state.lock();
        st.mode = mode;
        st.commands_applied += 1;
        drop(st);
        self.inner.gate.notify_all();
        // Parked idle workers are not waiting on the gate condvar; wake
        // them so a tightening mode converges at unpark speed rather
        // than at the parking backstop timeout.
        self.inner.parking.unpark_all();
        Ok(())
    }

    fn validate(&self, cmd: ThreadCommand) -> Result<ControlMode> {
        match cmd {
            ThreadCommand::TotalThreads(n) => Ok(ControlMode::TotalThreads(n)),
            ThreadCommand::Unrestricted => Ok(ControlMode::Unrestricted),
            ThreadCommand::PerNode(targets) => {
                if targets.len() != self.inner.num_nodes {
                    return Err(RuntimeError::InvalidControl {
                        reason: format!(
                            "PerNode targets must cover {} nodes, got {}",
                            self.inner.num_nodes,
                            targets.len()
                        ),
                    });
                }
                Ok(ControlMode::PerNode(targets))
            }
            ThreadCommand::BlockCores(set) => {
                if self.inner.worker_core.iter().any(|c| c.is_none()) {
                    return Err(RuntimeError::InvalidControl {
                        reason: "BlockCores requires per-core worker binding".into(),
                    });
                }
                for core in set.iter() {
                    if !self.inner.worker_core.contains(&Some(core)) {
                        return Err(RuntimeError::InvalidControl {
                            reason: format!("no worker is bound to {core}"),
                        });
                    }
                }
                Ok(ControlMode::BlockCores(set))
            }
        }
    }

    /// Blocks the calling thread until the number of running workers
    /// reaches `pred`'s satisfaction or the timeout elapses. Returns `true`
    /// if the predicate was met. Intended for tests and agents that need to
    /// await convergence after [`apply`](ControlHandle::apply).
    pub fn wait_converged(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(usize, &[usize]) -> bool,
    ) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            if pred(st.running_total, &st.running_per_node) {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            self.inner.gate.wait_for(&mut st, deadline - now);
        }
    }

    /// Worker-side: checks the gate for `worker`, blocking inside if the
    /// current mode says this worker should not run. Returns when the
    /// worker may run again (or shutdown began).
    #[cfg(test)]
    pub(crate) fn checkpoint(&self, worker: usize) {
        self.checkpoint_with(worker, || {});
    }

    /// Like [`checkpoint`](Self::checkpoint), but runs `on_block` once,
    /// just before the worker first blocks (if it blocks at all). The
    /// work-stealing worker flushes its batched stats there: a suspended
    /// worker must not sit on unpublished completion counts, or
    /// quiescence waiters would stall until it resumes.
    pub(crate) fn checkpoint_with(&self, worker: usize, on_block: impl FnOnce()) {
        let mut on_block = Some(on_block);
        let node = self.inner.worker_node[worker];
        let core = self.inner.worker_core[worker];
        let mut st = self.inner.state.lock();
        loop {
            if st.shutdown {
                // Release: never hold a worker hostage during shutdown.
                if st.blocked[worker] {
                    st.blocked[worker] = false;
                    st.blocked_since[worker] = None;
                    st.running_total += 1;
                    st.running_per_node[node.0] += 1;
                }
                return;
            }
            let should_block = if st.blocked[worker] {
                // Already blocked: may we resume?
                match &st.mode {
                    ControlMode::Unrestricted => false,
                    ControlMode::TotalThreads(n) => st.running_total >= *n,
                    ControlMode::BlockCores(set) => core.map(|c| set.contains(c)).unwrap_or(false),
                    ControlMode::PerNode(t) => st.running_per_node[node.0] >= t[node.0],
                }
            } else {
                // Running: must we block?
                match &st.mode {
                    ControlMode::Unrestricted => false,
                    ControlMode::TotalThreads(n) => st.running_total > *n,
                    ControlMode::BlockCores(set) => core.map(|c| set.contains(c)).unwrap_or(false),
                    ControlMode::PerNode(t) => st.running_per_node[node.0] > t[node.0],
                }
            };

            match (st.blocked[worker], should_block) {
                (false, false) => return, // keep running
                (false, true) => {
                    st.blocked[worker] = true;
                    st.blocked_since[worker] = Some((Instant::now(), mode_label(&st.mode)));
                    st.running_total -= 1;
                    st.running_per_node[node.0] -= 1;
                    if let Some(f) = on_block.take() {
                        f();
                    }
                    // Tell waiters (wait_converged) the census changed.
                    self.inner.gate.notify_all();
                    self.inner.gate.wait(&mut st);
                }
                (true, true) => {
                    if let Some(f) = on_block.take() {
                        f();
                    }
                    self.inner.gate.wait(&mut st);
                }
                (true, false) => {
                    st.blocked[worker] = false;
                    let since = st.blocked_since[worker].take();
                    st.running_total += 1;
                    st.running_per_node[node.0] += 1;
                    self.inner.gate.notify_all();
                    if let (Some(tel), Some((blocked_at, option))) = (&self.inner.telemetry, since)
                    {
                        tel.record_block_span(worker, option, blocked_at);
                    }
                    return;
                }
            }
        }
    }

    pub(crate) fn begin_shutdown(&self) {
        let mut st = self.inner.state.lock();
        st.shutdown = true;
        drop(st);
        self.inner.gate.notify_all();
        self.inner.parking.unpark_all();
    }

    pub(crate) fn snapshot(&self) -> (usize, Vec<usize>, usize) {
        let st = self.inner.state.lock();
        let blocked = st.blocked.iter().filter(|&&b| b).count();
        (st.running_total, st.running_per_node.clone(), blocked)
    }
}

/// Stable label for the blocking option a worker blocked under (used as
/// the `option` label of `coop_block_latency_us`).
fn mode_label(mode: &ControlMode) -> &'static str {
    match mode {
        ControlMode::TotalThreads(_) => "total_threads",
        ControlMode::BlockCores(_) => "block_cores",
        ControlMode::PerNode(_) => "per_node",
        ControlMode::Unrestricted => "unrestricted",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ControlHandle {
        fn mode(&self) -> ControlMode {
            self.inner.state.lock().mode.clone()
        }

        fn running(&self) -> usize {
            self.inner.state.lock().running_total
        }

        fn running_per_node(&self) -> Vec<usize> {
            self.inner.state.lock().running_per_node.clone()
        }
    }

    /// A handle over workers nobody runs: no telemetry, and a park
    /// registry whose parkers are dropped at once.
    fn handle(worker_node: Vec<NodeId>, worker_core: Vec<Option<CoreId>>) -> ControlHandle {
        let (registry, _parkers) = crate::sched::ParkRegistry::new(worker_node.clone());
        ControlHandle::new(worker_node, worker_core, 2, None, Arc::new(registry))
    }

    fn handle_2x2() -> ControlHandle {
        // 4 workers: two per node, per-core bound.
        handle(
            vec![NodeId(0), NodeId(0), NodeId(1), NodeId(1)],
            vec![
                Some(CoreId(0)),
                Some(CoreId(1)),
                Some(CoreId(2)),
                Some(CoreId(3)),
            ],
        )
    }

    #[test]
    fn starts_unrestricted_all_running() {
        let h = handle_2x2();
        assert_eq!(h.mode(), ControlMode::Unrestricted);
        assert_eq!(h.running(), 4);
        assert_eq!(h.running_per_node(), vec![2, 2]);
    }

    #[test]
    fn per_node_validation() {
        let h = handle_2x2();
        assert!(h.apply(ThreadCommand::PerNode(vec![1])).is_err());
        assert!(h.apply(ThreadCommand::PerNode(vec![1, 2])).is_ok());
        assert_eq!(h.mode(), ControlMode::PerNode(vec![1, 2]));
    }

    #[test]
    fn block_cores_validation() {
        let h = handle_2x2();
        // Core 9 has no worker.
        assert!(h
            .apply(ThreadCommand::BlockCores(CpuSet::single(CoreId(9))))
            .is_err());
        assert!(h
            .apply(ThreadCommand::BlockCores(CpuSet::single(CoreId(2))))
            .is_ok());

        // Node-bound workers reject BlockCores.
        let nb = handle(vec![NodeId(0), NodeId(1)], vec![None, None]);
        assert!(nb
            .apply(ThreadCommand::BlockCores(CpuSet::single(CoreId(0))))
            .is_err());
    }

    #[test]
    fn checkpoint_blocks_and_releases_total_threads() {
        let h = handle_2x2();
        h.apply(ThreadCommand::TotalThreads(2)).unwrap();

        // Two workers hit the gate concurrently and block; the other two
        // keep running.
        let h2 = h.clone();
        let blockers: Vec<_> = (0..2)
            .map(|w| {
                let h = h2.clone();
                std::thread::spawn(move || h.checkpoint(w))
            })
            .collect();
        assert!(h.wait_converged(Duration::from_secs(2), |run, _| run == 2));

        // Raising the target releases them almost immediately.
        h.apply(ThreadCommand::TotalThreads(4)).unwrap();
        for b in blockers {
            b.join().unwrap();
        }
        assert_eq!(h.running(), 4);
    }

    #[test]
    fn checkpoint_respects_per_node_targets() {
        let h = handle_2x2();
        h.apply(ThreadCommand::PerNode(vec![1, 2])).unwrap();

        // Worker 0 (node 0) checkpoints: node 0 over target (2 > 1), blocks.
        let h2 = h.clone();
        let t = std::thread::spawn(move || h2.checkpoint(0));
        assert!(h.wait_converged(Duration::from_secs(2), |_, per| per == [1, 2]));

        // Workers on node 1 are unaffected.
        h.checkpoint(2);
        h.checkpoint(3);
        assert_eq!(h.running_per_node(), vec![1, 2]);

        // Releasing node 0 lets worker 0 resume.
        h.apply(ThreadCommand::PerNode(vec![2, 2])).unwrap();
        t.join().unwrap();
        assert_eq!(h.running(), 4);
    }

    #[test]
    fn block_cores_blocks_exact_worker() {
        let h = handle_2x2();
        h.apply(ThreadCommand::BlockCores(CpuSet::single(CoreId(1))))
            .unwrap();
        // Worker 0 is not affected.
        h.checkpoint(0);
        assert_eq!(h.running(), 4);
        // Worker 1 blocks until the set changes.
        let h2 = h.clone();
        let t = std::thread::spawn(move || h2.checkpoint(1));
        assert!(h.wait_converged(Duration::from_secs(2), |run, _| run == 3));
        h.apply(ThreadCommand::Unrestricted).unwrap();
        t.join().unwrap();
        assert_eq!(h.running(), 4);
    }

    #[test]
    fn shutdown_releases_blocked_workers() {
        let h = handle_2x2();
        h.apply(ThreadCommand::TotalThreads(0)).unwrap();
        let h2 = h.clone();
        let t = std::thread::spawn(move || h2.checkpoint(0));
        assert!(h.wait_converged(Duration::from_secs(2), |run, _| run == 3));
        h.begin_shutdown();
        t.join().unwrap();
        // The blocked worker was released and re-counted.
        assert_eq!(h.running(), 4);
    }

    #[test]
    fn total_threads_zero_blocks_everyone() {
        let h = handle_2x2();
        h.apply(ThreadCommand::TotalThreads(0)).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|w| {
                let h = h.clone();
                std::thread::spawn(move || h.checkpoint(w))
            })
            .collect();
        assert!(h.wait_converged(Duration::from_secs(2), |run, _| run == 0));
        let (_, _, blocked) = h.snapshot();
        assert_eq!(blocked, 4);
        h.apply(ThreadCommand::Unrestricted).unwrap();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.running(), 4);
    }

    #[test]
    fn commands_applied_counts() {
        let h = handle_2x2();
        h.apply(ThreadCommand::TotalThreads(3)).unwrap();
        h.apply(ThreadCommand::Unrestricted).unwrap();
        assert_eq!(h.inner.state.lock().commands_applied, 2);
    }
}
