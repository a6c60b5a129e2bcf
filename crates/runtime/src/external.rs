//! Non-worker threads (§IV of the paper).
//!
//! "We might get threads that are doing work, but are not controlled by
//! the task-based runtime system" — I/O threads, a TBB-style main thread,
//! or threads of a non-task-based component. The paper's §IV asks for two
//! things: the coordination layer must *know about* such threads (they
//! occupy cores and touch memory), and, where possible, they should be
//! drafted into useful work the runtime controls (TBB's main thread runs
//! tasks while it waits for a parallel algorithm).
//!
//! This module provides both:
//!
//! * [`Runtime::register_external`] — announce a non-worker thread, with a
//!   role and an affinity suggestion; registered threads appear in
//!   [`RuntimeStats`](crate::RuntimeStats) so an agent can account for
//!   them when partitioning cores.
//! * [`Runtime::help_until`] — the calling thread executes ready tasks
//!   until an event satisfies (the "main thread might also be used by TBB
//!   to run tasks" behaviour). The helper respects no thread-control gate:
//!   it is the application's own thread, which is precisely why §IV calls
//!   such threads hard to control — but the work it performs is ordinary
//!   runtime work, with panics contained as usual.

use crate::event::Event;
use crate::runtime::{Runtime, Shared};
use crate::{sched, worker};
use coop_telemetry::sync::Mutex;
use numa_topology::{Binding, NodeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a registered non-worker thread does, per §IV's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExternalRole {
    /// Mostly blocked in I/O calls — "not a big issue from the load
    /// balancing point of view", but relevant to NUMA data placement.
    Io,
    /// Performs computation outside the runtime's control — the §IV case
    /// that can break static-scheduling assumptions.
    Compute,
    /// A main/driver thread that submits work and occasionally helps.
    Main,
}

/// Registry entry for one external thread.
#[derive(Debug, Clone)]
pub struct ExternalThreadInfo {
    /// Name supplied at registration.
    pub name: String,
    /// Role.
    pub role: ExternalRole,
    /// Affinity suggestion the coordination layer should honour for it.
    pub binding: Binding,
}

pub(crate) struct ExternalRegistry {
    next_id: AtomicU64,
    threads: Mutex<HashMap<u64, ExternalThreadInfo>>,
}

impl ExternalRegistry {
    pub fn new() -> Self {
        ExternalRegistry {
            next_id: AtomicU64::new(0),
            threads: Mutex::new(HashMap::new()),
        }
    }

    fn register(&self, info: ExternalThreadInfo) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.threads.lock().insert(id, info);
        id
    }

    fn deregister(&self, id: u64) {
        self.threads.lock().remove(&id);
    }

    pub fn snapshot(&self) -> Vec<ExternalThreadInfo> {
        self.threads.lock().values().cloned().collect()
    }
}

/// RAII registration of a non-worker thread; deregisters on drop.
pub struct ExternalThread {
    shared: Arc<Shared>,
    id: u64,
}

impl ExternalThread {
    /// The registered info.
    pub fn info(&self) -> ExternalThreadInfo {
        self.shared
            .external
            .threads
            .lock()
            .get(&self.id)
            .cloned()
            .expect("registered until drop")
    }

    /// Updates the affinity suggestion (e.g. after the agent re-partitions
    /// and wants this I/O thread near its data).
    pub fn rebind(&self, binding: Binding) {
        if let Some(info) = self.shared.external.threads.lock().get_mut(&self.id) {
            info.binding = binding;
        }
    }
}

impl Drop for ExternalThread {
    fn drop(&mut self) {
        self.shared.external.deregister(self.id);
    }
}

impl Runtime {
    /// Registers the calling (or any) non-worker thread with the runtime
    /// so the coordination layer can account for it (§IV). Returns an RAII
    /// guard; the registration lasts until the guard drops.
    pub fn register_external(
        &self,
        name: &str,
        role: ExternalRole,
        binding: Binding,
    ) -> ExternalThread {
        let id = self.shared.external.register(ExternalThreadInfo {
            name: name.to_string(),
            role,
            binding,
        });
        ExternalThread {
            shared: Arc::clone(&self.shared),
            id,
        }
    }

    /// Snapshot of currently registered external threads.
    pub fn external_threads(&self) -> Vec<ExternalThreadInfo> {
        self.shared.external.snapshot()
    }

    /// Runs ready tasks **on the calling thread** until `event` is
    /// satisfied (then returns immediately) — the TBB main-thread pattern
    /// of §IV. The caller executes work exactly like a worker (panics
    /// contained, stats recorded), but is not subject to thread control.
    ///
    /// The helper prefers the queues of `home` (pass the node whose data
    /// the caller just touched for the §II cache-reuse effect). Under the
    /// work-stealing scheduler the helper follows the same steal order as
    /// a worker of `home` — including stealing from worker deques — but
    /// owns no deque of its own and takes no part in the parking
    /// protocol: it naps briefly instead of parking, because its exit
    /// condition (the event satisfying) is not an enqueue and so would
    /// never generate an unpark.
    pub fn help_until(&self, event: &Event, home: NodeId) {
        let shared = &self.shared;
        while !event.is_satisfied() {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Helpers own no deque: single-task steals, no batching.
            match sched::find_task(shared, home, None) {
                Some(task) => worker::execute(shared, task, home, None, None, None),
                None => {
                    // Nothing ready: nap briefly and re-check the event.
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RuntimeConfig, ThreadCommand};
    use numa_topology::presets::tiny;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn register_and_deregister() {
        let rt = Runtime::start(RuntimeConfig::new("ext", tiny())).unwrap();
        assert!(rt.external_threads().is_empty());
        let guard = rt.register_external("io-0", ExternalRole::Io, Binding::Node(NodeId(1)));
        assert_eq!(rt.external_threads().len(), 1);
        assert_eq!(guard.info().name, "io-0");
        assert_eq!(guard.info().role, ExternalRole::Io);
        guard.rebind(Binding::Unbound);
        assert_eq!(guard.info().binding, Binding::Unbound);
        drop(guard);
        assert!(rt.external_threads().is_empty());
        rt.shutdown();
    }

    #[test]
    fn multiple_registrations_coexist() {
        let rt = Runtime::start(RuntimeConfig::new("ext2", tiny())).unwrap();
        let _a = rt.register_external("main", ExternalRole::Main, Binding::Unbound);
        let _b = rt.register_external("io", ExternalRole::Io, Binding::Node(NodeId(0)));
        let _c = rt.register_external("legacy", ExternalRole::Compute, Binding::Unbound);
        let roles: Vec<ExternalRole> = rt.external_threads().iter().map(|t| t.role).collect();
        assert_eq!(roles.len(), 3);
        assert!(roles.contains(&ExternalRole::Io));
        rt.shutdown();
    }

    #[test]
    fn help_until_executes_tasks_on_caller() {
        let rt = Runtime::start(RuntimeConfig::new("helper", tiny())).unwrap();
        // Freeze all workers: only the helping caller can make progress.
        rt.control().apply(ThreadCommand::TotalThreads(0)).unwrap();
        assert!(rt
            .control()
            .wait_converged(Duration::from_secs(5), |run, _| run == 0));

        let done = rt.new_latch_event(10);
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..10 {
            let done = done.clone();
            let count = count.clone();
            rt.task(&format!("t{i}"))
                .body(move |ctx| {
                    count.fetch_add(1, Ordering::SeqCst);
                    ctx.satisfy(&done);
                })
                .spawn()
                .unwrap();
        }
        // The main thread drives all 10 tasks itself.
        rt.help_until(&done, NodeId(0));
        assert!(done.is_satisfied());
        assert_eq!(count.load(Ordering::SeqCst), 10);
        assert_eq!(rt.stats().tasks_executed, 10);
        rt.shutdown();
    }

    #[test]
    fn help_until_returns_immediately_when_satisfied() {
        let rt = Runtime::start(RuntimeConfig::new("noop", tiny())).unwrap();
        let ev = rt.new_once_event();
        rt.satisfy(&ev).unwrap();
        rt.help_until(&ev, NodeId(0)); // must not hang
        rt.shutdown();
    }

    #[test]
    fn help_until_contains_task_panics() {
        let rt = Runtime::start(RuntimeConfig::new("panic-help", tiny())).unwrap();
        rt.control().apply(ThreadCommand::TotalThreads(0)).unwrap();
        assert!(rt
            .control()
            .wait_converged(Duration::from_secs(5), |run, _| run == 0));
        let (_, finish) = rt
            .task("bad")
            .body(|_| panic!("contained in helper"))
            .spawn_with_finish()
            .unwrap();
        rt.help_until(&finish, NodeId(0));
        assert_eq!(rt.stats().tasks_panicked, 1);
        rt.shutdown();
    }
}
