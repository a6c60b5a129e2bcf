//! Non-worker threads (§IV of the paper).
//!
//! "We might get threads that are doing work, but are not controlled by
//! the task-based runtime system" — I/O threads, a TBB-style main thread,
//! or threads of a non-task-based component. Where possible, the paper's
//! §IV asks for such threads to be drafted into useful work the runtime
//! controls (TBB's main thread runs tasks while it waits for a parallel
//! algorithm): [`Runtime::help_until`] has the calling thread execute
//! ready tasks until an event satisfies. The helper respects no
//! thread-control gate: it is the application's own thread, which is
//! precisely why §IV calls such threads hard to control — but the work it
//! performs is ordinary runtime work, with panics contained as usual.

use crate::event::Event;
use crate::runtime::Runtime;
use crate::{sched, worker};
use numa_topology::NodeId;
use std::sync::atomic::Ordering;
use std::time::Duration;

impl Runtime {
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
                Some(task) => worker::execute(shared, task, home, None, None),
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
    use std::sync::Arc;

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
