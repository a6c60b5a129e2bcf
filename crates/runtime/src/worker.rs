//! The worker-thread loop.
//!
//! Each worker: (1) passes the thread-control gate (possibly blocking
//! there — the paper's cooperative suspension at task boundaries),
//! (2) looks for a ready task following the work-stealing order of
//! [`crate::sched`] (own deque → same-node siblings → node injector →
//! global injector → remote nodes), and (3) executes it with panics
//! contained. A worker that finds nothing flushes its batched stats and
//! enters the event-counted parking protocol: it registers as idle,
//! re-checks every queue, and only then parks — `enqueue_ready` unparks
//! it the moment work arrives (no polling; see
//! [`crate::sched::ParkRegistry`] for the no-lost-wakeup argument).

use crate::park::Parker;
use crate::runtime::{Shared, TaskContext};
use crate::sched::{self, LocalQueues, PARK_BACKSTOP, STATS_FLUSH_EVERY};
use crate::task::{Task, TaskBody, TaskStep};
use numa_topology::NodeId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Per-worker batch of completed-task and local-pop counts. Flushed when
/// the worker goes idle, blocks at the control gate, contains a panic,
/// exits, or crosses [`STATS_FLUSH_EVERY`] — these are the worker's
/// *publish points*, and between them the per-task path touches no shared
/// cache line for accounting.
pub(crate) struct LocalStats {
    node: NodeId,
    executed: u64,
    /// The worker's deques, whose `local_pops` cell is the other half of
    /// the batch (the pop paths in [`crate::sched`] count into it).
    local: Rc<LocalQueues>,
}

impl LocalStats {
    /// Publishes the batch. The telemetry counters go first and the
    /// Release add on the finish counter last, so a quiescence waiter
    /// that sees these tasks finished also sees them counted.
    fn flush(&mut self, shared: &Shared) {
        let pops = self.local.local_pops.take();
        if pops == 0 && self.executed == 0 {
            return;
        }
        if let Some(tel) = &shared.telemetry {
            tel.local_pops_total.add(pops);
            tel.tasks_completed_total.add(self.executed);
        }
        if self.executed > 0 {
            shared.stats.record_executed_batch(self.node, self.executed);
            self.executed = 0;
            shared.notify_quiesce();
        }
    }
}

/// The worker loop (per-worker deques + parking).
pub(crate) fn worker_loop(
    shared: Arc<Shared>,
    id: usize,
    node: NodeId,
    local: LocalQueues,
    parker: Parker,
) {
    let local = Rc::new(local);
    // Install the deques in TLS so task bodies running on this thread
    // spawn straight onto them (dropped on exit).
    let _tls = sched::install_local(Rc::clone(&local));
    let registry = Arc::clone(&shared.sched.parking);
    let mut stats = LocalStats {
        node,
        executed: 0,
        local: Rc::clone(&local),
    };
    let mut woke_from_park = false;
    // Set when the last park ran the full backstop timeout without any
    // publish (sequence number unchanged): if the next search then finds
    // a task while the sequence is *still* unchanged, that task was
    // reachable before we parked and the backstop masked a lost wakeup.
    let mut backstop_seq: Option<u64> = None;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // The thread-control gate: blocks in here while suspended. Stats
        // must be flushed before blocking, or quiescence waiters would
        // stall on counts held by a suspended worker.
        shared.control.checkpoint_with(id, || stats.flush(&shared));
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let task = match sched::find_task(&shared, node, Some(&local)) {
            Some(task) => Some(task),
            None => {
                // An unpark that found no work is a spurious wakeup
                // (someone else won the race for the task, or the
                // backstop timeout fired).
                if woke_from_park {
                    woke_from_park = false;
                    if let Some(tel) = &shared.telemetry {
                        tel.spurious_wakeups_total.inc();
                    }
                }
                stats.flush(&shared);
                // Event-counted parking (see ParkRegistry's protocol):
                // snapshot the sequence, announce idle, re-check every
                // queue, and only park if nothing was published since.
                let s0 = registry.seq();
                registry.register(id);
                let recheck = sched::find_task(&shared, node, Some(&local));
                if recheck.is_some()
                    || shared.shutdown.load(Ordering::Acquire)
                    || registry.seq() != s0
                {
                    registry.deregister(id);
                } else {
                    let parked_at = Instant::now();
                    match &shared.telemetry {
                        Some(tel) => {
                            tel.parks_total.inc();
                            parker.park_timeout(PARK_BACKSTOP);
                            tel.park_latency_us
                                .observe(parked_at.elapsed().as_micros() as u64);
                        }
                        None => parker.park_timeout(PARK_BACKSTOP),
                    }
                    registry.deregister(id);
                    woke_from_park = true;
                    backstop_seq = (parked_at.elapsed() >= PARK_BACKSTOP && registry.seq() == s0)
                        .then_some(s0);
                }
                recheck
            }
        };
        if let Some(task) = task {
            if let Some(s0) = backstop_seq.take() {
                // Every legitimate publish path (enqueue notify, control
                // unpark, shutdown, watchdog migration) bumps the
                // sequence — finding work at an unchanged sequence after
                // a full-backstop park means the wakeup for it was lost.
                if registry.seq() == s0 {
                    if let Some(tel) = &shared.telemetry {
                        tel.backstop_wakeups_total.inc();
                    }
                    debug_assert!(false, "parking backstop masked a lost wakeup");
                    if sched::strict_parking() {
                        panic!(
                            "parking backstop masked a lost wakeup \
                             (worker {id}: task found at unchanged park seq {s0})"
                        );
                    }
                }
            }
            woke_from_park = false;
            execute(&shared, task, node, Some(id), Some(&mut stats));
            if stats.executed >= STATS_FLUSH_EVERY {
                stats.flush(&shared);
            }
        }
    }
    stats.flush(&shared);
}

/// What a task body left behind after one `execute` slice.
enum BodyOutcome {
    /// The body ran to completion (or returned [`TaskStep::Done`]).
    Done,
    /// A step body yielded with an empty fuel tank; the function resumes
    /// from the over-budget queue with a refilled budget.
    Preempted(Box<dyn FnMut(&TaskContext<'_>) -> TaskStep + Send + 'static>),
}

/// Runs one slice of `task`. A helping external thread (`help_until`) has
/// no `worker` and no `batch`: every task it finishes is counted, and
/// waiters woken, at once.
pub(crate) fn execute(
    shared: &Shared,
    task: Task,
    node: NodeId,
    worker: Option<usize>,
    batch: Option<&mut LocalStats>,
) {
    let ctx = TaskContext {
        shared,
        worker_node: node,
        task_id: task.id,
        trace_id: task.trace_id,
        fueled: task.fuel_budget.is_some(),
        fuel: std::cell::Cell::new(task.fuel),
    };
    // Reading the clock twice per task is measurable on tiny tasks; only
    // pay for it when some consumer will see the timing.
    let timed = shared.telemetry.is_some();
    let started_at = timed.then(Instant::now);
    // Causal-trace hops: gated on a plain bool inside the existing
    // telemetry Option, so tracing-off runs branch once and do nothing.
    let hops = shared.telemetry.as_ref().filter(|t| t.tracing);
    if let Some(tel) = hops {
        tel.trace_started(worker, task.id.0, task.trace_id, node.0 as u64);
    }
    // Publish this task to the watchdog monitor: start time first
    // (Relaxed), then the task id (Release) — the monitor's Acquire load
    // of `current` makes the start time visible (see `WatchdogState`).
    let watch = worker.and_then(|w| shared.watchdog.as_ref().map(|wd| (w, wd)));
    if let Some((w, wd)) = watch {
        wd.started_us[w].store(shared.stats.uptime_us(), Ordering::Relaxed);
        wd.current[w].store(task.id.0 + 1, Ordering::Release);
    }
    let body = task.body;
    let result = catch_unwind(AssertUnwindSafe(move || match body {
        TaskBody::Once(f) => {
            f(&ctx);
            BodyOutcome::Done
        }
        TaskBody::Step(mut f) => loop {
            match f(&ctx) {
                TaskStep::Done => break BodyOutcome::Done,
                TaskStep::Yield => {
                    ctx.consume_fuel(1);
                    if ctx.fueled && ctx.fuel.get() == 0 {
                        break BodyOutcome::Preempted(f);
                    }
                }
            }
        },
    }));
    if let Some((w, wd)) = watch {
        wd.current[w].store(0, Ordering::Release);
        // If the monitor flagged this slice runaway, the task has now
        // returned: re-admit the worker and book the past-deadline CPU
        // time so the ledger can charge it to the offending tenant.
        if wd.runaway[w].swap(false, Ordering::AcqRel) {
            wd.excluded[w].store(false, Ordering::Release);
            let started = wd.started_us[w].load(Ordering::Relaxed);
            let over = shared
                .stats
                .uptime_us()
                .saturating_sub(started)
                .saturating_sub(wd.deadline_us);
            shared.stats.add_overbudget_us(over);
            if let Some(tel) = &shared.telemetry {
                tel.record_runaway_returned(w, task.id.0, over);
            }
        }
    }
    // A preempted slice is neither finished nor panicked: requeue the
    // body with a fresh tank and skip every completion-side effect (the
    // finish event is satisfied exactly once, at real completion; the
    // pending census keeps counting the task, preserving conservation).
    let result = match result {
        Ok(BodyOutcome::Preempted(f)) => {
            shared.stats.record_preempted();
            if let Some(tel) = &shared.telemetry {
                tel.record_preempted(worker, task.id.0, task.name.as_str());
            }
            shared.enqueue_overbudget(Task {
                body: TaskBody::Step(f),
                enqueued_at: None,
                fuel: task.fuel_budget.unwrap_or(0),
                ..task
            });
            return;
        }
        other => other,
    };
    if let Some(tel) = hops {
        tel.trace_finished(
            worker,
            task.id.0,
            task.trace_id,
            node.0 as u64,
            result.is_err(),
        );
    }
    if let Some(tel) = &shared.telemetry {
        tel.record_task(
            task.name.as_str(),
            worker,
            node,
            task.enqueued_at,
            started_at.expect("timed while telemetry is attached"),
            result.is_err(),
        );
    }
    match result {
        Ok(_) => match batch {
            Some(batch) => batch.executed += 1,
            None => {
                if let Some(tel) = &shared.telemetry {
                    tel.tasks_completed_total.inc();
                }
                shared.stats.record_executed(node);
                shared.notify_quiesce();
            }
        },
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            shared
                .panics
                .lock()
                .push((task.name.as_str().to_string(), message));
            // A panic is counted at once, so it is a publish point: the
            // batch goes out first, or a waiter could see the last task
            // finished while this worker still holds counts for it.
            if let Some(batch) = batch {
                batch.flush(shared);
            }
            shared.stats.record_panicked();
            shared.notify_quiesce();
        }
    }
    if let Some(finish) = &task.finish {
        // A finish event is satisfied exactly once, by us.
        let _ = shared.satisfy_event(finish);
    }
}

#[cfg(test)]
mod tests {
    use crate::{Runtime, RuntimeConfig, RuntimeError, TaskStep, ThreadCommand};
    use numa_topology::presets::{paper_model_machine, tiny};
    use numa_topology::{BindingKind, CpuSet, NodeId};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn rt(name: &str) -> Runtime {
        Runtime::start(RuntimeConfig::new(name, tiny())).unwrap()
    }

    #[test]
    fn runs_a_single_task() {
        let r = rt("single");
        let hit = Arc::new(AtomicUsize::new(0));
        let h = hit.clone();
        r.task("t")
            .body(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            })
            .spawn()
            .unwrap();
        r.wait_quiescent().unwrap();
        assert_eq!(hit.load(Ordering::SeqCst), 1);
        assert_eq!(r.stats().tasks_executed, 1);
        r.shutdown();
    }

    #[test]
    fn dependencies_order_execution() {
        let r = rt("deps");
        let order = Arc::new(coop_telemetry::sync::Mutex::new(Vec::<u32>::new()));
        let ev = r.new_once_event();

        // Spawn the dependent first so ordering cannot be incidental.
        let o2 = order.clone();
        r.task("second")
            .depends_on(&ev)
            .body(move |_| o2.lock().push(2))
            .spawn()
            .unwrap();
        let o1 = order.clone();
        let ev2 = ev.clone();
        r.task("first")
            .body(move |ctx| {
                o1.lock().push(1);
                ctx.satisfy(&ev2);
            })
            .spawn()
            .unwrap();

        r.wait_quiescent().unwrap();
        assert_eq!(*order.lock(), vec![1, 2]);
        r.shutdown();
    }

    #[test]
    fn latch_event_joins_fanin() {
        let r = rt("latch");
        let n = 8;
        let latch = r.new_latch_event(n);
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        r.task("join")
            .depends_on(&latch)
            .body(move |_| {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .spawn()
            .unwrap();
        for i in 0..n {
            let latch = latch.clone();
            r.task(&format!("leg{i}"))
                .body(move |ctx| ctx.satisfy(&latch))
                .spawn()
                .unwrap();
        }
        r.wait_quiescent().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(r.stats().tasks_executed, n + 1);
        r.shutdown();
    }

    #[test]
    fn tasks_spawn_subtasks() {
        let r = rt("fanout");
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        r.task("root")
            .body(move |ctx| {
                for i in 0..10 {
                    let c = c.clone();
                    ctx.task(&format!("child{i}"))
                        .body(move |_| {
                            c.fetch_add(1, Ordering::SeqCst);
                        })
                        .spawn()
                        .unwrap();
                }
            })
            .spawn()
            .unwrap();
        r.wait_quiescent().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 10);
        assert_eq!(r.stats().tasks_executed, 11);
        r.shutdown();
    }

    #[test]
    fn finish_event_chains_tasks() {
        let r = rt("finish");
        let flag = Arc::new(AtomicUsize::new(0));
        let (_, finish) = r.task("producer").body(|_| {}).spawn_with_finish().unwrap();
        let f = flag.clone();
        r.task("consumer")
            .depends_on(&finish)
            .body(move |_| {
                f.store(7, Ordering::SeqCst);
            })
            .spawn()
            .unwrap();
        r.wait_quiescent().unwrap();
        assert_eq!(flag.load(Ordering::SeqCst), 7);
        r.shutdown();
    }

    #[test]
    fn panics_are_contained_and_reported() {
        let r = rt("panics");
        r.task("bad").body(|_| panic!("boom")).spawn().unwrap();
        r.task("good").body(|_| {}).spawn().unwrap();
        let err = r.wait_quiescent();
        match err {
            Err(RuntimeError::TaskPanicked { task, message }) => {
                assert_eq!(task, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        let stats = r.stats();
        assert_eq!(stats.tasks_panicked, 1);
        assert_eq!(stats.tasks_executed, 1);
        // The runtime keeps working after a contained panic.
        r.task("after").body(|_| {}).spawn().unwrap();
        // wait_quiescent still reports the old panic; use stats to verify.
        let _ = r.wait_quiescent_timeout(Duration::from_secs(5));
        assert_eq!(r.stats().tasks_executed, 2);
        r.shutdown();
    }

    #[test]
    fn panicking_task_still_satisfies_finish_event() {
        let r = rt("panic-finish");
        let hit = Arc::new(AtomicUsize::new(0));
        let (_, finish) = r
            .task("bad")
            .body(|_| panic!("contained"))
            .spawn_with_finish()
            .unwrap();
        let h = hit.clone();
        r.task("downstream")
            .depends_on(&finish)
            .body(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            })
            .spawn()
            .unwrap();
        let _ = r.wait_quiescent_timeout(Duration::from_secs(5));
        assert_eq!(hit.load(Ordering::SeqCst), 1, "downstream not stranded");
        r.shutdown();
    }

    #[test]
    fn affinity_hint_runs_on_requested_node() {
        let r = Runtime::start(RuntimeConfig::new("aff", paper_model_machine())).unwrap();
        // Freeze every node except node 2, so stealing cannot occur and
        // the placement of hinted tasks is observable deterministically.
        r.control()
            .apply(ThreadCommand::PerNode(vec![0, 0, 8, 0]))
            .unwrap();
        assert!(r
            .control()
            .wait_converged(Duration::from_secs(5), |_, per| { per == [0, 0, 8, 0] }));
        let wrong = Arc::new(AtomicUsize::new(0));
        for i in 0..50 {
            let wrong = wrong.clone();
            r.task(&format!("t{i}"))
                .affinity(NodeId(2))
                .body(move |ctx| {
                    if ctx.node() != NodeId(2) {
                        wrong.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .spawn()
                .unwrap();
        }
        r.wait_quiescent().unwrap();
        assert_eq!(wrong.load(Ordering::SeqCst), 0);
        // Node 2 executed everything.
        assert_eq!(r.stats().per_node[2].tasks_executed, 50);
        r.shutdown();
    }

    #[test]
    fn total_threads_converges_and_work_completes() {
        let r = rt("opt1");
        r.control().apply(ThreadCommand::TotalThreads(1)).unwrap();
        assert!(r
            .control()
            .wait_converged(Duration::from_secs(5), |run, _| run <= 1));
        let count = Arc::new(AtomicU64::new(0));
        for i in 0..20 {
            let c = count.clone();
            r.task(&format!("t{i}"))
                .body(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                })
                .spawn()
                .unwrap();
        }
        r.wait_quiescent().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 20);
        assert!(r.stats().running_workers <= 1);
        r.shutdown();
    }

    #[test]
    fn per_node_control_shapes_occupancy() {
        let r = rt("opt3"); // tiny: 2 nodes x 2 cores
        r.control()
            .apply(ThreadCommand::PerNode(vec![1, 2]))
            .unwrap();
        assert!(r
            .control()
            .wait_converged(Duration::from_secs(5), |_, per| per[0] <= 1 && per[1] <= 2));
        let stats = r.stats();
        assert!(stats.per_node[0].running_workers <= 1);
        r.shutdown();
    }

    #[test]
    fn block_cores_then_release() {
        let r = rt("opt2");
        let ctl = r.control();
        ctl.apply(ThreadCommand::BlockCores(CpuSet::from_range(0, 2)))
            .unwrap();
        assert!(ctl.wait_converged(Duration::from_secs(5), |run, _| run == 2));
        // Work still completes on the unblocked node-1 workers.
        let count = Arc::new(AtomicU64::new(0));
        for i in 0..10 {
            let c = count.clone();
            r.task(&format!("t{i}"))
                .body(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                })
                .spawn()
                .unwrap();
        }
        r.wait_quiescent().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 10);
        ctl.apply(ThreadCommand::Unrestricted).unwrap();
        assert!(ctl.wait_converged(Duration::from_secs(5), |run, _| run == 4));
        r.shutdown();
    }

    #[test]
    fn block_cores_requires_core_binding() {
        let r = Runtime::start(RuntimeConfig {
            binding: BindingKind::Node,
            ..RuntimeConfig::new("nodebound", tiny())
        })
        .unwrap();
        let err = r.control().apply(ThreadCommand::BlockCores(CpuSet::single(
            numa_topology::CoreId(0),
        )));
        assert!(matches!(err, Err(RuntimeError::InvalidControl { .. })));
        // Options 1 and 3 still work.
        r.control().apply(ThreadCommand::TotalThreads(2)).unwrap();
        r.control()
            .apply(ThreadCommand::PerNode(vec![1, 1]))
            .unwrap();
        r.shutdown();
    }

    #[test]
    fn quiescence_timeout_on_unsatisfied_event() {
        let r = rt("timeout");
        let never = r.new_once_event();
        r.task("stuck")
            .depends_on(&never)
            .body(|_| {})
            .spawn()
            .unwrap();
        let err = r.wait_quiescent_timeout(Duration::from_millis(100));
        assert!(matches!(
            err,
            Err(RuntimeError::QuiescenceTimeout { pending: 1 })
        ));
        // Satisfying the event releases the task.
        r.satisfy(&never).unwrap();
        r.wait_quiescent().unwrap();
        r.shutdown();
    }

    #[test]
    fn spawn_after_shutdown_fails() {
        let r = rt("post-shutdown");
        r.shutdown();
        let err = r.task("late").body(|_| {}).spawn();
        assert!(matches!(err, Err(RuntimeError::ShutDown)));
    }

    #[test]
    fn user_counters_flow_to_stats() {
        let r = rt("counters");
        r.task("produce")
            .body(|ctx| ctx.inc_counter("produced", 3))
            .spawn()
            .unwrap();
        r.wait_quiescent().unwrap();
        r.inc_counter("produced", 1);
        assert_eq!(r.stats().user_counter("produced"), 4);
        r.shutdown();
    }

    #[test]
    fn double_satisfy_errors() {
        let r = rt("double");
        let ev = r.new_once_event();
        r.satisfy(&ev).unwrap();
        assert!(matches!(
            r.satisfy(&ev),
            Err(RuntimeError::EventAlreadySatisfied { .. })
        ));
        r.shutdown();
    }

    #[test]
    fn stats_snapshot_consistency() {
        let r = rt("stats");
        for i in 0..5 {
            r.task(&format!("t{i}")).body(|_| {}).spawn().unwrap();
        }
        r.wait_quiescent().unwrap();
        let s = r.stats();
        assert_eq!(s.tasks_spawned, 5);
        assert_eq!(s.tasks_executed, 5);
        assert_eq!(s.tasks_pending, 0);
        assert_eq!(s.name, "stats");
        let per_node_total: u64 = s.per_node.iter().map(|n| n.tasks_executed).sum();
        assert_eq!(per_node_total, 5);
        r.shutdown();
    }

    #[test]
    fn heavy_fanout_diamond_graph() {
        // root -> 64 middles -> join, repeated; exercises queues + latches.
        let r = Runtime::start(RuntimeConfig::new("diamond", paper_model_machine())).unwrap();
        let total = Arc::new(AtomicU64::new(0));
        for _round in 0..4 {
            let latch = r.new_latch_event(64);
            let t = total.clone();
            r.task("join")
                .depends_on(&latch)
                .body(move |_| {
                    t.fetch_add(1, Ordering::SeqCst);
                })
                .spawn()
                .unwrap();
            for i in 0..64 {
                let latch = latch.clone();
                let t = total.clone();
                r.task(&format!("mid{i}"))
                    .body(move |ctx| {
                        t.fetch_add(1, Ordering::SeqCst);
                        ctx.satisfy(&latch);
                    })
                    .spawn()
                    .unwrap();
            }
        }
        r.wait_quiescent().unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 4 * 65);
        r.shutdown();
    }

    /// A step body with a runtime-wide fuel budget is preempted at yield
    /// safe points (and still completes, with the finish side effects
    /// happening exactly once).
    #[test]
    fn step_body_preempts_on_fuel_exhaustion() {
        let r = Runtime::start(RuntimeConfig::new("fuel", tiny()).with_task_fuel(4)).unwrap();
        let slices = Arc::new(AtomicUsize::new(0));
        let s = slices.clone();
        let mut left = 10usize;
        let (_, finish) = r
            .task("steppy")
            .body_step(move |_| {
                if left == 0 {
                    return TaskStep::Done;
                }
                left -= 1;
                s.fetch_add(1, Ordering::SeqCst);
                TaskStep::Yield
            })
            .spawn_with_finish()
            .unwrap();
        r.wait_quiescent().unwrap();
        let stats = r.stats();
        assert_eq!(slices.load(Ordering::SeqCst), 10);
        assert_eq!(stats.tasks_executed, 1);
        // 10 yields at 4 fuel each slice: preempted after yields 4 and 8.
        assert_eq!(stats.tasks_preempted, 2);
        assert_eq!(stats.tasks_pending, 0);
        assert!(finish.is_satisfied());
        r.shutdown();
    }

    /// The per-task override takes precedence over the runtime default,
    /// and unbudgeted runtimes never preempt step bodies.
    #[test]
    fn per_task_fuel_override_and_unbudgeted_default() {
        let r = Runtime::start(RuntimeConfig::new("fuel-over", tiny()).with_task_fuel(2)).unwrap();
        let mut left = 8usize;
        r.task("roomy")
            .fuel(100)
            .body_step(move |_| {
                if left == 0 {
                    return TaskStep::Done;
                }
                left -= 1;
                TaskStep::Yield
            })
            .spawn()
            .unwrap();
        r.wait_quiescent().unwrap();
        assert_eq!(r.stats().tasks_preempted, 0);
        r.shutdown();

        let r = Runtime::start(RuntimeConfig::new("no-fuel", tiny())).unwrap();
        let mut left = 50usize;
        r.task("free")
            .body_step(move |ctx| {
                assert!(!ctx.fueled);
                if left == 0 {
                    return TaskStep::Done;
                }
                left -= 1;
                TaskStep::Yield
            })
            .spawn()
            .unwrap();
        r.wait_quiescent().unwrap();
        let stats = r.stats();
        assert_eq!(stats.tasks_preempted, 0);
        assert_eq!(stats.tasks_executed, 1);
        r.shutdown();
    }

    /// The watchdog detects a task that wedges its worker, contains it
    /// (other tasks keep flowing), and re-admits the worker when the
    /// task finally returns, booking the past-deadline CPU time.
    #[test]
    fn watchdog_contains_runaway_and_readmits() {
        let r = Runtime::start(
            RuntimeConfig::new("wd", tiny()).with_watchdog(Duration::from_millis(25)),
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let s = stop.clone();
        r.task("spin")
            .body(move |_| {
                while !s.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            })
            .spawn()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while r.stats().tasks_runaway == 0 {
            assert!(Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The runtime still executes work while one worker is wedged.
        let count = Arc::new(AtomicU64::new(0));
        for i in 0..8 {
            let c = count.clone();
            r.task(&format!("live{i}"))
                .body(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                })
                .spawn()
                .unwrap();
        }
        while count.load(Ordering::SeqCst) < 8 {
            assert!(Instant::now() < deadline, "survivor tasks starved");
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        r.wait_quiescent().unwrap();
        let stats = r.stats();
        assert_eq!(stats.tasks_runaway, 1);
        assert!(
            stats.overbudget_cpu_us > 0,
            "past-deadline CPU time booked on return"
        );
        assert_eq!(stats.tasks_executed, 9);
        r.shutdown();
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let r = rt("drop");
        r.task("t").body(|_| {}).spawn().unwrap();
        r.wait_quiescent().unwrap();
        drop(r); // must not hang or panic
    }

    fn spawn_noops(r: &Runtime, k: u64) {
        for _ in 0..k {
            r.task("noop").body(|_| {}).spawn().unwrap();
        }
    }

    /// Batch sizes on every side of [`STATS_FLUSH_EVERY`](crate::sched).
    const ROUND_SIZES: [u64; 5] = [1, 63, 64, 65, 200];

    /// A waiter is woken by the publish that completes the count — a
    /// worker's flush, a helper's direct count, a contained panic — and
    /// never left to the 20 ms poll cap: 200 spawn-then-wait rounds (plus
    /// a helper round and a panic round) finish in a fraction of the time
    /// a single capped wait per round would take.
    #[test]
    fn quiescence_is_seen_without_the_poll_cap() {
        const ROUNDS: u32 = 200;
        let r = rt("quiesce");
        let started = Instant::now();
        let mut spawned = 0;
        for round in 0..ROUNDS as usize {
            let k = ROUND_SIZES[round % ROUND_SIZES.len()];
            spawn_noops(&r, k);
            r.wait_quiescent().unwrap();
            spawned += k;
            assert_eq!(r.stats().tasks_executed, spawned);
        }

        // Every worker blocked: the helping caller executes the round and
        // is the one to publish it.
        r.control().apply(ThreadCommand::TotalThreads(0)).unwrap();
        assert!(r
            .control()
            .wait_converged(Duration::from_secs(5), |run, _| run == 0));
        let done = r.new_latch_event(10);
        for _ in 0..10 {
            let done = done.clone();
            r.task("helped")
                .body(move |ctx| ctx.satisfy(&done))
                .spawn()
                .unwrap();
        }
        r.help_until(&done, NodeId(0));
        r.wait_quiescent().unwrap();
        assert_eq!(r.stats().tasks_executed, spawned + 10);
        r.control().apply(ThreadCommand::Unrestricted).unwrap();

        // A panic is the last completion of its round.
        spawn_noops(&r, 65);
        r.task("bad").body(|_| panic!("boom")).spawn().unwrap();
        assert!(matches!(
            r.wait_quiescent(),
            Err(RuntimeError::TaskPanicked { .. })
        ));
        assert_eq!(r.stats().tasks_pending, 0);

        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(20) * ROUNDS / 4,
            "{ROUNDS} rounds took {elapsed:?}: waiters are being left to the poll cap"
        );
        r.shutdown();
    }

    /// `coop_tasks_completed_total` and `coop_sched_local_pops_total`
    /// ride the workers' stats batches; wherever the batches are out —
    /// at quiescence, and with every worker blocked mid-graph — they read
    /// what counting per task would.
    #[test]
    fn batched_series_equal_stats_at_quiescence() {
        let hub = Arc::new(crate::TelemetryHub::new());
        let r = Runtime::start(RuntimeConfig::new("batched", tiny()).with_telemetry(hub.clone()))
            .unwrap();
        let check = |when: &str| {
            let executed = r.stats().tasks_executed;
            let reg = hub.registry();
            assert_eq!(
                reg.counter_total("coop_tasks_completed_total"),
                executed,
                "{when}: completed"
            );
            assert_eq!(
                reg.counter_total("coop_sched_local_pops_total")
                    + reg.counter_total("coop_steals_total"),
                executed,
                "{when}: pops + steals"
            );
            executed
        };
        let mut spawned = 0;
        for k in ROUND_SIZES {
            spawn_noops(&r, k);
            r.wait_quiescent().unwrap();
            spawned += k;
            assert_eq!(check(&format!("after a round of {k}")), spawned);
        }

        // A squeeze to zero threads issued from inside the graph: the
        // 300 tasks behind the squeezing task are released only once the
        // command is in force, so the workers block with work pending.
        spawn_noops(&r, 100);
        let ctl = r.control();
        let (_, squeezed) = r
            .task("squeezer")
            .body(move |_| ctl.apply(ThreadCommand::TotalThreads(0)).unwrap())
            .spawn_with_finish()
            .unwrap();
        for _ in 0..300 {
            r.task("behind")
                .depends_on(&squeezed)
                .body(|_| {})
                .spawn()
                .unwrap();
        }
        assert!(r
            .control()
            .wait_converged(Duration::from_secs(5), |run, _| run == 0));
        assert!(squeezed.is_satisfied());
        assert!(r.stats().tasks_pending > 0, "squeezed mid-graph");
        check("every worker blocked mid-graph");
        r.control().apply(ThreadCommand::Unrestricted).unwrap();
        r.wait_quiescent().unwrap();
        assert_eq!(check("after the release"), spawned + 401);
        r.shutdown();
    }

    /// Tasks spawned from a task body whose affinity matches the spawning
    /// worker's node take the local-deque fast path and stay on that node
    /// (deterministic here because every other node is frozen, so nobody
    /// can steal them).
    #[test]
    fn local_spawn_fast_path_stays_on_node() {
        let r = Runtime::start(RuntimeConfig::new("local-aff", paper_model_machine())).unwrap();
        r.control()
            .apply(ThreadCommand::PerNode(vec![0, 0, 8, 0]))
            .unwrap();
        assert!(r
            .control()
            .wait_converged(Duration::from_secs(5), |_, per| per == [0, 0, 8, 0]));
        let wrong = Arc::new(AtomicUsize::new(0));
        let w = wrong.clone();
        r.task("parent")
            .affinity(NodeId(2))
            .body(move |ctx| {
                for i in 0..20 {
                    let w = w.clone();
                    ctx.task(&format!("child{i}"))
                        .affinity(NodeId(2))
                        .body(move |ctx| {
                            if ctx.node() != NodeId(2) {
                                w.fetch_add(1, Ordering::SeqCst);
                            }
                        })
                        .spawn()
                        .unwrap();
                }
            })
            .spawn()
            .unwrap();
        r.wait_quiescent().unwrap();
        assert_eq!(wrong.load(Ordering::SeqCst), 0);
        assert_eq!(r.stats().per_node[2].tasks_executed, 21);
        r.shutdown();
    }
}
