//! The runtime: task graph management, scheduling queues, worker pool.

use crate::control::ControlHandle;
use crate::datablock::{DataBlock, DbId};
use crate::deque::Injector;
use crate::event::{Event, EventId, EventKind, PendingTask, Waiter};
use crate::sched::{self, LocalQueues, ParkRegistry, SchedState, StealGrid};
use crate::stats::{NodeOccupancy, RuntimeStats, StatsCollector};
use crate::task::{Task, TaskBuilder, TaskId, TaskPriority};
use crate::worker;
use crate::{Result, RuntimeError};
use coop_telemetry::sync::{Condvar, Mutex};
use numa_topology::{BindingKind, Machine, NodeId};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Application name (shows up in stats and agent messages).
    pub name: String,
    /// The (virtual) machine this runtime believes it runs on. One worker
    /// thread is created per core, following the paper: "each application
    /// starts with as many threads as there are CPU cores".
    pub machine: Machine,
    /// Binding granularity for workers. [`BindingKind::Core`] (default)
    /// supports all three thread-control options; [`BindingKind::Node`]
    /// supports options 1 and 3; [`BindingKind::Unbound`] only option 1
    /// (workers still carry a logical home node for queue preference).
    pub binding: BindingKind,
    /// Shared telemetry hub to publish metrics and timeline events to.
    /// `None` (default) keeps the hot path free of telemetry work.
    pub telemetry: Option<Arc<coop_telemetry::TelemetryHub>>,
    /// Causal task tracing: record `spawned`/`deps_released`/`enqueued`/
    /// `stolen`/`started`/`finished` hop events for every task into the
    /// telemetry hub (assembled by `coop_telemetry::TraceAssembler`).
    /// Requires a hub ([`with_telemetry`](RuntimeConfig::with_telemetry));
    /// off by default so the hot path records nothing extra.
    pub tracing: bool,
    /// Default per-task fuel budget (work units between forced yields);
    /// `None` (default) disables fuel accounting entirely. Individual
    /// tasks override via [`TaskBuilder::fuel`](crate::TaskBuilder::fuel).
    pub task_fuel: Option<u64>,
    /// Wall-clock runaway deadline: a worker stuck in a single task body
    /// longer than this is marked runaway and contained. `None`
    /// (default) disables the watchdog.
    pub watchdog: Option<Duration>,
}

impl RuntimeConfig {
    /// Creates a config with per-core binding.
    pub fn new(name: &str, machine: Machine) -> Self {
        RuntimeConfig {
            name: name.to_string(),
            machine,
            binding: BindingKind::Core,
            telemetry: None,
            tracing: false,
            task_fuel: None,
            watchdog: None,
        }
    }

    /// Attaches a shared telemetry hub: the runtime registers a timeline
    /// track (one lane per worker) and publishes task/steal/blocking
    /// metrics into the hub's registry.
    pub fn with_telemetry(mut self, hub: Arc<coop_telemetry::TelemetryHub>) -> Self {
        self.telemetry = Some(hub);
        self
    }

    /// Enables causal task tracing (no-op without
    /// [`with_telemetry`](RuntimeConfig::with_telemetry)).
    pub fn with_task_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Gives every task a default fuel budget of `units` work units.
    /// Fuel is decremented at cooperative checkpoints (yields, spawns,
    /// event satisfaction, data-block creation); a *step* body (see
    /// [`TaskBuilder::body_step`](crate::TaskBuilder::body_step)) that
    /// yields with an empty tank is parked into the over-budget queue and
    /// rescheduled at low priority with a full refill.
    pub fn with_task_fuel(mut self, units: u64) -> Self {
        self.task_fuel = Some(units);
        self
    }

    /// Arms the wall-clock watchdog: a monitor thread marks any task
    /// that holds a worker longer than `deadline` as *runaway*, dumps
    /// the flight recorder, migrates the wedged worker's queued tasks to
    /// siblings, and excludes that worker from the scheduler until the
    /// task returns.
    pub fn with_watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = Some(deadline);
        self
    }
}

/// Per-worker watchdog slots ([`RuntimeConfig::with_watchdog`] only).
///
/// Protocol: before running a task body the worker stores the start time
/// into `started_us` (Relaxed) and then the task id + 1 into `current`
/// (Release); after the body it clears `current` back to zero. The
/// monitor reads `current` (Acquire) — a non-zero value makes the
/// earlier `started_us` store visible — computes the elapsed time, and
/// then *re-reads* `current`: only if the same task is still running is
/// the deadline breach real (the worker may have moved on to idle or to
/// another task between the two loads). `runaway.swap(true)` claims the
/// breach exactly once; the worker clears it (and `excluded`) when the
/// wedged task finally returns.
pub(crate) struct WatchdogState {
    /// The configured deadline.
    pub deadline: Duration,
    /// The deadline in microseconds (the monitor compares uptimes).
    pub deadline_us: u64,
    /// Task id + 1 the worker is currently executing; 0 = idle.
    pub current: Vec<AtomicU64>,
    /// Uptime (µs) at which the current task started.
    pub started_us: Vec<AtomicU64>,
    /// The current task breached the deadline and was marked runaway.
    pub runaway: Vec<AtomicBool>,
    /// Worker is excluded from the scheduler (spawns from its task body
    /// bypass its local deque) until the runaway task returns.
    pub excluded: Vec<AtomicBool>,
    /// Home node of each worker (migration target for its deques).
    pub nodes: Vec<NodeId>,
}

impl WatchdogState {
    fn new(deadline: Duration, nodes: Vec<NodeId>) -> Self {
        let workers = nodes.len();
        WatchdogState {
            deadline,
            deadline_us: deadline.as_micros().min(u64::MAX as u128) as u64,
            current: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            started_us: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            runaway: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            excluded: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            nodes,
        }
    }
}

/// All state shared between the [`Runtime`] facade, its workers, and
/// task contexts.
pub(crate) struct Shared {
    pub name: String,
    pub machine: Machine,
    pub control: ControlHandle,
    pub stats: StatsCollector,
    /// Queue for tasks without a placement hint (spawns from non-worker
    /// threads; workers spawn onto their own deques).
    pub global: Injector<Task>,
    /// One queue per NUMA node for tasks with an affinity hint.
    pub node_queues: Vec<Injector<Task>>,
    /// High-priority variants of the two queues above.
    pub high_global: Injector<Task>,
    pub high_node_queues: Vec<Injector<Task>>,
    /// Scheduler substrate: deque stealers, parking registry, ready
    /// census, high-priority gate (see [`crate::sched`]).
    pub sched: SchedState,
    /// Quiescence waiters sleep on this pair; see
    /// [`notify_quiesce`](Shared::notify_quiesce) for who wakes them.
    quiesce_mutex: Mutex<()>,
    quiesce_cv: Condvar,
    pub shutdown: AtomicBool,
    next_event: AtomicU64,
    next_task: AtomicU64,
    next_db: AtomicU64,
    /// Contained task panics (name, message).
    pub panics: Mutex<Vec<(String, String)>>,
    /// Telemetry handles, when a hub is attached (see
    /// [`RuntimeConfig::with_telemetry`]).
    pub telemetry: Option<crate::telemetry::RuntimeTelemetry>,
    /// Runtime-wide default fuel budget (see
    /// [`RuntimeConfig::with_task_fuel`]).
    pub task_fuel: Option<u64>,
    /// Watchdog slots, when armed (see [`RuntimeConfig::with_watchdog`]).
    pub watchdog: Option<WatchdogState>,
}

impl Shared {
    /// The (global, per-node) injector pair for a priority tier.
    pub(crate) fn injectors(&self, tier: TaskPriority) -> (&Injector<Task>, &[Injector<Task>]) {
        match tier {
            TaskPriority::High => (&self.high_global, &self.high_node_queues),
            TaskPriority::Normal => (&self.global, &self.node_queues),
        }
    }

    /// Pushes a ready task onto the right queue and wakes one worker.
    ///
    /// If the calling thread is one of this runtime's workers and the
    /// task has no conflicting affinity, the task goes onto the caller's
    /// own LIFO deque (no shared-queue traffic at all); otherwise it goes
    /// to the hinted node's injector or the global injector. Either way
    /// the parking registry publishes the enqueue (sequence number +
    /// targeted unpark) — see the no-lost-wakeup protocol on
    /// [`ParkRegistry`].
    pub(crate) fn enqueue_ready(&self, mut task: Task) {
        if self.telemetry.is_some() {
            task.enqueued_at = Some(Instant::now());
        }
        // The enqueued hop is recorded *before* the push so a worker on
        // another thread can never observe (and trace) the task with an
        // earlier timestamp than its enqueue.
        if let Some(tel) = self.telemetry.as_ref().filter(|t| t.tracing) {
            let dest = sched::local_target(self, task.affinity).or(task.affinity);
            tel.trace_enqueued(task.id.0, task.trace_id, dest.map(|n| n.0 as u64));
        }
        self.sched.ready.fetch_add(1, Ordering::Relaxed);
        if task.priority == TaskPriority::High {
            // Raise the gate before the task is visible, so no pop can
            // see the task while the gate reads zero.
            self.sched.high_pending.fetch_add(1, Ordering::Release);
        }
        let affinity = task.affinity;
        let hint = match sched::try_push_local(self, task) {
            Ok(node) => Some(node),
            Err(task) => {
                let (global, per_node) = self.injectors(task.priority);
                match task.affinity {
                    Some(node) if node.0 < per_node.len() => per_node[node.0].push(task),
                    _ => global.push(task),
                }
                affinity
            }
        };
        self.sched.parking.notify_one(hint);
    }

    /// Pushes a fuel-exhausted task onto the over-budget queue: scanned
    /// *last* by every pop path, so compliant tasks always go first —
    /// de-facto low priority without a third deque tier. Counted in the
    /// ready census like any other enqueue.
    pub(crate) fn enqueue_overbudget(&self, mut task: Task) {
        if self.telemetry.is_some() {
            task.enqueued_at = Some(Instant::now());
        }
        self.sched.ready.fetch_add(1, Ordering::Relaxed);
        // Raise the gate before the push so no pop path can observe the
        // task while the gate still reads zero.
        self.sched
            .overbudget_pending
            .fetch_add(1, Ordering::Release);
        self.sched.overbudget.push(task);
        self.sched.parking.notify_one(None);
    }

    /// Wakes quiescence waiters. Called at the publish points — wherever
    /// a finish counter [`pending_tasks`](Self::pending_tasks) reads has
    /// just changed (a worker's batched flush, a helper thread's direct
    /// count, a contained panic) — and never per task. The notify happens
    /// under `quiesce_mutex`, which a waiter holds from its check of the
    /// counters until it sleeps, so the wake cannot fall in between.
    pub(crate) fn notify_quiesce(&self) {
        let _held = self.quiesce_mutex.lock();
        self.quiesce_cv.notify_all();
    }

    /// Decrements `event`; on satisfaction, releases its waiting tasks.
    /// Only the runtime that created an event may satisfy it.
    pub(crate) fn satisfy_event(&self, event: &Event) -> Result<()> {
        let id = event.id().0;
        if event.state.runtime != self.sched.runtime_id {
            return Err(RuntimeError::UnknownEvent { event: id });
        }
        match event.decrement() {
            Err(()) => Err(RuntimeError::EventAlreadySatisfied { event: id }),
            Ok(false) => Ok(()), // latch still counting down
            Ok(true) => {
                // The event reads as satisfied from here on, and
                // `push_waiter` re-checks that under the list's lock — so
                // the list taken here is complete.
                let waiters = std::mem::take(&mut *event.state.waiters.lock());
                for waiter in waiters {
                    match waiter {
                        Waiter::Task(task) => self.release(task, Some(id)),
                        Waiter::Pending(pending) => self.release_dependency(&pending, Some(id)),
                    }
                }
                Ok(())
            }
        }
    }

    /// Enqueues a task whose dependencies are all satisfied. `event_id`
    /// is the event whose satisfaction released it, or `None` when the
    /// spawn itself found the last one satisfied.
    fn release(&self, task: Task, event_id: Option<u64>) {
        if let Some(tel) = self.telemetry.as_ref().filter(|t| t.tracing) {
            tel.trace_deps_released(task.id.0, task.trace_id, event_id);
        }
        self.enqueue_ready(task);
    }

    /// Drops one remaining-dependency count of a task waiting on several
    /// events; the decrement that reaches zero releases it. Called outside
    /// any event lock.
    fn release_dependency(&self, pending: &PendingTask, event_id: Option<u64>) {
        if pending.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let task = pending
                .task
                .lock()
                .take()
                .expect("exactly one releasing decrement takes the task");
            self.release(task, event_id);
        }
    }

    pub(crate) fn register_event(&self, kind: EventKind) -> Event {
        let id = EventId(self.next_event.fetch_add(1, Ordering::Relaxed));
        Event::new(id, kind, self.sched.runtime_id)
    }

    pub(crate) fn create_datablock(&self, size: usize, node: NodeId) -> DataBlock {
        let id = DbId(self.next_db.fetch_add(1, Ordering::Relaxed));
        DataBlock::new(id, size, node)
    }

    pub(crate) fn spawn_task(&self, builder: TaskBuilder<'_>) -> Result<(TaskId, Option<Event>)> {
        let TaskBuilder {
            name,
            body,
            deps,
            affinity,
            priority,
            want_finish_event,
            parent,
            fuel,
            ..
        } = builder;
        let body = body.ok_or(RuntimeError::MissingBody)?;
        if self.shutdown.load(Ordering::Acquire) {
            return Err(RuntimeError::ShutDown);
        }
        // Ids are per runtime, and a waiting task lives in its event: another
        // runtime's event would release it into that runtime's queues.
        if let Some(foreign) = deps
            .iter()
            .find(|d| d.state.runtime != self.sched.runtime_id)
        {
            return Err(RuntimeError::UnknownEvent {
                event: foreign.id().0,
            });
        }
        let id = TaskId(self.next_task.fetch_add(1, Ordering::Relaxed));
        let finish = want_finish_event.then(|| self.register_event(EventKind::Once));
        let fuel_budget = fuel.or(self.task_fuel);
        let task = Task {
            id,
            trace_id: parent.map(|(_, trace)| trace).unwrap_or(id.0),
            name,
            body,
            affinity,
            priority,
            finish: finish.clone(),
            enqueued_at: None,
            fuel_budget,
            fuel: fuel_budget.unwrap_or(0),
        };
        self.stats.record_spawned();
        if let Some(tel) = self.telemetry.as_ref().filter(|t| t.tracing) {
            tel.trace_spawned(
                id.0,
                task.trace_id,
                parent.map(|(p, _)| p.0),
                task.name.as_str(),
            );
        }

        // Fast path: no unsatisfied dependency means no lock at all — the
        // dominant case in fan-out-heavy graphs goes straight to the
        // (usually local) queue.
        let mut unsatisfied = deps.iter().filter(|d| !d.is_satisfied());
        let Some(first) = unsatisfied.next() else {
            self.enqueue_ready(task);
            return Ok((id, finish));
        };
        if unsatisfied.next().is_none() {
            // One unsatisfied dependency: the task waits in its list as is.
            if let Err(Waiter::Task(task)) = first.push_waiter(Waiter::Task(task)) {
                self.release(task, None);
            }
            return Ok((id, finish));
        }
        // Several: each list holds the shared task. `remaining` starts at 1 (a
        // spawn guard), so no dependency satisfied mid-loop can release the
        // task before all its waiters are in place; a refused waiter's count
        // is given back.
        let pending = Arc::new(PendingTask {
            task: Mutex::new(Some(task)),
            remaining: AtomicUsize::new(1),
        });
        for dep in deps.iter().filter(|d| !d.is_satisfied()) {
            pending.remaining.fetch_add(1, Ordering::AcqRel);
            if dep
                .push_waiter(Waiter::Pending(Arc::clone(&pending)))
                .is_err()
            {
                pending.remaining.fetch_sub(1, Ordering::AcqRel);
            }
        }
        // Drop the spawn guard; if every dependency already satisfied
        // in the meantime, this is the releasing decrement.
        self.release_dependency(&pending, None);
        Ok((id, finish))
    }

    pub(crate) fn pending_tasks(&self) -> u64 {
        // Read `finished` BEFORE `spawned`: a task is always spawned
        // before it finishes, so this order can only over-estimate
        // pending work, never report premature quiescence.
        let finished = self.stats.finished();
        self.stats
            .tasks_spawned
            .load(Ordering::Acquire)
            .saturating_sub(finished)
    }
}

/// Monitor loop for the wall-clock watchdog (see [`WatchdogState`] for
/// the memory-ordering protocol). Runs on its own thread, polling at a
/// quarter of the deadline so detection latency stays well under 2×.
fn watchdog_loop(shared: Arc<Shared>) {
    let wd = shared
        .watchdog
        .as_ref()
        .expect("watchdog thread only spawned when armed");
    let poll = (wd.deadline / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
    while !shared.shutdown.load(Ordering::Acquire) {
        std::thread::sleep(poll);
        for w in 0..wd.current.len() {
            let cur = wd.current[w].load(Ordering::Acquire);
            if cur == 0 || wd.runaway[w].load(Ordering::Relaxed) {
                continue;
            }
            let started = wd.started_us[w].load(Ordering::Relaxed);
            if shared.stats.uptime_us().saturating_sub(started) < wd.deadline_us {
                continue;
            }
            // Re-read: the worker may have finished this task (or moved
            // on to another) between the two loads; only the *same* task
            // still on the worker is a real deadline breach.
            if wd.current[w].load(Ordering::Acquire) != cur {
                continue;
            }
            if wd.runaway[w].swap(true, Ordering::AcqRel) {
                continue;
            }
            contain_runaway(&shared, wd, w, cur - 1);
        }
    }
}

/// Containment for a freshly-claimed runaway breach: exclude the wedged
/// worker from the scheduler, migrate its queued tasks to its node's
/// injectors (where siblings pick them up immediately), and raise the
/// alarm (metric + timeline instant + flight-recorder dump).
fn contain_runaway(shared: &Shared, wd: &WatchdogState, worker: usize, task_id: u64) {
    wd.excluded[worker].store(true, Ordering::Release);
    shared.stats.record_runaway();
    // Migrate both deque tiers. The tasks were already counted in the
    // ready census when enqueued (and the high-priority gate stays
    // raised), so no counter adjustment: the tasks merely become
    // reachable through the injectors instead of a deque nobody drains.
    let node = wd.nodes[worker];
    for tier in [TaskPriority::High, TaskPriority::Normal] {
        let stealer = shared.sched.grid.stealers[worker].tier(tier);
        let (_, per_node) = shared.injectors(tier);
        while let Some(task) = stealer.steal() {
            per_node[node.0].push(task);
        }
    }
    if let Some(tel) = &shared.telemetry {
        tel.record_runaway(worker, task_id);
    }
    // Bumps the registry sequence (keeping the lost-wakeup backstop
    // detection sound) and wakes everyone to drain the migration.
    shared.sched.parking.unpark_all();
}

/// A task-based runtime instance (one "application" in the paper's
/// architecture). See the crate docs for an overview and example.
pub struct Runtime {
    pub(crate) shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Runtime {
    /// Starts the runtime: creates one worker thread per core of the
    /// configured machine, bound per `config.binding`.
    pub fn start(config: RuntimeConfig) -> Result<Runtime> {
        let machine = config.machine;
        let num_nodes = machine.num_nodes();

        // One worker per core. A binding is bookkeeping only (see
        // DESIGN.md): a per-core worker records its core, nothing pins it.
        let mut worker_node = Vec::with_capacity(machine.total_cores());
        let mut worker_core = Vec::with_capacity(machine.total_cores());
        for node in machine.nodes() {
            for core in node.cores() {
                worker_node.push(node.id);
                worker_core.push((config.binding == BindingKind::Core).then_some(core));
            }
        }
        let workers = worker_node.len();

        // Work-stealing substrate: per-worker deques (moved into the
        // worker threads below, stealers registered here), the parking
        // registry, and one parker per worker.
        let runtime_id = sched::next_runtime_id();
        let locals: Vec<LocalQueues> = worker_node
            .iter()
            .enumerate()
            .map(|(w, &n)| LocalQueues::new(runtime_id, w, n))
            .collect();
        let grid = StealGrid::new(locals.iter().map(|l| l.stealers()).collect(), num_nodes);
        let (registry, parkers) = ParkRegistry::new(worker_node.clone());
        let parking = Arc::new(registry);

        let telemetry = config.telemetry.map(|hub| {
            crate::telemetry::RuntimeTelemetry::new(hub, &config.name, &worker_node, config.tracing)
        });
        let control = ControlHandle::new(
            worker_node.clone(),
            worker_core,
            num_nodes,
            telemetry.clone(),
            Arc::clone(&parking),
        );
        let shared = Arc::new(Shared {
            name: config.name,
            control,
            stats: StatsCollector::new(num_nodes),
            global: Injector::new(),
            node_queues: (0..num_nodes).map(|_| Injector::new()).collect(),
            high_global: Injector::new(),
            high_node_queues: (0..num_nodes).map(|_| Injector::new()).collect(),
            sched: SchedState {
                runtime_id,
                grid,
                parking,
                ready: AtomicUsize::new(0),
                high_pending: AtomicUsize::new(0),
                overbudget: Injector::new(),
                overbudget_pending: AtomicUsize::new(0),
            },
            quiesce_mutex: Mutex::new(()),
            quiesce_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_event: AtomicU64::new(0),
            next_task: AtomicU64::new(0),
            next_db: AtomicU64::new(0),
            panics: Mutex::new(Vec::new()),
            telemetry,
            machine,
            task_fuel: config.task_fuel,
            watchdog: config
                .watchdog
                .map(|deadline| WatchdogState::new(deadline, worker_node.clone())),
        });

        let mut handles = Vec::with_capacity(workers);
        for (id, (local, parker)) in locals.into_iter().zip(parkers).enumerate() {
            let shared = Arc::clone(&shared);
            let node = worker_node[id];
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{}-w{id}", shared.name))
                    .spawn(move || worker::worker_loop(shared, id, node, local, parker))
                    .expect("spawning worker thread"),
            );
        }

        if shared.watchdog.is_some() {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{}-watchdog", shared.name))
                    .spawn(move || watchdog_loop(shared))
                    .expect("spawning watchdog thread"),
            );
        }

        Ok(Runtime {
            shared,
            workers: Mutex::new(handles),
        })
    }

    /// The runtime's (application) name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The machine this runtime was configured with.
    pub fn machine(&self) -> &Machine {
        &self.shared.machine
    }

    /// The thread-control handle (shareable with an agent).
    pub fn control(&self) -> ControlHandle {
        self.shared.control.clone()
    }

    /// Creates a single-shot event.
    pub fn new_once_event(&self) -> Event {
        self.shared.register_event(EventKind::Once)
    }

    /// Creates a latch event satisfied after `count` decrements.
    pub fn new_latch_event(&self, count: u64) -> Event {
        self.shared.register_event(EventKind::Latch { count })
    }

    /// Satisfies (or decrements, for latches) an event. Errors if the event
    /// was already satisfied or another runtime created it.
    pub fn satisfy(&self, event: &Event) -> Result<()> {
        self.shared.satisfy_event(event)
    }

    /// Starts building a task.
    pub fn task(&self, name: &str) -> TaskBuilder<'_> {
        TaskBuilder::new(&self.shared, name, None)
    }

    /// Allocates a data block of `size` bytes placed on `node`.
    pub fn create_datablock(&self, size: usize, node: NodeId) -> DataBlock {
        self.shared.create_datablock(size, node)
    }

    /// Increments a user counter visible in [`RuntimeStats`].
    pub fn inc_counter(&self, name: &str, delta: u64) {
        self.shared.stats.add_user(name, delta);
    }

    /// Blocks until all spawned tasks have finished. Returns the first
    /// contained task panic as an error, if any occurred.
    pub fn wait_quiescent(&self) -> Result<()> {
        self.wait_quiescent_deadline(None)
    }

    /// Like [`wait_quiescent`](Runtime::wait_quiescent) but gives up after
    /// `timeout` (useful when tasks may wait on events nobody satisfies, or
    /// all workers are blocked by thread control).
    pub fn wait_quiescent_timeout(&self, timeout: Duration) -> Result<()> {
        self.wait_quiescent_deadline(Some(Instant::now() + timeout))
    }

    fn wait_quiescent_deadline(&self, deadline: Option<Instant>) -> Result<()> {
        let mut guard = self.shared.quiesce_mutex.lock();
        loop {
            let pending = self.shared.pending_tasks();
            if pending == 0 {
                drop(guard);
                return self.first_panic();
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(RuntimeError::QuiescenceTimeout {
                            pending: pending as usize,
                        });
                    }
                    // Every publish point notifies under the mutex held
                    // here, so the cap is a backstop, not the mechanism.
                    let dur = (d - now).min(Duration::from_millis(20));
                    self.shared.quiesce_cv.wait_for(&mut guard, dur);
                }
                None => {
                    self.shared
                        .quiesce_cv
                        .wait_for(&mut guard, Duration::from_millis(20));
                }
            }
        }
    }

    fn first_panic(&self) -> Result<()> {
        let panics = self.shared.panics.lock();
        match panics.first() {
            Some((task, message)) => Err(RuntimeError::TaskPanicked {
                task: task.clone(),
                message: message.clone(),
            }),
            None => Ok(()),
        }
    }

    /// A point-in-time statistics snapshot (what the agent polls).
    pub fn stats(&self) -> RuntimeStats {
        let (running, per_node_running, blocked) = self.shared.control.snapshot();
        // The ready census counts enqueues minus pops, covering worker
        // deques and injectors alike (the deques have no cheap lengths).
        let tasks_ready = self.shared.sched.ready.load(Ordering::Relaxed);
        let per_node = per_node_running
            .iter()
            .enumerate()
            .map(|(i, &running_workers)| NodeOccupancy {
                node: NodeId(i),
                running_workers,
                tasks_executed: self.shared.stats.per_node_executed[i].load(Ordering::Relaxed),
            })
            .collect();
        // Load finish counters BEFORE the spawn counter, and derive
        // `tasks_pending` from the loaded values: every task finishes
        // after it is spawned, so `spawned >= executed + panicked` holds
        // for this read order, and the snapshot invariant
        // `spawned == executed + panicked + pending` holds by
        // construction.
        let tasks_executed = self.shared.stats.tasks_executed.load(Ordering::Acquire);
        let tasks_panicked = self.shared.stats.tasks_panicked.load(Ordering::Acquire);
        let tasks_spawned = self.shared.stats.tasks_spawned.load(Ordering::Acquire);
        if let Some(tel) = &self.shared.telemetry {
            tel.set_occupancy(running, blocked);
        }
        RuntimeStats {
            name: self.shared.name.clone(),
            tasks_executed,
            tasks_panicked,
            tasks_spawned,
            tasks_ready,
            tasks_pending: tasks_spawned.saturating_sub(tasks_executed + tasks_panicked),
            running_workers: running,
            blocked_workers: blocked,
            external_threads: 0,
            per_node,
            user_counters: self.shared.stats.user.lock().clone(),
            uptime_us: self.shared.stats.uptime_us(),
            tasks_preempted: self.shared.stats.tasks_preempted.load(Ordering::Relaxed),
            tasks_runaway: self.shared.stats.tasks_runaway.load(Ordering::Relaxed),
            overbudget_cpu_us: self.shared.stats.overbudget_cpu_us.load(Ordering::Relaxed),
        }
    }

    /// Stops the runtime: releases blocked workers, wakes idle (parked)
    /// ones, and joins all worker threads. Tasks already running finish;
    /// queued tasks are dropped. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // begin_shutdown releases gate-blocked workers and unparks every
        // parked one (the registry unpark covers workers mid-park; the
        // parker token covers workers about to park).
        self.shared.control.begin_shutdown();
        self.shared.notify_quiesce();
        let mut workers = self.workers.lock();
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("name", &self.shared.name)
            .field("machine", &self.shared.machine.name())
            .finish_non_exhaustive()
    }
}

/// Execution context handed to every task body.
///
/// Lets a task spawn follow-up tasks, satisfy events, create data blocks,
/// and bump user counters — the OCR-style "everything goes through the
/// runtime" discipline.
pub struct TaskContext<'rt> {
    pub(crate) shared: &'rt Shared,
    pub(crate) worker_node: NodeId,
    pub(crate) task_id: TaskId,
    pub(crate) trace_id: u64,
    /// Whether this task carries a fuel budget; when `false`, every fuel
    /// checkpoint is a single branch and nothing else.
    pub(crate) fueled: bool,
    /// Fuel remaining for this slice (only meaningful when `fueled`).
    pub(crate) fuel: std::cell::Cell<u64>,
}

impl TaskContext<'_> {
    /// The NUMA node of the worker executing this task.
    pub fn node(&self) -> NodeId {
        self.worker_node
    }

    /// Burns `units` of fuel (saturating at zero). A no-op for
    /// unbudgeted tasks. Called automatically at cooperative checkpoints
    /// (spawn, event satisfaction, data-block creation, yields); bodies
    /// doing long uninstrumented stretches may call it directly so their
    /// reported work tracks reality.
    pub(crate) fn consume_fuel(&self, units: u64) {
        if self.fueled {
            self.fuel.set(self.fuel.get().saturating_sub(units));
        }
    }

    /// Starts building a follow-up task. The new task inherits this
    /// task's trace id (same causal tree) and records this task as its
    /// parent when tracing is enabled. Costs one unit of fuel (a spawn
    /// is a cooperative checkpoint).
    pub fn task(&self, name: &str) -> TaskBuilder<'_> {
        self.consume_fuel(1);
        TaskBuilder::new(self.shared, name, Some((self.task_id, self.trace_id)))
    }

    /// Satisfies an event, panicking on double satisfaction or on another
    /// runtime's event (programming errors; the panic is contained by the
    /// runtime and reported through [`Runtime::wait_quiescent`]). Use
    /// [`try_satisfy`](Self::try_satisfy) to handle the error.
    pub fn satisfy(&self, event: &Event) {
        self.consume_fuel(1);
        if let Err(e) = self.shared.satisfy_event(event) {
            panic!("cannot satisfy the event: {e}");
        }
    }

    /// Fallible event satisfaction. Costs one unit of fuel.
    pub fn try_satisfy(&self, event: &Event) -> Result<()> {
        self.consume_fuel(1);
        self.shared.satisfy_event(event)
    }

    /// Increments a user counter.
    pub fn inc_counter(&self, name: &str, delta: u64) {
        self.shared.stats.add_user(name, delta);
    }
}
