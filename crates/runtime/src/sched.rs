//! The work-stealing scheduling substrate.
//!
//! This module holds everything the overhauled scheduler shares between
//! [`crate::runtime::Shared`], the worker loop, and helping external
//! threads:
//!
//! * **Per-worker deques.** Every worker owns two LIFO
//!   [`Worker`] deques (one per [`TaskPriority`] tier).
//!   Tasks spawned *from a task body* are pushed onto the spawning
//!   worker's own deque — the common fan-out case never touches a shared
//!   queue. All other workers hold [`Stealer`] handles, grouped by NUMA
//!   node, so victims are visited in locality order.
//! * **The steal order.** A worker looks for a task tier by tier (high
//!   before normal, always), and within a tier: own deque → same-node
//!   sibling deques → the node's [`Injector`] → the global [`Injector`] →
//!   remote nodes (their injectors and deques, via `steal_batch_and_pop`
//!   so one trip amortizes several remote tasks). Same-node injector
//!   takes are *local pops*, not steals; only another worker's deque or a
//!   remote node's queue counts toward the steal metrics.
//! * **Event-counted parking.** Idle workers park on a per-worker
//!   [`Parker`] registered in a [`ParkRegistry`]; producers publish a
//!   sequence number and unpark one (preferably node-local) idle worker.
//!   The no-lost-wakeup protocol is documented on [`ParkRegistry`].

use crate::deque::{Injector, Stealer, Worker};
use crate::park::{Parker, Unparker};
use crate::runtime::Shared;
use crate::task::{Task, TaskPriority};
use coop_telemetry::sync::Mutex;
use numa_topology::NodeId;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Process-wide strict-parking switch (see [`set_strict_parking`]).
static STRICT_PARKING: AtomicBool = AtomicBool::new(false);

/// Turns the parking backstop into a hard failure: when enabled, a worker
/// whose `PARK_BACKSTOP` timeout fires *and then finds work that was
/// never published through the parking registry* panics instead of
/// silently recovering. The backstop exists as a liveness net for
/// protocol bugs — but it also masks them; stress tests enable this so a
/// lost wakeup fails loudly instead of costing 100 ms per occurrence.
/// Such a recovery always increments `coop_sched_backstop_wakeups_total`
/// (and trips a debug assertion) regardless of this switch.
pub fn set_strict_parking(enabled: bool) {
    STRICT_PARKING.store(enabled, Ordering::SeqCst);
}

pub(crate) fn strict_parking() -> bool {
    STRICT_PARKING.load(Ordering::SeqCst)
}

/// How long a parked worker sleeps before re-checking the queues even
/// without an unpark. This is a liveness backstop against protocol bugs,
/// not a scheduling mechanism: the wakeup-latency regression test
/// (`tests/wakeup_latency.rs`) asserts latencies far below the old 1 ms
/// poll, which only the unpark path can deliver.
pub(crate) const PARK_BACKSTOP: Duration = Duration::from_millis(100);

/// Flush batched per-worker statistics after this many locally-counted
/// task completions, even if the worker never goes idle.
pub(crate) const STATS_FLUSH_EVERY: u64 = 64;

/// Scheduler state embedded in [`Shared`]: everything the pop paths,
/// the parking protocol, and `enqueue_ready` share.
pub(crate) struct SchedState {
    /// Process-unique id of the owning runtime, so [`try_push_local`]
    /// never pushes onto a deque belonging to a different runtime's
    /// worker (one thread is only ever a worker of one runtime, but task
    /// bodies of runtime A may spawn into runtime B through its API).
    pub runtime_id: u64,
    /// Stealer handles for every worker deque.
    pub grid: StealGrid,
    /// Idle-worker registry.
    pub parking: Arc<ParkRegistry>,
    /// Census of enqueued-but-not-popped tasks across every deque and
    /// injector. Maintained here because the deques have no
    /// cheap aggregate length; feeds `RuntimeStats::tasks_ready`.
    pub ready: AtomicUsize,
    /// Number of high-priority tasks enqueued and not yet popped. Gates
    /// the high-tier scan in [`find_task`] so priority-free workloads
    /// pay one load instead of a full empty-queue sweep per pop.
    pub high_pending: AtomicUsize,
    /// Tasks preempted after exhausting their fuel budget. Scanned
    /// *last* by every pop path — after the whole normal tier, local and
    /// remote — which is what makes re-admission de-facto low priority
    /// without a third deque tier on the hot path.
    pub overbudget: Injector<Task>,
    /// Gate for the over-budget scan, mirroring `high_pending`: workloads
    /// that never preempt pay one relaxed load per failed pop.
    pub overbudget_pending: AtomicUsize,
}

static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(0);

/// Allocates a process-unique id for one `Shared` instance, so the
/// thread-local fast path can tell *whose* worker the current thread is.
pub(crate) fn next_runtime_id() -> u64 {
    NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed)
}

/// The deques owned by one worker thread (installed in TLS while its
/// `worker_loop` runs).
pub(crate) struct LocalQueues {
    /// Id of the owning runtime (see [`next_runtime_id`]).
    pub runtime_id: u64,
    /// Owning worker index.
    pub worker: usize,
    /// The worker's home NUMA node.
    pub node: NodeId,
    /// High-priority tier.
    pub high: Worker<Task>,
    /// Normal tier.
    pub normal: Worker<Task>,
    /// Local pops this worker has made since its last stats flush: the
    /// `coop_sched_local_pops_total` half of the worker's batch (see
    /// `LocalStats` in [`crate::worker`]), kept here because the pop
    /// paths below are what count it.
    pub local_pops: Cell<u64>,
}

impl LocalQueues {
    pub(crate) fn new(runtime_id: u64, worker: usize, node: NodeId) -> Self {
        LocalQueues {
            runtime_id,
            worker,
            node,
            high: Worker::new_lifo(),
            normal: Worker::new_lifo(),
            local_pops: Cell::new(0),
        }
    }

    fn deque(&self, tier: TaskPriority) -> &Worker<Task> {
        match tier {
            TaskPriority::High => &self.high,
            TaskPriority::Normal => &self.normal,
        }
    }

    /// Stealer handles for registration in the [`StealGrid`].
    pub(crate) fn stealers(&self) -> WorkerStealers {
        WorkerStealers {
            node: self.node,
            high: self.high.stealer(),
            normal: self.normal.stealer(),
        }
    }
}

thread_local! {
    /// The current thread's worker deques, when the thread is a runtime
    /// worker mid-`worker_loop`.
    static CURRENT: RefCell<Option<Rc<LocalQueues>>> = const { RefCell::new(None) };
}

/// RAII installation of a worker's [`LocalQueues`] into thread-local
/// storage; cleared when the guard drops (worker exit).
pub(crate) struct LocalGuard;

pub(crate) fn install_local(queues: Rc<LocalQueues>) -> LocalGuard {
    CURRENT.with(|c| *c.borrow_mut() = Some(queues));
    LocalGuard
}

impl Drop for LocalGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

/// If the current thread is a worker of `shared`'s runtime and the task
/// has no conflicting affinity, push it onto the worker's own deque and
/// return the worker's node (for the unpark hint). Otherwise hand the
/// task back.
/// The node [`try_push_local`] *would* push to for a task with this
/// affinity, without pushing anything. Used by the tracing path to know
/// the enqueue destination before the task is made visible (the TLS
/// condition is deterministic within one thread, so the answer matches
/// the subsequent push).
pub(crate) fn local_target(shared: &Shared, affinity: Option<NodeId>) -> Option<NodeId> {
    CURRENT.with(|c| match &*c.borrow() {
        Some(lq)
            if lq.runtime_id == shared.sched.runtime_id
                && affinity.map(|n| n == lq.node).unwrap_or(true) =>
        {
            Some(lq.node)
        }
        _ => None,
    })
}

// `Err` hands the task back by value: boxing it would put an allocation on
// the spawn path.
#[allow(clippy::result_large_err)]
pub(crate) fn try_push_local(shared: &Shared, task: Task) -> Result<NodeId, Task> {
    CURRENT.with(|c| match &*c.borrow() {
        Some(lq)
            if lq.runtime_id == shared.sched.runtime_id
                && task.affinity.map(|n| n == lq.node).unwrap_or(true)
                && !worker_excluded(shared, lq.worker) =>
        {
            let node = lq.node;
            lq.deque(task.priority).push(task);
            Ok(node)
        }
        _ => Err(task),
    })
}

/// `true` while the watchdog has excluded `worker` from the scheduler (a
/// runaway task is wedging it): spawns from its task body must go to the
/// shared injectors, where healthy workers pick them up — pushing onto
/// the wedged worker's own deque would strand them behind the runaway
/// until a sibling happens to steal.
fn worker_excluded(shared: &Shared, worker: usize) -> bool {
    shared
        .watchdog
        .as_ref()
        .map(|wd| wd.excluded[worker].load(Ordering::Relaxed))
        .unwrap_or(false)
}

/// Stealer handles of one worker's deques.
pub(crate) struct WorkerStealers {
    pub node: NodeId,
    pub high: Stealer<Task>,
    pub normal: Stealer<Task>,
}

impl WorkerStealers {
    pub(crate) fn tier(&self, tier: TaskPriority) -> &Stealer<Task> {
        match tier {
            TaskPriority::High => &self.high,
            TaskPriority::Normal => &self.normal,
        }
    }
}

/// All stealer handles, plus the worker-ids-per-node grouping that makes
/// same-node victims cheap to enumerate.
pub(crate) struct StealGrid {
    /// Index = worker id.
    pub stealers: Vec<WorkerStealers>,
    /// Index = node id; worker ids homed on that node.
    pub node_workers: Vec<Vec<usize>>,
}

impl StealGrid {
    pub(crate) fn new(stealers: Vec<WorkerStealers>, num_nodes: usize) -> Self {
        let mut node_workers = vec![Vec::new(); num_nodes];
        for (w, s) in stealers.iter().enumerate() {
            node_workers[s.node.0].push(w);
        }
        StealGrid {
            stealers,
            node_workers,
        }
    }
}

/// The idle-worker registry behind event-counted parking.
///
/// # No-lost-wakeup protocol
///
/// Producer side ([`notify_one`](Self::notify_one)), after the task is
/// visible in some queue:
///
/// 1. increment the sequence number (`seq`, SeqCst);
/// 2. if the idle count is zero, return (every worker is busy and will
///    re-scan the queues before it can park);
/// 3. otherwise pop one idle worker — preferring the task's home node —
///    and unpark it.
///
/// Consumer side (the worker loop), after a failed task search:
///
/// 1. read `seq` (call it `s0`);
/// 2. register in the idle list (this is the *announce-then-re-check*
///    step: registration happens before the final queue check);
/// 3. **re-check all queues**; on a hit, deregister and run it;
/// 4. if `seq != s0`, something was enqueued since step 1: deregister
///    and re-scan instead of parking;
/// 5. park. The parker's token makes a racing unpark (any time after
///    step 2) return immediately.
///
/// Why no wakeup is lost: all `seq`/idle-count operations are SeqCst, so
/// for any producer/consumer pair either (a) the producer's increment
/// precedes the consumer's step-1/step-4 reads — then the consumer's
/// re-check happens after the push and finds the task, or the seq check
/// fails and it re-scans — or (b) the increment follows the consumer's
/// step-4 read, in which case the consumer's registration (step 2,
/// earlier still) is visible to the producer's idle-count check, and the
/// producer unparks it (the park token covers the unpark-before-park
/// interleaving). A [`PARK_BACKSTOP`] timeout bounds the damage of any
/// protocol bug to 100 ms; the wakeup-latency regression test would
/// surface such a bug immediately.
pub(crate) struct ParkRegistry {
    unparkers: Vec<Unparker>,
    worker_node: Vec<NodeId>,
    idle: Mutex<Vec<usize>>,
    idle_count: AtomicUsize,
    seq: AtomicU64,
}

impl ParkRegistry {
    /// Creates the registry plus the per-worker [`Parker`]s (handed to
    /// the worker threads; index = worker id).
    pub(crate) fn new(worker_node: Vec<NodeId>) -> (Self, Vec<Parker>) {
        let parkers: Vec<Parker> = worker_node.iter().map(|_| Parker::new()).collect();
        let unparkers = parkers.iter().map(|p| p.unparker()).collect();
        (
            ParkRegistry {
                unparkers,
                worker_node,
                idle: Mutex::new(Vec::new()),
                idle_count: AtomicUsize::new(0),
                seq: AtomicU64::new(0),
            },
            parkers,
        )
    }

    /// Current event count.
    pub(crate) fn seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Announces `worker` as idle (protocol step 2).
    pub(crate) fn register(&self, worker: usize) {
        let mut idle = self.idle.lock();
        idle.push(worker);
        self.idle_count.store(idle.len(), Ordering::SeqCst);
    }

    /// Withdraws `worker` from the idle list (after a park returns or an
    /// aborted park attempt). Idempotent: `notify_one` may have popped
    /// the entry already.
    pub(crate) fn deregister(&self, worker: usize) {
        let mut idle = self.idle.lock();
        if let Some(pos) = idle.iter().position(|&w| w == worker) {
            idle.swap_remove(pos);
            self.idle_count.store(idle.len(), Ordering::SeqCst);
        }
    }

    /// Publishes one enqueue and wakes one idle worker, preferring one
    /// homed on `hint`'s node (the task's affinity, or the node whose
    /// deque just received it).
    pub(crate) fn notify_one(&self, hint: Option<NodeId>) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.idle_count.load(Ordering::SeqCst) == 0 {
            return;
        }
        let target = {
            let mut idle = self.idle.lock();
            if idle.is_empty() {
                None
            } else {
                let pos = hint
                    .and_then(|n| idle.iter().rposition(|&w| self.worker_node[w] == n))
                    .unwrap_or(idle.len() - 1);
                let w = idle.swap_remove(pos);
                self.idle_count.store(idle.len(), Ordering::SeqCst);
                Some(w)
            }
        };
        if let Some(w) = target {
            self.unparkers[w].unpark();
        }
    }

    /// Unparks every worker (shutdown, thread-control mode changes):
    /// parked workers must re-evaluate the control gate promptly.
    pub(crate) fn unpark_all(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        for u in &self.unparkers {
            u.unpark();
        }
    }
}

/// Where a popped task came from, for the scheduler counters and the
/// `stolen` trace hop.
enum PopSource {
    /// Own deque, own node's injector, or the global injector.
    Local,
    /// Another worker's deque on the same node.
    SiblingSteal,
    /// A remote node's injector or a remote worker's deque; `from` is
    /// the victim node.
    RemoteSteal { from: NodeId },
}

/// Pops a ready task for a worker (`local = Some`) or a helping external
/// thread (`local = None`), following the documented steal order. Also
/// maintains the ready-task census and the high-priority gate, and
/// records pop/steal telemetry.
pub(crate) fn find_task(
    shared: &Shared,
    node: NodeId,
    local: Option<&LocalQueues>,
) -> Option<Task> {
    // The high tier is scanned first — but only when the gate says a
    // high-priority task may exist, so graphs that never use priorities
    // pay one relaxed load instead of a full empty-queue scan.
    if shared.sched.high_pending.load(Ordering::Acquire) > 0 {
        if let Some((task, source)) = pop_tier(shared, node, local, TaskPriority::High) {
            shared.sched.high_pending.fetch_sub(1, Ordering::AcqRel);
            return Some(note_pop(
                shared,
                task,
                source,
                TaskPriority::High,
                node,
                local,
            ));
        }
    }
    if let Some((task, source)) = pop_tier(shared, node, local, TaskPriority::Normal) {
        return Some(note_pop(
            shared,
            task,
            source,
            TaskPriority::Normal,
            node,
            local,
        ));
    }
    // Over-budget tasks go last — only a worker that found nothing else
    // resumes a preempted tenant, which is what makes the refilled
    // budget a low-priority reschedule rather than a free restart.
    pop_overbudget(shared).map(|task| {
        note_pop(
            shared,
            task,
            PopSource::Local,
            TaskPriority::Normal,
            node,
            local,
        )
    })
}

/// Takes one task from the over-budget queue (gate-checked first, so
/// budget-free workloads pay one relaxed load). Deliberately a plain
/// single-task steal, never `steal_batch_and_pop`: batching into a local
/// deque would promote the remaining over-budget tasks into the normal
/// tier, defeating the low-priority reschedule.
fn pop_overbudget(shared: &Shared) -> Option<Task> {
    if shared.sched.overbudget_pending.load(Ordering::Acquire) == 0 {
        return None;
    }
    let task = shared.sched.overbudget.steal()?;
    shared
        .sched
        .overbudget_pending
        .fetch_sub(1, Ordering::AcqRel);
    Some(task)
}

/// Maintains the ready census, the pop/steal counters, and — when task
/// tracing is on — the `stolen` hop. `thief_node`/`local` identify the
/// popping thread (`local = None`: a helping external thread).
fn note_pop(
    shared: &Shared,
    task: Task,
    source: PopSource,
    tier: TaskPriority,
    thief_node: NodeId,
    local: Option<&LocalQueues>,
) -> Task {
    shared.sched.ready.fetch_sub(1, Ordering::Relaxed);
    if let Some(tel) = &shared.telemetry {
        let stolen_from = match source {
            PopSource::Local => {
                // A worker's local pops ride its stats batch; a helper
                // has no batch and counts at once.
                match local {
                    Some(lq) => lq.local_pops.set(lq.local_pops.get() + 1),
                    None => tel.local_pops_total.inc(),
                }
                None
            }
            PopSource::SiblingSteal => {
                tel.steals_total.inc();
                tel.steal_counter(tier, true).inc();
                // A sibling steal moves work between workers of the same
                // node, so the hop's from == to (no NUMA crossing).
                Some(thief_node)
            }
            PopSource::RemoteSteal { from } => {
                tel.steals_total.inc();
                tel.steal_counter(tier, false).inc();
                Some(from)
            }
        };
        if tel.tracing {
            if let Some(from) = stolen_from {
                tel.trace_stolen(
                    local.map(|lq| lq.worker),
                    task.id.0,
                    task.trace_id,
                    from.0 as u64,
                    thief_node.0 as u64,
                    tier,
                );
            }
        }
    }
    task
}

fn pop_tier(
    shared: &Shared,
    node: NodeId,
    local: Option<&LocalQueues>,
    tier: TaskPriority,
) -> Option<(Task, PopSource)> {
    let grid = &shared.sched.grid;
    let (global, per_node) = shared.injectors(tier);

    // 1. Own deque (LIFO: the task this worker pushed last, still warm).
    if let Some(lq) = local {
        if let Some(t) = lq.deque(tier).pop() {
            return Some((t, PopSource::Local));
        }
    }
    // 2. Same-node sibling deques.
    if let Some(workers) = grid.node_workers.get(node.0) {
        for &victim in workers {
            if local.map(|lq| lq.worker == victim).unwrap_or(false) {
                continue;
            }
            if let Some(t) = steal_one(grid.stealers[victim].tier(tier), local, tier) {
                return Some((t, PopSource::SiblingSteal));
            }
        }
    }
    // 3. Own node's injector (affinity-hinted tasks; a take, not a steal).
    if let Some(q) = per_node.get(node.0) {
        if let Some(t) = take_injector(q, local, tier) {
            return Some((t, PopSource::Local));
        }
    }
    // 4. The global injector (unhinted tasks from non-worker threads).
    if let Some(t) = take_injector(global, local, tier) {
        return Some((t, PopSource::Local));
    }
    // 5. Remote nodes, nearest-index order: injector first (those tasks
    //    asked for that node, but idle beats idle-and-local), then the
    //    node's worker deques.
    let n = per_node.len();
    for off in 1..n {
        let victim_node = (node.0 + off) % n;
        if let Some(t) = take_injector(&per_node[victim_node], local, tier) {
            return Some((
                t,
                PopSource::RemoteSteal {
                    from: NodeId(victim_node),
                },
            ));
        }
        for &victim in &grid.node_workers[victim_node] {
            if let Some(t) = steal_one(grid.stealers[victim].tier(tier), local, tier) {
                return Some((
                    t,
                    PopSource::RemoteSteal {
                        from: NodeId(victim_node),
                    },
                ));
            }
        }
    }
    None
}

/// Takes one task from an injector; with a local deque available, a
/// batch is moved over in the same trip (`steal_batch_and_pop`).
fn take_injector(
    q: &Injector<Task>,
    local: Option<&LocalQueues>,
    tier: TaskPriority,
) -> Option<Task> {
    match local {
        Some(lq) => q.steal_batch_and_pop(lq.deque(tier)),
        None => q.steal(),
    }
}

/// Steals from another worker's deque (single task into hand; batching
/// across deques is left to the injector path).
fn steal_one(s: &Stealer<Task>, local: Option<&LocalQueues>, tier: TaskPriority) -> Option<Task> {
    match local {
        Some(lq) => s.steal_batch_and_pop(lq.deque(tier)),
        None => s.steal(),
    }
}
