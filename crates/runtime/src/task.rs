//! Task construction.
//!
//! A task is a one-shot closure plus the events it depends on, an optional
//! NUMA placement hint, and an optional *finish event* satisfied when the
//! body completes (OCR's output event, used for chaining graphs without
//! shared state).

use crate::event::Event;
use crate::runtime::TaskContext;
use numa_topology::NodeId;
use std::fmt;

/// Identifier of a task within one runtime instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u64);

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Outcome of one slice of a resumable task body (see
/// [`TaskBuilder::body_step`]).
///
/// Returning [`TaskStep::Yield`] marks a *safe point*: the task has no
/// borrowed worker state and may be suspended here. A yield costs one unit
/// of fuel; a task that yields with an exhausted budget is parked into the
/// over-budget queue and rescheduled at low priority with refilled fuel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStep {
    /// The body is finished; the task completes normally.
    Done,
    /// The body wants to keep running but can be suspended here.
    Yield,
}

/// A task body: either the classic run-to-completion closure or a
/// resumable step function that can be preempted at yield points.
pub(crate) enum TaskBody {
    /// Runs once to completion; fuel is tracked at checkpoints but the
    /// body cannot be suspended (the watchdog is the backstop).
    Once(Box<dyn FnOnce(&TaskContext<'_>) + Send + 'static>),
    /// Called repeatedly until it returns [`TaskStep::Done`]; each
    /// [`TaskStep::Yield`] is a preemption-safe point.
    Step(Box<dyn FnMut(&TaskContext<'_>) -> TaskStep + Send + 'static>),
}

/// Scheduling priority of a task. High-priority tasks are always picked
/// before normal ones by every worker (within and across nodes); there is
/// no preemption (OCR-style), so a running task always finishes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TaskPriority {
    /// Default priority.
    #[default]
    Normal,
    /// Picked before all normal-priority tasks.
    High,
}

/// A fully-built task, owned by the runtime until it executes.
pub(crate) struct Task {
    pub id: TaskId,
    /// Causal-tree id: inherited from the spawning task, or the task's
    /// own id for roots. Always assigned (a `u64` copy), but only
    /// *recorded* when task tracing is enabled.
    pub trace_id: u64,
    pub name: TaskName,
    pub body: TaskBody,
    /// NUMA node this task would like to run on (e.g. where its data
    /// block lives). Purely advisory.
    pub affinity: Option<NodeId>,
    /// Scheduling priority.
    pub priority: TaskPriority,
    /// Event satisfied when the body finishes (even if it panics, so
    /// downstream tasks are not stranded by a contained failure).
    pub finish: Option<Event>,
    /// When the task was pushed onto a ready queue; only stamped while
    /// telemetry is attached (feeds the queue-wait histogram).
    pub enqueued_at: Option<std::time::Instant>,
    /// Work-unit budget this task refills to after a preemption (`None`
    /// = unbudgeted: fuel checkpoints are no-ops for this task).
    pub fuel_budget: Option<u64>,
    /// Fuel remaining; only meaningful when `fuel_budget` is `Some`.
    pub fuel: u64,
}

/// Longest task name, in bytes of UTF-8, held inline; a longer one is boxed.
const NAME_INLINE: usize = 22;

/// A task's name: no allocation for the short kind labels names are.
pub(crate) enum TaskName {
    Inline(u8, [u8; NAME_INLINE]),
    Boxed(Box<str>),
}

impl TaskName {
    pub(crate) fn new(name: &str) -> Self {
        let mut bytes = [0; NAME_INLINE];
        let Some(inline) = bytes.get_mut(..name.len()) else {
            return TaskName::Boxed(name.into());
        };
        inline.copy_from_slice(name.as_bytes());
        TaskName::Inline(name.len() as u8, bytes)
    }

    pub(crate) fn as_str(&self) -> &str {
        match self {
            TaskName::Inline(len, bytes) => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("copied from a &str")
            }
            TaskName::Boxed(name) => name,
        }
    }
}

/// A builder's dependencies: the first inline, any others in a vector, so
/// a task with one dependency allocates nothing for its list.
#[derive(Default)]
pub(crate) struct Deps {
    first: Option<Event>,
    rest: Vec<Event>,
}

impl Deps {
    fn push(&mut self, event: Event) {
        match self.first {
            None => self.first = Some(event),
            Some(_) => self.rest.push(event),
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.first.iter().chain(&self.rest)
    }
}

/// Builder for tasks; obtained from [`Runtime::task`](crate::Runtime::task)
/// or [`TaskContext::task`].
///
/// ```
/// use coop_runtime::{Runtime, RuntimeConfig};
/// use numa_topology::{presets::tiny, NodeId};
///
/// let rt = Runtime::start(RuntimeConfig::new("t", tiny())).unwrap();
/// let done = rt.new_once_event();
/// rt.task("stage1")
///     .affinity(NodeId(1))
///     .body({ let done = done.clone(); move |ctx| ctx.satisfy(&done) })
///     .spawn()
///     .unwrap();
/// rt.wait_quiescent().unwrap();
/// assert!(done.is_satisfied());
/// rt.shutdown();
/// ```
pub struct TaskBuilder<'rt> {
    pub(crate) shared: &'rt crate::runtime::Shared,
    pub(crate) name: TaskName,
    pub(crate) body: Option<TaskBody>,
    pub(crate) deps: Deps,
    pub(crate) affinity: Option<NodeId>,
    pub(crate) priority: TaskPriority,
    pub(crate) want_finish_event: bool,
    /// `(spawning task, its trace id)` when built from a [`TaskContext`];
    /// the new task joins the parent's causal tree.
    pub(crate) parent: Option<(TaskId, u64)>,
    /// Per-task fuel override (falls back to the runtime's
    /// [`RuntimeConfig::with_task_fuel`](crate::RuntimeConfig::with_task_fuel)
    /// default when `None`).
    pub(crate) fuel: Option<u64>,
}

impl<'rt> TaskBuilder<'rt> {
    pub(crate) fn new(
        shared: &'rt crate::runtime::Shared,
        name: &str,
        parent: Option<(TaskId, u64)>,
    ) -> Self {
        TaskBuilder {
            shared,
            name: TaskName::new(name),
            body: None,
            deps: Deps::default(),
            affinity: None,
            priority: TaskPriority::Normal,
            want_finish_event: false,
            parent,
            fuel: None,
        }
    }

    /// Sets the task body.
    pub fn body(mut self, f: impl FnOnce(&TaskContext<'_>) + Send + 'static) -> Self {
        self.body = Some(TaskBody::Once(Box::new(f)));
        self
    }

    /// Sets a *resumable* task body: `f` is called repeatedly until it
    /// returns [`TaskStep::Done`]. Every [`TaskStep::Yield`] is a safe
    /// point costing one unit of fuel; when the task's budget is
    /// exhausted there, the runtime parks it into the over-budget queue
    /// and reschedules it at low priority with refilled fuel — compliant
    /// tenants are never starved by a long-running neighbour.
    pub fn body_step(
        mut self,
        f: impl FnMut(&TaskContext<'_>) -> TaskStep + Send + 'static,
    ) -> Self {
        self.body = Some(TaskBody::Step(Box::new(f)));
        self
    }

    /// Overrides this task's fuel budget (work units between forced
    /// yields), taking precedence over the runtime-wide default set by
    /// [`RuntimeConfig::with_task_fuel`](crate::RuntimeConfig::with_task_fuel).
    pub fn fuel(mut self, units: u64) -> Self {
        self.fuel = Some(units);
        self
    }

    /// Adds a dependency: the task only becomes ready once `event` is
    /// satisfied. May be called multiple times.
    pub fn depends_on(mut self, event: &Event) -> Self {
        self.deps.push(event.clone());
        self
    }

    /// Adds dependencies on all given events.
    pub fn depends_on_all<'e>(mut self, events: impl IntoIterator<Item = &'e Event>) -> Self {
        for event in events {
            self.deps.push(event.clone());
        }
        self
    }

    /// Hints that the task should run on `node` (e.g. because its data
    /// block lives there).
    pub fn affinity(mut self, node: NodeId) -> Self {
        self.affinity = Some(node);
        self
    }

    /// Marks the task high-priority: every worker picks it before any
    /// normal-priority task (no preemption of running tasks). Useful for
    /// the latency-sensitive coordination tasks of tightly-integrated
    /// components (§II).
    pub fn high_priority(mut self) -> Self {
        self.priority = TaskPriority::High;
        self
    }

    /// Requests a finish event; `spawn_with_finish` returns it.
    pub fn with_finish_event(mut self) -> Self {
        self.want_finish_event = true;
        self
    }

    /// Spawns the task. Returns its id.
    pub fn spawn(self) -> crate::Result<TaskId> {
        let (id, _) = self.spawn_inner()?;
        Ok(id)
    }

    /// Spawns the task and returns `(id, finish_event)`. Implies
    /// [`with_finish_event`](TaskBuilder::with_finish_event).
    pub fn spawn_with_finish(mut self) -> crate::Result<(TaskId, Event)> {
        self.want_finish_event = true;
        let (id, ev) = self.spawn_inner()?;
        Ok((id, ev.expect("finish event requested")))
    }

    fn spawn_inner(self) -> crate::Result<(TaskId, Option<Event>)> {
        self.shared.spawn_task(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Runtime, RuntimeConfig, RuntimeError};
    use numa_topology::presets::tiny;

    #[test]
    fn builder_requires_body() {
        let rt = Runtime::start(RuntimeConfig::new("t", tiny())).unwrap();
        let err = rt.task("no-body").spawn();
        assert!(matches!(err, Err(RuntimeError::MissingBody)));
        rt.shutdown();
    }

    #[test]
    fn task_id_debug() {
        assert_eq!(format!("{:?}", super::TaskId(5)), "task5");
    }
}
