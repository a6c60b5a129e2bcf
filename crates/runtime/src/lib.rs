//! # coop-runtime
//!
//! A task-based dynamic runtime system in the style of OCR / OCR-Vx, built
//! for the cooperating-applications scenario of "NUMA-aware CPU core
//! allocation in cooperating dynamic applications" (Dokulil & Benkner,
//! 2020).
//!
//! The design points the paper relies on are all here:
//!
//! * **Tasks, not threads.** Work is expressed as fine-grained tasks with
//!   dependencies on [`Event`]s ([`TaskBuilder`]); the runtime decides
//!   where and when they run. Tasks are never OS-preempted (OCR-Vx "does
//!   not support" preemption; neither do we), which is exactly why thread
//!   blocking happens at task boundaries. Cooperative *fuel budgets*
//!   ([`RuntimeConfig::with_task_fuel`]) bound a task's slice anyway:
//!   step bodies ([`TaskBuilder::body_step`]) that exhaust their budget
//!   are parked at the next yield safe point and resume at low priority,
//!   and a wall-clock watchdog ([`RuntimeConfig::with_watchdog`])
//!   contains bodies that never reach one.
//! * **Runtime-managed data.** [`DataBlock`]s are allocated through the
//!   runtime and carry a NUMA-node placement that the runtime can use for
//!   affinity-aware scheduling and that can be migrated — the capability
//!   the paper notes is easy in OCR and hard in TBB.
//! * **Dynamic worker control.** The runtime starts one worker per core of
//!   its (virtual) machine and can suspend/resume workers at run time
//!   through [`ThreadCommand`], implementing the paper's three options:
//!   total thread count, explicit per-core blocking, and per-NUMA-node
//!   thread counts (§II, options 1–3).
//! * **NUMA-aware scheduling.** Every worker is bound (in bookkeeping; see
//!   the substitution notes in `DESIGN.md`) to a core or node; ready tasks
//!   with a placement hint go to that node's queue, and workers prefer
//!   local work before stealing from other nodes.
//! * **Introspection for an agent.** [`RuntimeStats`] snapshots (tasks
//!   executed, ready, running/blocked workers, per-node occupancy, user
//!   counters) are what the paper's agent process consumes; the
//!   `coop-agent` crate drives the [`ControlHandle`] with them.
//!
//! ## Example
//!
//! ```
//! use coop_runtime::{Runtime, RuntimeConfig, ThreadCommand};
//! use numa_topology::presets::tiny;
//!
//! let rt = Runtime::start(RuntimeConfig::new("demo", tiny())).unwrap();
//! let ev = rt.new_once_event();
//! // A two-stage mini-graph: `second` runs only after `first` satisfies ev.
//! let first = rt.task("first").body({
//!     let ev = ev.clone();
//!     move |ctx| { ctx.satisfy(&ev); }
//! }).spawn().unwrap();
//! let _second = rt.task("second").depends_on(&ev).body(|_| {}).spawn().unwrap();
//! rt.wait_quiescent().unwrap();
//! assert_eq!(rt.stats().tasks_executed, 2);
//! // Shrink to 1 worker thread (the paper's blocking option 1), then stop.
//! rt.control().apply(ThreadCommand::TotalThreads(1)).unwrap();
//! rt.shutdown();
//! # let _ = first;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod control;
mod datablock;
mod deque;
mod error;
mod event;
mod external;
mod park;
mod runtime;
mod sched;
mod stats;
mod task;
mod telemetry;
mod worker;

pub use control::{ControlHandle, ControlMode, ThreadCommand};
pub use datablock::{DataBlock, DbId};
pub use error::RuntimeError;
pub use event::{Event, EventId, EventKind};
pub use runtime::{Runtime, RuntimeConfig, TaskContext};
pub use sched::set_strict_parking;
pub use stats::{NodeOccupancy, RuntimeStats};
pub use task::{TaskBuilder, TaskId, TaskPriority, TaskStep};

// Re-exported so callers can attach a hub without naming the telemetry
// crate themselves (see `RuntimeConfig::with_telemetry`).
pub use coop_telemetry::TelemetryHub;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, RuntimeError>;
