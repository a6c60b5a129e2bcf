//! # coop-agent
//!
//! The resource-arbitration agent of the paper's Figure 1: a component that
//! "communicates with the runtime in both applications. It receives
//! information about the execution from the runtimes (number of tasks
//! executed, number of running threads, etc.) and it issues commands
//! instructing the runtimes to use a specified number of threads."
//!
//! * [`RuntimeHandle`] — the agent-side view of one managed runtime:
//!   poll stats, issue [`ThreadCommand`]s. Implemented for
//!   `Arc<coop_runtime::Runtime>` (in-process) and by the channel-based
//!   [`proto`] endpoints that mimic the paper's separate-process setup.
//! * [`Policy`] — a decision rule mapping the latest stats snapshots to
//!   commands. Provided policies: [`policies::FairShare`],
//!   [`policies::ProducerConsumerThrottle`] (the SBAC-PAD'18 experiment),
//!   [`policies::ModelGuided`] (uses the roofline model and the search
//!   machinery to choose per-NUMA-node allocations — the paper's "better
//!   decisions" future work), and [`policies::LibraryBurst`] (the §II
//!   tight-integration scenario: shift cores to a "library" application
//!   while it has work, return them when it goes idle).
//! * [`Agent`] — the periodic control loop, runnable inline
//!   ([`Agent::run_for`]) or on a background thread ([`Agent::spawn`]).
//!   Model-driven policies expose their roofline solve via
//!   [`Policy::prediction`]; the agent opens a provenance record per
//!   applied decision in its [`coop_telemetry::ModelObservatory`] and
//!   back-fills it one tick later with the measured throughput shares,
//!   feeding the model-drift detector.
//!
//! * [`supervise`] / [`fault`] — fault tolerance: every managed handle is
//!   wrapped in a [`SupervisedHandle`] (per-runtime health state machine,
//!   per-call deadlines, bounded retry with backoff); sick runtimes are
//!   quarantined, dead ones evicted and their cores reclaimed for the
//!   survivors. [`ChaosHandle`] + [`FaultPlan`] inject deterministic
//!   faults for testing (see `docs/robustness.md`). A tenant whose
//!   watchdog keeps marking tasks runaway is degraded and clamped to its
//!   fair-share row. [`control`] holds these rules once, as the
//!   [`Tenancy`] both supervision loops (this agent's and `memsim`'s
//!   supervised runs) walk every tick.
//!
//! The agent deliberately does cheap work per tick (the paper's §IV:
//! an agent that is "only required to occasionally perform quick
//! decisions" will not disturb the computation).

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod agent;
pub mod consensus;
pub mod control;
pub mod fault;
pub mod policies;
pub mod proto;
pub mod supervise;

pub use agent::{Agent, AgentLog, Decision};
pub use control::Tenancy;
pub use coop_runtime::{RuntimeStats, ThreadCommand};
pub use fault::{ChaosHandle, Fault, FaultPlan, FaultRule, KillSwitch};
pub use supervise::{
    BackoffConfig, DetectorConfig, Health, HealthState, SupervisedHandle, SupervisionConfig,
};

use std::sync::Arc;

/// Errors produced by the agent layer.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentError {
    /// A command could not be delivered or was rejected by the runtime.
    Command {
        /// Managed runtime's name.
        runtime: String,
        /// Underlying reason.
        reason: String,
    },
    /// A policy was configured inconsistently with the managed set.
    Policy {
        /// Explanation.
        reason: String,
    },
    /// The remote endpoint disconnected (channel closed).
    Disconnected {
        /// Managed runtime's name.
        runtime: String,
    },
    /// A call exceeded its deadline (the runtime may be hung).
    Timeout {
        /// Managed runtime's name.
        runtime: String,
        /// The deadline that elapsed.
        deadline: std::time::Duration,
    },
    /// A support thread (an endpoint's serving thread, the agent's first
    /// runner) could not be spawned.
    Spawn {
        /// Managed runtime's name.
        runtime: String,
        /// OS-level reason.
        reason: String,
    },
}

impl AgentError {
    /// `true` for *transport* failures — the runtime did not answer
    /// (timeout, disconnect, spawn failure). These feed the failure
    /// detector and are retried; application-level errors
    /// ([`AgentError::Command`], [`AgentError::Policy`]) prove the
    /// runtime is alive and are neither retried nor counted against it.
    pub(crate) fn is_transport(&self) -> bool {
        matches!(
            self,
            AgentError::Disconnected { .. } | AgentError::Timeout { .. } | AgentError::Spawn { .. }
        )
    }
}

impl std::fmt::Display for AgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentError::Command { runtime, reason } => {
                write!(f, "command to runtime '{runtime}' failed: {reason}")
            }
            AgentError::Policy { reason } => write!(f, "policy error: {reason}"),
            AgentError::Disconnected { runtime } => {
                write!(f, "runtime '{runtime}' disconnected")
            }
            AgentError::Timeout { runtime, deadline } => {
                write!(
                    f,
                    "runtime '{runtime}' exceeded the {:?} call deadline",
                    deadline
                )
            }
            AgentError::Spawn { runtime, reason } => {
                write!(
                    f,
                    "spawning support thread for '{runtime}' failed: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for AgentError {}

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, AgentError>;

/// The agent-side view of one managed runtime.
pub trait RuntimeHandle: Send {
    /// The runtime's (application) name.
    fn name(&self) -> String;
    /// Polls a statistics snapshot.
    fn stats(&self) -> Result<RuntimeStats>;
    /// Issues a thread-control command.
    fn command(&self, cmd: ThreadCommand) -> Result<()>;
    /// Gives up the channel this handle talks over, if it is one
    /// ([`proto::AgentSideEndpoint`]): a [`SupervisedHandle`] then calls
    /// over it instead of having the agent's runners call the handle in
    /// place. `None`, the default, for a handle that is called in place.
    fn take_courier(&mut self) -> Option<proto::Courier> {
        None
    }
}

impl RuntimeHandle for Arc<coop_runtime::Runtime> {
    fn name(&self) -> String {
        coop_runtime::Runtime::name(self).to_string()
    }

    fn stats(&self) -> Result<RuntimeStats> {
        Ok(coop_runtime::Runtime::stats(self))
    }

    fn command(&self, cmd: ThreadCommand) -> Result<()> {
        self.control().apply(cmd).map_err(|e| AgentError::Command {
            runtime: coop_runtime::Runtime::name(self).to_string(),
            reason: e.to_string(),
        })
    }
}

/// A decision rule: maps the latest stats to per-runtime commands.
///
/// `tick` returns one optional command per entry of `stats`, in its order;
/// `None`, or a vector that ends before the entry (an empty one commands
/// nobody), means "no change for this runtime".
pub trait Policy: Send {
    /// Called once per agent tick.
    fn tick(&mut self, stats: &[RuntimeStats], tick_index: u64) -> Vec<Option<ThreadCommand>>;

    /// The model prediction backing the commands most recently returned
    /// from [`Policy::tick`], if this policy is model-driven.
    ///
    /// Model-driven policies (e.g. [`policies::ModelGuided`]) return the
    /// roofline solve of the assignment they just pushed; the [`Agent`]
    /// attaches it to the decisions' provenance record so the model-drift
    /// observatory can later compare it against measured runtime
    /// counters. Reactive policies keep the default `None` and their
    /// decisions carry no prediction.
    fn prediction(&self) -> Option<coop_telemetry::Prediction> {
        None
    }
}
