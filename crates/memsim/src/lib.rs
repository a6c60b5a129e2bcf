//! # memsim
//!
//! An execution-driven simulator of a NUMA machine: virtual cores, per-node
//! memory controllers, inter-node links, and an OS-style scheduler — the
//! substitute for the four-socket Xeon server the paper's §III.B
//! experiments ran on (see the substitution notes in `DESIGN.md`).
//!
//! Where the analytic model (`roofline-numa`) computes a steady state from
//! the paper's five arbitration assumptions, `memsim` *executes* workloads
//! segment by segment — one loop ([`event`]), cut at the workload's own edges
//! and, under [`EngineKind::Slice`], at a grid of time quanta — and layers on
//! the second-order effects that make real hardware deviate from the model:
//!
//! * per-segment multiplicative **jitter** (keyed draws, deterministic),
//! * **remote-access inefficiency** — latency-limited links do not reach
//!   their nominal bandwidth,
//! * **saturation contention** — memory controllers lose efficiency as
//!   utilization approaches 1 (queueing),
//! * **multi-application interference** — distinct applications sharing a
//!   node's memory system (caches, row buffers) cost each other a little
//!   bandwidth,
//! * **over-subscription switching losses** — when more threads than cores
//!   are runnable, time-slicing costs context switches and cache refills
//!   (the effect the paper's §II says Linux handles surprisingly well —
//!   i.e. it is only a few percent),
//! * per-application **synchronization-overhead scaling**, for studying the
//!   "scaling is less than linear" reallocation argument of §II.
//!
//! With all effects disabled ([`EffectModel::ideal`]) the simulator
//! converges to the analytic model exactly — a property the tests assert,
//! cross-validating both implementations.
//!
//! The [`supervise`] module runs a scenario under *model supervision*: each
//! decision tick is predicted with the analytic model, simulated (possibly
//! on a mid-run-perturbed machine), and back-filled into the model-drift
//! observatory so prediction residuals and drift alarms land on the shared
//! telemetry timeline. The [`chaos`] module injects mid-run application
//! failures (kill/revive) and optionally fair-shares the freed cores among
//! the survivors — the simulator-side counterpart of the agent's
//! eviction-and-reclamation path.
//!
//! ## Example: the paper's Table III procedure in miniature
//!
//! ```
//! use memsim::{EffectModel, SimApp, SimConfig, Simulation};
//! use numa_topology::presets::paper_skylake_machine;
//! use roofline_numa::ThreadAssignment;
//!
//! let machine = paper_skylake_machine();
//! let sim = Simulation::new(SimConfig::new(machine.clone()).with_effects(EffectModel::ideal()));
//! let apps = vec![
//!     SimApp::numa_local("mem", 1.0 / 32.0),
//!     SimApp::numa_local("comp", 1.0),
//! ];
//! let assignment = ThreadAssignment::uniform_per_node(&machine, &[10, 10]);
//! let result = sim.run(&apps, &assignment, 0.1).unwrap();
//! assert!(result.total_gflops() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod app;
mod calibrate;
pub mod chaos;
mod config;
mod engine;
pub mod event;
mod result;
pub mod scenario;
pub mod supervise;

pub use app::{ActivityPattern, SimApp};
pub use calibrate::{calibrate_even_scenario, CalibratedMachine};
pub use chaos::{
    run_chaos_scenario, run_chaos_scenario_on, run_chaos_scenario_threaded, AppOutage, ChaosPlan,
    ChaosResult,
};
pub use config::{EffectModel, EngineKind, SimConfig};
pub use engine::{Simulation, MAX_APPS, MAX_EDGES, MAX_STEPS, MAX_THREADS};
pub use event::{Component, EventEdge, EventHeap, EventLog, SimEvent};
pub use result::{AppSeries, SimResult};
pub use scenario::{
    run_scenario, run_scenario_on, NamedAssignment, Scenario, ScenarioResult, ScenarioRow,
};
pub use supervise::{
    run_supervised, DecisionTick, Perturbation, SupervisedResult, SupervisorConfig,
};

// Re-exported so callers can attach a hub without naming the telemetry
// crate themselves (see `Simulation::with_telemetry`).
pub use coop_telemetry::TelemetryHub;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The model layer rejected the inputs (shape, placement, AI).
    Model(roofline_numa::ModelError),
    /// Duration or quantum is not positive/finite.
    BadTime {
        /// Explanation.
        reason: &'static str,
    },
    /// Over-subscription requested but disabled in the config.
    OverSubscriptionDisabled {
        /// The offending node.
        node: usize,
    },
    /// A calibration input was inconsistent (e.g. no memory-bound class).
    Calibration {
        /// Explanation.
        reason: String,
    },
    /// A run asks for more than its budget ([`MAX_THREADS`] and its
    /// siblings) allows: what was counted, how many, and the bound.
    OverBudget(&'static str, f64, f64),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Model(e) => write!(f, "model error: {e}"),
            SimError::BadTime { reason } => write!(f, "bad time parameter: {reason}"),
            SimError::OverSubscriptionDisabled { node } => {
                write!(
                    f,
                    "node {node} is over-subscribed but over-subscription is disabled"
                )
            }
            SimError::Calibration { reason } => write!(f, "calibration failed: {reason}"),
            SimError::OverBudget(what, n, max) => {
                write!(f, "over the run budget: {n:e} {what} > {max:e}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<roofline_numa::ModelError> for SimError {
    fn from(e: roofline_numa::ModelError) -> Self {
        SimError::Model(e)
    }
}

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, SimError>;
