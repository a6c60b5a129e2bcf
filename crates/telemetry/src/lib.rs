//! # coop-telemetry
//!
//! The unified observability substrate for the numa-coop workspace.
//!
//! The paper's control loop (Figure 1) is driven entirely by observation:
//! the agent "receives information about the execution from the runtimes"
//! and decides thread counts from it. This crate gives every layer of the
//! stack — the task runtime, the arbitration agent, and the `memsim`
//! hardware simulator — one shared place to put that information, so that
//! a single run produces:
//!
//! * a [`MetricsRegistry`] of lock-free counters, gauges and log₂-bucketed
//!   [`Histogram`]s (task latency, queue wait, steals, block/unblock
//!   latency per blocking option, agent decision latency, per-node
//!   bandwidth utilization, …), exportable as Prometheus text exposition;
//! * a **sharded** per-worker event ring buffer feeding a unified
//!   timeline: runtime task spans, agent decision instants, and memsim
//!   bandwidth counter samples all share one clock (microseconds since the
//!   hub's epoch) and export as a single merged Perfetto/Chrome JSON
//!   trace;
//! * a compact JSON summary report for scripting;
//! * a **model-drift observatory** ([`ModelObservatory`]): a decision
//!   provenance ledger pairing every model prediction with its measured
//!   outcome, plus a per-series EWMA + CUSUM [`DriftDetector`] over the
//!   prediction residuals — exported as `coop_model_residual` /
//!   `coop_model_drift_alarms` metrics, timeline instants, and the
//!   [`DriftReport`] behind `coop drift`.
//!
//! The hot path is deliberately cheap: metric updates are single atomic
//! RMW operations on pre-registered handles, and timeline recording takes
//! one **per-shard** mutex (writers pick their own shard, normally their
//! worker index, so concurrent workers never contend on a global lock).
//!
//! This crate is dependency-free (std only) and sits below every other
//! crate in the workspace, so it also carries the two std-only pieces all
//! of them share: [`json`], the one JSON reader and writer, and [`sync`],
//! the poison-ignoring locks.
//!
//! ```
//! use coop_telemetry::{TelemetryHub, TrackId};
//! use std::sync::Arc;
//!
//! let hub = Arc::new(TelemetryHub::new());
//! let track = hub.register_track("runtime:demo");
//! let latency = hub.registry().histogram("coop_task_latency_us", &[("runtime", "demo")]);
//! latency.observe(120);
//! hub.record_span(0, track, 1, "task", "stage1", 10, 120, Vec::new());
//! assert!(hub.registry().to_prometheus().contains("coop_task_latency_us_bucket"));
//! assert!(hub.to_perfetto_json().contains("\"stage1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod accounting;
mod drift;
mod export;
pub mod json;
mod metrics;
mod observatory;
mod provenance;
mod recorder;
mod serve;
mod slo;
pub mod sync;
mod timeline;
mod trace;

pub use accounting::{
    jain_index, scheduler_locality, Epoch, LedgerSnapshot, TenantAccount, TenantLedger,
    TenantSample, SHARE_HISTORY_LIMIT, TENANT_CAT,
};
pub use drift::{DriftAlarm, DriftConfig, DriftDetector, DriftDirection, SeriesSnapshot};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use observatory::{
    ClosedDecision, DriftReport, ModelObservatory, ALARMS_METRIC, RESIDUAL_METRIC,
    RESIDUAL_PCT_METRIC,
};
pub use provenance::{
    Prediction, ProvenanceLedger, ProvenanceRecord, Residual, SeriesKey, SeriesValue,
};
pub use recorder::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use serve::{recent_events_json, serve, serve_with_limit, TelemetryServer, RECENT_TRACE_LIMIT};
pub use slo::{SloEngine, SloObjective, SloSpec, SloStatus, WindowBurn, SLO_CAT};
pub use timeline::{
    ArgValue, EventKind, Label, PackedArg, TelemetryHub, TimelineEvent, TrackId, TASK_NAME_INLINE,
};
pub use trace::{hop, hop_args, TaskTrace, TraceAssembler, TraceHop, TRACE_CAT};
