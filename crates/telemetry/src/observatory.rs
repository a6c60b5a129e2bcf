//! The model-drift observatory: provenance ledger + drift detector wired
//! onto a [`TelemetryHub`].
//!
//! Callers (the agent tick loop, the memsim supervisor, the bench
//! harnesses) open a provenance record when a decision fires and close it
//! when the decision's lifetime ends. The observatory then:
//!
//! * computes per-series residuals and feeds them to the
//!   [`DriftDetector`];
//! * exports `coop_model_residual{series=…}` gauges, the
//!   `coop_model_residual_abs_pct` histogram and the
//!   `coop_model_drift_alarms{series=…}` counter to the hub's registry;
//! * records `provenance` instants (decision opened) and `drift` instants
//!   (alarm raised) on the shared timeline, so drift shows up next to the
//!   task spans and bandwidth counters that caused it.

use crate::drift::{DriftAlarm, DriftConfig, DriftDetector, SeriesSnapshot};
use crate::json::Value;
use crate::metrics::Histogram;
use crate::provenance::{
    Prediction, ProvenanceLedger, ProvenanceRecord, Residual, SeriesKey, SeriesValue,
};
use crate::timeline::{EventKind, PackedArg, TelemetryHub, TrackId};
use crate::{json_object, json_write};
use std::sync::{Arc, OnceLock};

/// Gauge holding the latest relative residual per series.
pub const RESIDUAL_METRIC: &str = "coop_model_residual";
/// Histogram of absolute relative residuals, in percent.
pub const RESIDUAL_PCT_METRIC: &str = "coop_model_residual_abs_pct";
/// Counter of drift alarms per series.
pub const ALARMS_METRIC: &str = "coop_model_drift_alarms";
/// The arguments of a drift alarm's timeline instant.
const ALARM_ARGS: [&str; 6] = [
    "series",
    "residual",
    "ewma",
    "cusum",
    "direction",
    "decision",
];

/// Provenance + drift detection bound to one [`TelemetryHub`].
#[derive(Debug)]
pub struct ModelObservatory {
    hub: Arc<TelemetryHub>,
    track: TrackId,
    ledger: ProvenanceLedger,
    detector: DriftDetector,
    /// The label-less `coop_model_residual_abs_pct` histogram, resolved by
    /// the first residual (the per-series gauges and alarm counters are
    /// kept by the detector, next to each series' state).
    residual_pct: OnceLock<Arc<Histogram>>,
}

impl ModelObservatory {
    /// Create an observatory with default drift tuning and ledger size.
    pub fn new(hub: Arc<TelemetryHub>) -> Self {
        Self::with_config(hub, DriftConfig::default(), 1024)
    }

    /// Create an observatory with explicit drift tuning and ledger
    /// capacity.
    pub fn with_config(hub: Arc<TelemetryHub>, config: DriftConfig, capacity: usize) -> Self {
        let track = hub.register_track("model-drift");
        hub.set_lane_name(track, 0, "decisions");
        hub.set_lane_name(track, 1, "alarms");
        let registry = hub.registry();
        registry.set_help(
            RESIDUAL_METRIC,
            "Latest relative prediction residual (measured-predicted)/|predicted| per series",
        );
        registry.set_help(
            RESIDUAL_PCT_METRIC,
            "Absolute relative prediction residual in percent",
        );
        registry.set_help(ALARMS_METRIC, "CUSUM drift alarms raised per series");
        ModelObservatory {
            hub,
            track,
            ledger: ProvenanceLedger::new(capacity),
            detector: DriftDetector::new(config),
            residual_pct: OnceLock::new(),
        }
    }

    /// The hub this observatory records into.
    pub fn hub(&self) -> &Arc<TelemetryHub> {
        &self.hub
    }

    /// The underlying provenance ledger.
    pub fn ledger(&self) -> &ProvenanceLedger {
        &self.ledger
    }

    /// The underlying drift detector.
    pub fn detector(&self) -> &DriftDetector {
        &self.detector
    }

    /// Open a provenance record for a decision at the current hub time.
    pub fn open_decision(
        &self,
        tick: u64,
        source: impl Into<SeriesKey>,
        command: impl Into<SeriesKey>,
        prediction: impl Into<Arc<Prediction>>,
    ) -> u64 {
        let now = self.hub.now_us();
        self.open_decision_at(tick, source, command, prediction, now)
    }

    /// Open a provenance record with an explicit hub-clock timestamp
    /// (simulators map simulated seconds onto the hub clock). The record
    /// and its `provenance/decision` instant share `source` and `command`:
    /// a caller that keeps them as [`SeriesKey`]s, and its prediction in an
    /// [`Arc`], copies none of them.
    pub fn open_decision_at(
        &self,
        tick: u64,
        source: impl Into<SeriesKey>,
        command: impl Into<SeriesKey>,
        prediction: impl Into<Arc<Prediction>>,
        ts_us: u64,
    ) -> u64 {
        let (source, command) = (source.into(), command.into());
        let id = self
            .ledger
            .open(tick, source.clone(), command.clone(), prediction, ts_us);
        self.hub.record_packed(
            0,
            self.track,
            0,
            "provenance",
            "decision",
            ts_us,
            EventKind::Instant,
            &["id", "tick", "source", "command"],
            [
                PackedArg::U64(id),
                PackedArg::U64(tick),
                PackedArg::Str(source.into()),
                PackedArg::Str(command.into()),
            ],
        );
        id
    }

    /// Back-fill a decision with its realized outcome at the current hub
    /// time; see [`ModelObservatory::close_decision_at`].
    pub fn close_decision(&self, id: u64, measured: Vec<SeriesValue>) -> ClosedDecision {
        let now = self.hub.now_us();
        self.close_decision_at(id, measured, now)
    }

    /// Back-fill decision `id` with the realized outcome, run every
    /// residual through the drift detector, update the Prometheus
    /// metrics, and put any alarms on the timeline. Returns the residuals
    /// and the number of alarms they raised (nothing if the id is unknown).
    pub fn close_decision_at(
        &self,
        id: u64,
        measured: Vec<SeriesValue>,
        ts_us: u64,
    ) -> ClosedDecision {
        let Some(residuals) = self.ledger.close(id, measured, ts_us) else {
            return ClosedDecision::default();
        };
        let registry = self.hub.registry();
        if !residuals.is_empty() {
            self.residual_pct
                .get_or_init(|| registry.histogram(RESIDUAL_PCT_METRIC, &[]))
                .observe_all(
                    residuals
                        .iter()
                        .map(|r| (r.relative.abs() * 100.0).round() as u64),
                );
        }
        let mut alarms = 0;
        self.detector
            .observe_decision(&residuals, Some(registry), |alarm| {
                alarms += 1;
                self.hub.record_packed(
                    0,
                    self.track,
                    1,
                    "drift",
                    "drift_alarm",
                    ts_us,
                    EventKind::Instant,
                    &ALARM_ARGS,
                    [
                        PackedArg::Str(alarm.series.clone().into()),
                        PackedArg::F64(alarm.residual),
                        PackedArg::F64(alarm.ewma),
                        PackedArg::F64(alarm.cusum),
                        PackedArg::Str(alarm.direction.as_str().into()),
                        PackedArg::U64(id),
                    ],
                );
                // Drift alarms auto-dump the flight recorder: the events
                // leading up to a model mismatch are the evidence.
                if let Some(rec) = self.hub.flight_recorder() {
                    rec.trigger_dump(&format!("drift-{}", alarm.series));
                }
            });
        ClosedDecision { residuals, alarms }
    }

    /// Build the residual report from the current detector and ledger
    /// state.
    pub fn report(&self) -> DriftReport {
        DriftReport {
            series: self.detector.snapshot(),
            alarms: self.detector.alarm_log(),
            records: self.ledger.len(),
            open_records: self.ledger.open_count(),
        }
    }

    /// Copies of the retained provenance records (oldest first).
    pub fn records(&self) -> Vec<ProvenanceRecord> {
        self.ledger.records()
    }
}

/// What closing a decision produced.
#[derive(Debug, Clone, Default)]
pub struct ClosedDecision {
    /// The decision's residuals ([`ProvenanceRecord::residuals`]).
    pub residuals: Vec<Residual>,
    /// Drift alarms the residuals raised.
    pub alarms: usize,
}

/// The residual report surfaced by `coop drift`: per-series error
/// statistics, the worst series, and the alarm log.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Per-series drift statistics, sorted by series key.
    pub series: Vec<SeriesSnapshot>,
    /// Alarm log, oldest first.
    pub alarms: Vec<DriftAlarm>,
    /// Provenance records retained in the ledger.
    pub records: usize,
    /// Provenance records still awaiting back-fill.
    pub open_records: usize,
}

impl DriftReport {
    /// Total alarms across all series.
    pub fn total_alarms(&self) -> u64 {
        self.series.iter().map(|s| s.alarms).sum()
    }

    /// The series with the largest mean absolute residual.
    pub(crate) fn worst_series(&self) -> Option<&SeriesSnapshot> {
        self.series.iter().max_by(|a, b| {
            a.mean_abs_residual
                .partial_cmp(&b.mean_abs_residual)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// The node-level series (`node/...`) with the largest mean absolute
    /// residual — "the worst node" of the report.
    pub(crate) fn worst_node(&self) -> Option<&SeriesSnapshot> {
        self.series
            .iter()
            .filter(|s| s.series.starts_with("node/"))
            .max_by(|a, b| {
                a.mean_abs_residual
                    .partial_cmp(&b.mean_abs_residual)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Render as a human-readable text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "model-drift report: {} records ({} open), {} alarms\n",
            self.records,
            self.open_records,
            self.total_alarms()
        ));
        out.push_str(&format!(
            "{:<34} {:>6} {:>9} {:>9} {:>9} {:>9} {:>7}\n",
            "series", "n", "last", "ewma", "mean|r|", "max|r|", "alarms"
        ));
        for s in &self.series {
            out.push_str(&format!(
                "{:<34} {:>6} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>7}\n",
                s.series,
                s.samples,
                s.last_residual,
                s.ewma,
                s.mean_abs_residual,
                s.max_abs_residual,
                s.alarms
            ));
        }
        if let Some(worst) = self.worst_series() {
            out.push_str(&format!(
                "worst series: {} (mean |residual| {:.4})\n",
                worst.series, worst.mean_abs_residual
            ));
        }
        if let Some(worst) = self.worst_node() {
            out.push_str(&format!(
                "worst node:   {} (mean |residual| {:.4})\n",
                worst.series, worst.mean_abs_residual
            ));
        }
        if self.alarms.is_empty() {
            out.push_str("no drift alarms\n");
        } else {
            out.push_str("alarm log:\n");
            for (i, a) in self.alarms.iter().enumerate() {
                out.push_str(&format!(
                    "  [{}] {} sample {} residual {:+.4} cusum {:.4} ({})\n",
                    i,
                    a.series,
                    a.sample,
                    a.residual,
                    a.cusum,
                    a.direction.as_str()
                ));
            }
        }
        out
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let alarms: Vec<Value> = self
            .alarms
            .iter()
            .map(|a| {
                json_object! {
                    "series": a.series,
                    "sample": a.sample,
                    "residual": a.residual,
                    "ewma": a.ewma,
                    "cusum": a.cusum,
                    "direction": a.direction.as_str(),
                }
            })
            .collect();
        json_object! {
            "records": self.records,
            "open_records": self.open_records,
            "total_alarms": self.total_alarms(),
            "worst_series": self.worst_series().map(|w| &w.series),
            "worst_node": self.worst_node().map(|w| &w.series),
            "series": self.series,
            "alarms": alarms,
        }
        .write()
    }
}

// The report's view of a series: the CUSUM sums stay internal.
json_write!(SeriesSnapshot: series, samples, last_residual, ewma, mean_abs_residual,
    max_abs_residual, alarms);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArgValue;

    fn prediction(bw: f64) -> Prediction {
        Prediction {
            inputs: vec![("ai/a".into(), 0.25)],
            assignment: "a:[2,0]".into(),
            series: vec![
                SeriesValue::new("app/a/bandwidth_gbs", bw),
                SeriesValue::new("node/0/bandwidth_gbs", bw * 2.0),
            ],
        }
    }

    #[test]
    fn residuals_flow_into_metrics_and_timeline() {
        let hub = Arc::new(TelemetryHub::new());
        let obs = ModelObservatory::new(Arc::clone(&hub));
        // A run of decisions whose measurements sit 40% below prediction
        // must eventually raise an alarm and export it everywhere.
        for tick in 0..8u64 {
            let id = obs.open_decision(tick, "test", "assign", prediction(10.0));
            let closed = obs.close_decision(
                id,
                vec![
                    SeriesValue::new("app/a/bandwidth_gbs", 6.0),
                    SeriesValue::new("node/0/bandwidth_gbs", 12.0),
                ],
            );
            assert_eq!(closed.residuals.len(), 2);
        }
        assert!(obs.detector().total_alarms() > 0);
        let prom = hub.registry().to_prometheus();
        assert!(prom.contains("coop_model_residual{series=\"app/a/bandwidth_gbs\"}"));
        assert!(prom.contains("coop_model_drift_alarms{series=\"app/a/bandwidth_gbs\"}"));
        assert!(hub.registry().counter_total(ALARMS_METRIC) > 0);
        let events = hub.events();
        assert!(events.iter().any(|e| e.cat == "provenance"));
        assert!(events.iter().any(|e| e.cat == "drift"));
    }

    /// The packed `provenance/decision` instant reads back as the event
    /// `record_instant_at` stored, and shares its labels with the record.
    #[test]
    fn the_decision_instant_is_the_event_it_always_was() {
        let hub = Arc::new(TelemetryHub::new());
        let obs = ModelObservatory::new(Arc::clone(&hub));
        let command: SeriesKey = "simulate 0.0200s on \"m\"".into();
        let id = obs.open_decision_at(7, "sim", Arc::clone(&command), prediction(1.0), 42);
        let events = hub.events();
        let [event] = &events[..] else {
            panic!("one event, got {events:?}")
        };
        assert_eq!(event.track, obs.track);
        assert_eq!((event.lane, event.ts_us), (0, 42));
        assert_eq!((&*event.cat, &*event.name), ("provenance", "decision"));
        assert_eq!(event.kind, EventKind::Instant);
        let want = vec![
            ("id".to_string(), ArgValue::U64(id)),
            ("tick".to_string(), ArgValue::U64(7)),
            ("source".to_string(), ArgValue::Str("sim".to_string())),
            ("command".to_string(), ArgValue::Str(command.to_string())),
        ];
        assert_eq!(event.args, want);
        let record = obs.records().pop().unwrap();
        assert!(Arc::ptr_eq(&record.command, &command), "shared, not copied");
        assert_eq!(&*record.source, "sim");
    }

    #[test]
    fn drift_alarm_dumps_the_flight_recorder() {
        use crate::recorder::FlightRecorder;

        let hub = Arc::new(TelemetryHub::new());
        let dir = std::env::temp_dir().join(format!(
            "coop-drift-dump-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rec = Arc::new(FlightRecorder::new(256));
        rec.set_dump_dir(&dir);
        assert!(hub.install_flight_recorder(Arc::clone(&rec)));

        let obs = ModelObservatory::new(Arc::clone(&hub));
        for tick in 0..8u64 {
            let id = obs.open_decision(tick, "test", "assign", prediction(10.0));
            obs.close_decision(
                id,
                vec![
                    SeriesValue::new("app/a/bandwidth_gbs", 6.0),
                    SeriesValue::new("node/0/bandwidth_gbs", 12.0),
                ],
            );
        }
        assert!(obs.detector().total_alarms() > 0);
        assert!(rec.dumps() > 0, "each alarm snapshots the recorder");
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            dumps.iter().any(|n| n.starts_with("flight-drift-")),
            "dump files carry the drift reason: {dumps:?}"
        );
        // The dump decodes and contains the drift alarm instants that
        // preceded it.
        let first = dumps.iter().min().unwrap();
        let bytes = std::fs::read(dir.join(first)).unwrap();
        let events = FlightRecorder::decode(&bytes).unwrap();
        assert!(events.iter().any(|e| e.cat == "drift"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn perfect_predictions_raise_nothing() {
        let hub = Arc::new(TelemetryHub::new());
        let obs = ModelObservatory::new(Arc::clone(&hub));
        for tick in 0..20u64 {
            let id = obs.open_decision(tick, "test", "assign", prediction(10.0));
            obs.close_decision(
                id,
                vec![
                    SeriesValue::new("app/a/bandwidth_gbs", 10.0),
                    SeriesValue::new("node/0/bandwidth_gbs", 20.0),
                ],
            );
        }
        assert_eq!(obs.detector().total_alarms(), 0);
        assert_eq!(hub.registry().counter_total(ALARMS_METRIC), 0);
        assert!(!hub.events().iter().any(|e| e.cat == "drift"));
    }

    #[test]
    fn report_text_and_json_roundtrip() {
        let hub = Arc::new(TelemetryHub::new());
        let obs = ModelObservatory::new(Arc::clone(&hub));
        for tick in 0..6u64 {
            let id = obs.open_decision(tick, "t", "cmd", prediction(10.0));
            obs.close_decision(id, vec![SeriesValue::new("app/a/bandwidth_gbs", 5.0)]);
        }
        let report = obs.report();
        let text = report.to_text();
        assert!(text.contains("model-drift report"));
        assert!(text.contains("app/a/bandwidth_gbs"));
        assert!(text.contains("worst series"));
        let v = crate::json::parse(&report.to_json()).expect("report JSON must parse");
        assert_eq!(v["worst_series"], "app/a/bandwidth_gbs");
        assert!(v["total_alarms"].as_u64().unwrap() > 0);
        assert!(v["series"][0]["mean_abs_residual"].as_f64().unwrap() > 0.0);
    }
}
