//! Decision provenance: what the model believed when it acted, and what
//! actually happened.
//!
//! Every agent decision (or simulated decision tick) opens a
//! [`ProvenanceRecord`] carrying the model inputs and the model's
//! predicted per-app / per-node series. When the decision's lifetime ends
//! (the next tick, or the end of a simulation segment), the record is
//! **back-filled** with the realized outcome, and the per-series relative
//! residuals follow from the two. The ledger is the raw material for the
//! drift detector and the `coop drift` report: it can explain every
//! reallocation the system made, in terms of what was expected and what
//! was measured.

use crate::json::{ToJson, Value};
use crate::{json_object, json_write};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A series key — or another label a decision carries from tick to tick —
/// as a shared string: a clone is a reference-count increment, so a caller
/// formats a key once and hands clones to every prediction, measurement and
/// residual of a run. Compared by content.
pub type SeriesKey = Arc<str>;

/// One named scalar in a prediction or a measured outcome.
///
/// Series keys are hierarchical strings, by convention
/// `app/<name>/<quantity>` or `node/<index>/<quantity>`, e.g.
/// `app/mem1/bandwidth_gbs` or `node/0/bandwidth_gbs`. Predicted and
/// measured values join on these keys to produce residuals.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesValue {
    /// Hierarchical series key.
    pub series: SeriesKey,
    /// The value.
    pub value: f64,
}

impl SeriesValue {
    /// Convenience constructor.
    pub fn new(series: impl Into<SeriesKey>, value: f64) -> Self {
        SeriesValue {
            series: series.into(),
            value,
        }
    }
}

/// A model prediction attached to a decision at open time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Prediction {
    /// Model inputs the prediction was computed from (app arithmetic
    /// intensities, thread counts, …), as labelled scalars.
    pub inputs: Vec<(SeriesKey, f64)>,
    /// Human-readable core/node assignment the model evaluated.
    pub assignment: SeriesKey,
    /// Predicted per-app / per-node series values.
    pub series: Vec<SeriesValue>,
}

impl Prediction {
    /// Look up a predicted value by series key.
    pub fn value(&self, series: &str) -> Option<f64> {
        self.series
            .iter()
            .find(|s| &*s.series == series)
            .map(|s| s.value)
    }
}

/// A predicted/measured pair and its relative residual.
#[derive(Debug, Clone)]
pub struct Residual {
    /// Series key the pair joined on.
    pub series: SeriesKey,
    /// Predicted value.
    pub predicted: f64,
    /// Measured value.
    pub measured: f64,
    /// `(measured − predicted) / |predicted|`.
    pub relative: f64,
}

/// One decision's provenance: prediction at open, outcome at close.
#[derive(Debug, Clone)]
pub struct ProvenanceRecord {
    /// Ledger-unique id.
    pub id: u64,
    /// Agent tick (or simulated decision index) the decision fired on.
    pub tick: u64,
    /// Where the decision was applied (runtime name or scenario name).
    pub source: SeriesKey,
    /// The command that was applied, rendered as text.
    pub command: SeriesKey,
    /// Hub-clock microseconds at open.
    pub opened_us: u64,
    /// The model's prediction at open time, shared with the caller that
    /// made it (a run whose prediction does not change hands every record
    /// the same one).
    pub prediction: Arc<Prediction>,
    /// Realized outcome series (empty until the record is closed).
    pub measured: Vec<SeriesValue>,
    /// Hub-clock microseconds at close, if closed.
    pub closed_us: Option<u64>,
}

impl ProvenanceRecord {
    /// Whether the outcome has been back-filled.
    pub fn is_closed(&self) -> bool {
        self.closed_us.is_some()
    }

    /// The per-series residuals: one per predicted series that has a
    /// matching measured key (the first one, when `measured` names a key
    /// twice), in prediction order — what [`ProvenanceLedger::close`]
    /// returned. Empty until the record is closed.
    pub fn residuals(&self) -> Vec<Residual> {
        join(&self.prediction.series, &self.measured)
    }

    /// The residual for `series`, if present.
    pub fn residual_for(&self, series: &str) -> Option<Residual> {
        let predicted = self
            .prediction
            .series
            .iter()
            .find(|p| &*p.series == series)?;
        residual(predicted, &self.measured)
    }
}

/// The residual of `predicted` against the first measured entry of its key.
fn residual(predicted: &SeriesValue, measured: &[SeriesValue]) -> Option<Residual> {
    let m = measured.iter().find(|m| m.series == predicted.series)?;
    Some(Residual {
        series: predicted.series.clone(),
        predicted: predicted.value,
        measured: m.value,
        relative: crate::drift::DriftDetector::relative_residual(predicted.value, m.value),
    })
}

/// One residual per predicted series with a measured counterpart, in
/// prediction order.
fn join(predicted: &[SeriesValue], measured: &[SeriesValue]) -> Vec<Residual> {
    // Sized for every predicted series: one allocation, not a doubling
    // per few residuals.
    let mut residuals = Vec::with_capacity(predicted.len());
    residuals.extend(predicted.iter().filter_map(|p| residual(p, measured)));
    residuals
}

#[derive(Debug, Default)]
struct LedgerInner {
    /// Retained records, ids ascending and consecutive: ids are drawn under
    /// the lock that appends, so record `id` sits at `id − front.id`.
    records: VecDeque<ProvenanceRecord>,
    /// The id drawn last (the first is 1).
    last_id: u64,
}

/// Bounded ledger of [`ProvenanceRecord`]s with open → back-fill
/// lifecycle. Oldest records are evicted once `capacity` is exceeded.
#[derive(Debug)]
pub struct ProvenanceLedger {
    capacity: usize,
    inner: Mutex<LedgerInner>,
}

impl Default for ProvenanceLedger {
    fn default() -> Self {
        Self::new(1024)
    }
}

impl ProvenanceLedger {
    /// Create a ledger retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        ProvenanceLedger {
            capacity: capacity.max(1),
            inner: Mutex::new(LedgerInner::default()),
        }
    }

    /// Open a record for a decision; returns its id. A caller that keeps
    /// `source` or `command` as a [`SeriesKey`], or the prediction in an
    /// [`Arc`], shares it with the record.
    pub fn open(
        &self,
        tick: u64,
        source: impl Into<SeriesKey>,
        command: impl Into<SeriesKey>,
        prediction: impl Into<Arc<Prediction>>,
        opened_us: u64,
    ) -> u64 {
        let (source, command, prediction) = (source.into(), command.into(), prediction.into());
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.last_id += 1;
        let id = inner.last_id;
        if inner.records.len() >= self.capacity {
            inner.records.pop_front();
        }
        inner.records.push_back(ProvenanceRecord {
            id,
            tick,
            source,
            command,
            opened_us,
            prediction,
            measured: Vec::new(),
            closed_us: None,
        });
        id
    }

    /// Back-fill record `id` with the realized outcome. Returns its
    /// residuals ([`ProvenanceRecord::residuals`]; the record keeps what
    /// they are derived from, not the residuals), or `None` if the id is
    /// unknown (e.g. already evicted) or already closed.
    pub fn close(
        &self,
        id: u64,
        measured: Vec<SeriesValue>,
        closed_us: u64,
    ) -> Option<Vec<Residual>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let records = &mut inner.records;
        let at = usize::try_from(id.checked_sub(records.front()?.id)?).ok()?;
        let record = records
            .get_mut(at)
            .filter(|r| r.id == id && !r.is_closed())?;
        let residuals = join(&record.prediction.series, &measured);
        record.measured = measured;
        record.closed_us = Some(closed_us);
        Some(residuals)
    }

    /// Copies of all retained records, oldest first.
    pub fn records(&self) -> Vec<ProvenanceRecord> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.records.iter().cloned().collect()
    }

    /// Number of retained records.
    pub(crate) fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .records
            .len()
    }

    /// Whether the ledger holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of retained records still awaiting back-fill.
    pub(crate) fn open_count(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.records.iter().filter(|r| !r.is_closed()).count()
    }

    /// Render the ledger as a JSON array of records.
    pub fn to_json(&self) -> String {
        self.records().to_value().write()
    }
}

json_write!(SeriesValue: series, value);
json_write!(Residual: series, predicted, measured, relative);

impl ToJson for ProvenanceRecord {
    fn to_value(&self) -> Value {
        json_object! {
            "id": self.id,
            "tick": self.tick,
            "source": self.source,
            "command": self.command,
            "opened_us": self.opened_us,
            "assignment": self.prediction.assignment,
            "inputs": Value::object(&self.prediction.inputs),
            "predicted": self.prediction.series,
            "measured": self.measured,
            "residuals": self.residuals(),
            "closed_us": self.closed_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prediction() -> Prediction {
        Prediction {
            inputs: vec![("ai/app_a".into(), 0.25)],
            assignment: "a:[2,0] b:[0,2]".into(),
            series: vec![
                SeriesValue::new("app/a/bandwidth_gbs", 10.0),
                SeriesValue::new("node/0/bandwidth_gbs", 20.0),
            ],
        }
    }

    #[test]
    fn open_close_lifecycle() {
        let ledger = ProvenanceLedger::new(8);
        let id = ledger.open(3, "scenario", "assign a:[2,0]", prediction(), 100);
        assert_eq!(ledger.open_count(), 1);

        let residuals = ledger
            .close(
                id,
                vec![
                    SeriesValue::new("app/a/bandwidth_gbs", 8.0),
                    SeriesValue::new("node/0/bandwidth_gbs", 20.0),
                    SeriesValue::new("node/1/bandwidth_gbs", 5.0), // unmatched
                ],
                200,
            )
            .expect("close must succeed");
        let closed = ledger.records().pop().unwrap();
        assert!(closed.is_closed());
        assert_eq!(ledger.open_count(), 0);
        assert_eq!(residuals.len(), 2);
        assert_eq!(closed.residuals().len(), 2);
        let r = closed.residual_for("app/a/bandwidth_gbs").unwrap();
        assert!((r.relative - (-0.2)).abs() < 1e-12);
        assert_eq!(
            closed
                .residual_for("node/0/bandwidth_gbs")
                .unwrap()
                .relative,
            0.0
        );
        // Double close is rejected.
        assert!(ledger.close(id, Vec::new(), 300).is_none());
        // Unknown id is rejected.
        assert!(ledger.close(999, Vec::new(), 300).is_none());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let ledger = ProvenanceLedger::new(2);
        let a = ledger.open(0, "s", "c", Prediction::default(), 0);
        let _b = ledger.open(1, "s", "c", Prediction::default(), 1);
        let _c = ledger.open(2, "s", "c", Prediction::default(), 2);
        assert_eq!(ledger.len(), 2);
        assert!(ledger.close(a, Vec::new(), 3).is_none(), "evicted id");
        assert_eq!(ledger.records()[0].tick, 1);
    }

    /// Ids are drawn under the lock that appends: however opens interleave,
    /// the ring stays id-ascending and every id finds its own record.
    #[test]
    fn concurrent_opens_keep_records_in_id_order() {
        let ledger = ProvenanceLedger::new(8192);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (ledger, start) = (&ledger, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..1000 {
                        let id = ledger.open(t * 1000 + i, "s", "c", prediction(), 0);
                        let tick = SeriesValue::new("tick", (t * 1000 + i) as f64);
                        assert!(ledger.close(id, vec![tick], 1).is_some(), "id {id}");
                    }
                });
            }
        });
        let records = ledger.records();
        assert_eq!(records.len(), 4000);
        assert!(records.windows(2).all(|w| w[0].id < w[1].id));
        // Each close reached the record its own open made.
        assert!(records
            .iter()
            .all(|r| r.is_closed() && r.measured[0].value == r.tick as f64));
        assert!(ledger.close(records[17].id, Vec::new(), 2).is_none());
    }

    #[test]
    fn ledger_json_is_valid() {
        let ledger = ProvenanceLedger::new(4);
        let id = ledger.open(0, "src\"quoted\"", "cmd\nline", prediction(), 7);
        ledger.close(id, vec![SeriesValue::new("app/a/bandwidth_gbs", 9.0)], 9);
        let json = ledger.to_json();
        let v = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(v[0]["source"], "src\"quoted\"");
        assert_eq!(v[0]["residuals"][0]["series"], "app/a/bandwidth_gbs");
        assert_eq!(v[0]["closed_us"], 9);
    }
}
