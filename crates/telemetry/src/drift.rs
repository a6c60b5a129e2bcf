//! Dependency-free model-drift detection over prediction residuals.
//!
//! The roofline model is validated once, offline (the paper's Table III);
//! this module watches it *online*. Every closed decision contributes one
//! relative residual per series (a per-app or per-node predicted-vs-
//! measured pair), and each series runs two classic change detectors:
//!
//! * an **EWMA** of the residual — a smoothed estimate of the current
//!   model bias, cheap to read and export as a gauge;
//! * a two-sided **CUSUM** — cumulative sums `S⁺ = max(0, S⁺ + r − k)`
//!   and `S⁻ = max(0, S⁻ − r − k)` that accumulate only residual mass
//!   beyond the slack `k` and raise an alarm when either side exceeds
//!   the threshold `h`. CUSUM reacts to small persistent shifts that a
//!   fixed residual threshold would miss, while `k` absorbs the
//!   calibration noise floor.
//!
//! Everything here is std-only so the detector can live in the
//! dependency-free telemetry layer underneath every other crate.

use crate::metrics::{Counter, Gauge, MetricsRegistry};
use crate::observatory::{ALARMS_METRIC, RESIDUAL_METRIC};
use crate::provenance::{Residual, SeriesKey};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Maximum number of alarms retained in the in-memory alarm log.
const ALARM_LOG_CAPACITY: usize = 256;

/// Tuning knobs for the [`DriftDetector`].
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// EWMA smoothing factor in `(0, 1]`; larger reacts faster.
    pub ewma_alpha: f64,
    /// CUSUM slack per sample: residual magnitude below `k` is treated
    /// as calibration noise and accumulates nothing.
    pub cusum_k: f64,
    /// CUSUM alarm threshold: an alarm fires when `S⁺` or `S⁻` exceeds
    /// `h`, after which both sums reset.
    pub cusum_h: f64,
    /// Samples a series must accumulate before it may raise alarms
    /// (warm-up; the first residuals of a fresh workload are noisy).
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            ewma_alpha: 0.3,
            cusum_k: 0.05,
            cusum_h: 0.5,
            min_samples: 3,
        }
    }
}

/// Which side of the prediction the drift is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftDirection {
    /// Measurements run persistently above the prediction.
    Above,
    /// Measurements run persistently below the prediction.
    Below,
}

impl DriftDirection {
    /// Short lowercase label (`"above"` / `"below"`).
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            DriftDirection::Above => "above",
            DriftDirection::Below => "below",
        }
    }
}

/// One drift alarm raised by the CUSUM detector.
#[derive(Debug, Clone)]
pub struct DriftAlarm {
    /// Series the alarm fired on (e.g. `node/0/bandwidth_gbs`).
    pub series: SeriesKey,
    /// Per-series sample index (1-based) at which the alarm fired.
    pub sample: u64,
    /// The residual that tipped the sum over the threshold.
    pub residual: f64,
    /// EWMA of the residual at alarm time.
    pub ewma: f64,
    /// Value of the tripped cumulative sum.
    pub cusum: f64,
    /// Side of the prediction the measurements drifted to.
    pub direction: DriftDirection,
}

/// Point-in-time statistics for one residual series.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Series key.
    pub series: String,
    /// Residuals observed so far.
    pub samples: u64,
    /// Most recent residual.
    pub last_residual: f64,
    /// EWMA of the residual (current bias estimate).
    pub ewma: f64,
    /// Mean absolute residual.
    pub mean_abs_residual: f64,
    /// Largest absolute residual seen.
    pub max_abs_residual: f64,
    /// Current upper cumulative sum `S⁺`.
    pub cusum_high: f64,
    /// Current lower cumulative sum `S⁻`.
    pub cusum_low: f64,
    /// Alarms raised on this series.
    pub alarms: u64,
}

#[derive(Debug, Default)]
struct SeriesState {
    samples: u64,
    last: f64,
    ewma: f64,
    abs_sum: f64,
    abs_max: f64,
    s_hi: f64,
    s_lo: f64,
    alarms: u64,
    /// The series' `coop_model_residual` gauge and
    /// `coop_model_drift_alarms` counter, kept for
    /// [`DriftDetector::observe_exporting`]: each is resolved the first
    /// time it has a value to take — the gauge on the first residual, the
    /// counter on the first alarm — so the registry holds what a lookup per
    /// residual would have created.
    residual_gauge: Option<Arc<Gauge>>,
    alarm_counter: Option<Arc<Counter>>,
}

#[derive(Debug, Default)]
struct DetectorInner {
    /// Per-series state, in the order the series were first seen.
    states: Vec<SeriesState>,
    /// Series key → its slot in `states`, in key order.
    index: BTreeMap<SeriesKey, usize>,
    /// The key and slot each residual position last had in a decision fed
    /// to [`DriftDetector::observe_decision`]: a decision that names its
    /// series with the same shared keys, in the same order, finds every
    /// slot without a map lookup. A key's slot never changes, so an entry
    /// stays right however long ago it was written.
    positions: Vec<(SeriesKey, usize)>,
    alarm_log: Vec<DriftAlarm>,
    total_alarms: u64,
}

impl DetectorInner {
    /// The slot of `series` — one map lookup; the state is created under
    /// `key()` on first sight.
    fn slot(&mut self, series: &str, key: impl FnOnce() -> SeriesKey) -> usize {
        if let Some(&slot) = self.index.get(series) {
            return slot;
        }
        let slot = self.states.len();
        self.states.push(SeriesState::default());
        self.index.insert(key(), slot);
        slot
    }

    /// Feeds one residual into the state at `slot`, named `series`,
    /// publishing to `registry` when one is given; returns an alarm if the
    /// CUSUM threshold was crossed on this sample.
    fn update(
        &mut self,
        config: &DriftConfig,
        slot: usize,
        series: &SeriesKey,
        residual: f64,
        registry: Option<&MetricsRegistry>,
    ) -> Option<DriftAlarm> {
        let state = &mut self.states[slot];
        if let Some(registry) = registry {
            state
                .residual_gauge
                .get_or_insert_with(|| registry.gauge(RESIDUAL_METRIC, &[("series", series)]))
                .set(residual);
        }
        state.samples += 1;
        state.last = residual;
        state.abs_sum += residual.abs();
        state.abs_max = state.abs_max.max(residual.abs());
        state.ewma = if state.samples == 1 {
            residual
        } else {
            config.ewma_alpha * residual + (1.0 - config.ewma_alpha) * state.ewma
        };
        state.s_hi = (state.s_hi + residual - config.cusum_k).max(0.0);
        state.s_lo = (state.s_lo - residual - config.cusum_k).max(0.0);

        if state.samples < config.min_samples {
            return None;
        }
        let (cusum, direction) = if state.s_hi > config.cusum_h {
            (state.s_hi, DriftDirection::Above)
        } else if state.s_lo > config.cusum_h {
            (state.s_lo, DriftDirection::Below)
        } else {
            return None;
        };
        // Reset both sums so one sustained shift yields periodic alarms
        // rather than one alarm per subsequent sample.
        state.s_hi = 0.0;
        state.s_lo = 0.0;
        state.alarms += 1;
        self.total_alarms += 1;
        if let Some(registry) = registry {
            state
                .alarm_counter
                .get_or_insert_with(|| registry.counter(ALARMS_METRIC, &[("series", series)]))
                .inc();
        }
        let alarm = DriftAlarm {
            series: series.clone(),
            sample: state.samples,
            residual,
            ewma: state.ewma,
            cusum,
            direction,
        };
        if self.alarm_log.len() < ALARM_LOG_CAPACITY {
            self.alarm_log.push(alarm.clone());
        }
        Some(alarm)
    }
}

/// Per-series EWMA + CUSUM drift detector.
///
/// Thread-safe; a residual, or a decision's residuals, takes one short mutex
/// (the decision path runs at agent-tick frequency, not the task hot path).
#[derive(Debug, Default)]
pub struct DriftDetector {
    config: DriftConfig,
    inner: Mutex<DetectorInner>,
}

impl DriftDetector {
    /// Create a detector with the given tuning.
    pub fn new(config: DriftConfig) -> Self {
        DriftDetector {
            config,
            inner: Mutex::new(DetectorInner::default()),
        }
    }

    /// Relative residual `(measured − predicted) / |predicted|`, with the
    /// denominator floored at `1e-9` so a zero prediction cannot produce
    /// a non-finite residual.
    pub fn relative_residual(predicted: f64, measured: f64) -> f64 {
        (measured - predicted) / predicted.abs().max(1e-9)
    }

    /// Feed one residual into `series`; returns an alarm if the CUSUM
    /// threshold was crossed on this sample.
    pub fn observe(&self, series: &str, residual: f64) -> Option<DriftAlarm> {
        self.observe_exporting(series, residual, None)
    }

    /// [`observe`](DriftDetector::observe), also publishing to `registry`
    /// when one is given: the residual to the series' gauge, an alarm to
    /// its counter, through handles kept with the series' state.
    pub fn observe_exporting(
        &self,
        series: &str,
        residual: f64,
        registry: Option<&MetricsRegistry>,
    ) -> Option<DriftAlarm> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let key = SeriesKey::from(series);
        let slot = inner.slot(series, || key.clone());
        inner.update(&self.config, slot, &key, residual, registry)
    }

    /// Feed every residual of one closed decision, in order, under one
    /// lock — the same states, alarms and exports as one
    /// [`observe_exporting`](DriftDetector::observe_exporting) per residual.
    /// A residual whose key is the very allocation the last decision had at
    /// its position reuses that slot; any other key is looked up. Hands
    /// each alarm raised to `on_alarm`, in residual order, under the lock.
    pub fn observe_decision(
        &self,
        residuals: &[Residual],
        registry: Option<&MetricsRegistry>,
        mut on_alarm: impl FnMut(&DriftAlarm),
    ) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *inner;
        // A position never seen before may well name a series never seen.
        let unseen = residuals.len().saturating_sub(inner.positions.len());
        inner.positions.reserve(unseen);
        inner.states.reserve(unseen);
        for (at, r) in residuals.iter().enumerate() {
            let slot = match inner.positions.get(at) {
                Some((key, slot)) if Arc::ptr_eq(key, &r.series) => *slot,
                _ => {
                    let slot = inner.slot(&r.series, || r.series.clone());
                    let remembered = (r.series.clone(), slot);
                    match inner.positions.get_mut(at) {
                        Some(position) => *position = remembered,
                        None => inner.positions.push(remembered),
                    }
                    slot
                }
            };
            if let Some(alarm) = inner.update(&self.config, slot, &r.series, r.relative, registry) {
                on_alarm(&alarm);
            }
        }
    }

    /// Snapshot of every series, sorted by key.
    pub fn snapshot(&self) -> Vec<SeriesSnapshot> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .index
            .iter()
            .map(|(k, &slot)| (k, &inner.states[slot]))
            .map(|(k, s)| SeriesSnapshot {
                series: k.to_string(),
                samples: s.samples,
                last_residual: s.last,
                ewma: s.ewma,
                mean_abs_residual: if s.samples == 0 {
                    0.0
                } else {
                    s.abs_sum / s.samples as f64
                },
                max_abs_residual: s.abs_max,
                cusum_high: s.s_hi,
                cusum_low: s.s_lo,
                alarms: s.alarms,
            })
            .collect()
    }

    /// The retained alarm log (oldest first, capped at 256 entries).
    pub fn alarm_log(&self) -> Vec<DriftAlarm> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .alarm_log
            .clone()
    }

    /// Total alarms across all series.
    pub fn total_alarms(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .total_alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_noise_raises_no_alarm() {
        let det = DriftDetector::new(DriftConfig::default());
        // Zero-mean noise well inside the slack band.
        for i in 0..200u64 {
            let r = if i % 2 == 0 { 0.02 } else { -0.02 };
            assert!(det.observe("node/0/bandwidth_gbs", r).is_none());
        }
        assert_eq!(det.total_alarms(), 0);
        let snap = &det.snapshot()[0];
        assert_eq!(snap.samples, 200);
        assert!(snap.ewma.abs() < 0.05);
    }

    #[test]
    fn step_change_fires_and_resets() {
        let config = DriftConfig::default();
        let det = DriftDetector::new(config.clone());
        for _ in 0..10 {
            det.observe("s", 0.0);
        }
        // Persistent +20% bias: each sample adds 0.2 - k = 0.15 to S⁺,
        // so the alarm must fire within ceil(h / 0.15) = 4 samples.
        let mut fired_at = None;
        for i in 0..10u64 {
            if let Some(alarm) = det.observe("s", 0.2) {
                assert_eq!(alarm.direction, DriftDirection::Above);
                assert!(alarm.cusum > config.cusum_h);
                fired_at = Some(i);
                break;
            }
        }
        assert!(fired_at.expect("alarm must fire") <= 4);
        // The sums reset after the alarm, so the very next sample cannot
        // immediately re-fire.
        assert!(det.observe("s", 0.2).is_none());
        assert_eq!(det.total_alarms(), 1);
        assert_eq!(det.alarm_log().len(), 1);
    }

    #[test]
    fn negative_drift_reports_below() {
        let det = DriftDetector::new(DriftConfig::default());
        let mut alarm = None;
        for _ in 0..20 {
            if let Some(a) = det.observe("s", -0.3) {
                alarm = Some(a);
                break;
            }
        }
        assert_eq!(alarm.expect("must fire").direction, DriftDirection::Below);
    }

    #[test]
    fn warmup_suppresses_alarms() {
        let det = DriftDetector::new(DriftConfig {
            min_samples: 50,
            ..DriftConfig::default()
        });
        for _ in 0..49 {
            assert!(det.observe("s", 1.0).is_none());
        }
        assert!(det.observe("s", 1.0).is_some());
    }

    #[test]
    fn relative_residual_is_finite_for_zero_prediction() {
        let r = DriftDetector::relative_residual(0.0, 5.0);
        assert!(r.is_finite());
        assert!((DriftDetector::relative_residual(10.0, 12.0) - 0.2).abs() < 1e-12);
    }
}
