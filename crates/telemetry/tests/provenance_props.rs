//! The by-index provenance ledger and the whole-decision entries equal the
//! routines they replace, on seeded cases.
//!
//! 1. `ProvenanceLedger::close` returns exactly the residuals of the
//!    reference join — each predicted series paired with the *first* measured
//!    entry of the same key, unmatched series skipped — whatever the two key
//!    lists look like: shared or separately allocated keys, duplicates,
//!    permutations, missing and extra entries. The closed record derives the
//!    same residuals from what it keeps.
//! 2. `DriftDetector::observe_decision` leaves the detector and the registry
//!    as one `observe_exporting` per residual does, over decision sequences
//!    whose keys reorder, repeat, appear and vanish, and come back as
//!    separately allocated keys of equal content.
//! 3. `Histogram::observe_all` leaves the histogram as one `observe` per
//!    value does, sums that wrap included.

use coop_alloc::cases::{check, Gen};
use coop_telemetry::{
    DriftConfig, DriftDetector, Histogram, MetricsRegistry, Prediction, ProvenanceLedger, Residual,
    SeriesKey, SeriesValue,
};

const CASES: usize = 400;

/// A few keys, so that random draws repeat them.
fn key_pool() -> Vec<SeriesKey> {
    [
        "app/a/gflops",
        "app/b/gflops",
        "node/0/bw",
        "node/1/bw",
        "x",
    ]
    .map(SeriesKey::from)
    .to_vec()
}

/// `key` as the pool's allocation or as an equal key of its own.
fn shared_or_fresh(g: &mut Gen, key: &SeriesKey) -> SeriesKey {
    if g.bool(0.5) {
        key.clone()
    } else {
        SeriesKey::from(&**key)
    }
}

fn random_series(g: &mut Gen, pool: &[SeriesKey]) -> Vec<SeriesValue> {
    g.vec(0..8, |g| {
        let key = g.pick(pool).clone();
        SeriesValue::new(shared_or_fresh(g, &key), g.range(-4.0..4.0))
    })
}

/// First match wins, unmatched skipped.
fn reference_join(predicted: &[SeriesValue], measured: &[SeriesValue]) -> Vec<(String, [u64; 3])> {
    predicted
        .iter()
        .filter_map(|p| {
            let m = measured.iter().find(|m| *m.series == *p.series)?;
            let relative = DriftDetector::relative_residual(p.value, m.value);
            Some((
                p.series.to_string(),
                [p.value, m.value, relative].map(f64::to_bits),
            ))
        })
        .collect()
}

fn bits_of(residuals: &[Residual]) -> Vec<(String, [u64; 3])> {
    residuals
        .iter()
        .map(|r| {
            (
                r.series.to_string(),
                [r.predicted, r.measured, r.relative].map(f64::to_bits),
            )
        })
        .collect()
}

#[test]
fn close_returns_the_reference_join() {
    check(0x10_1ed6e4, CASES, |g| {
        let pool = key_pool();
        let ledger = ProvenanceLedger::new(4);
        let mut predicted = random_series(g, &pool);
        // Several decisions on one ledger, each found by its index.
        for tick in 0..g.size(1..6) as u64 {
            match g.range(0..4u8) {
                // The same keys again (clones), other values.
                0 => predicted
                    .iter_mut()
                    .for_each(|p| p.value = g.range(-4.0..4.0)),
                // One key replaced in place: same length, maybe a duplicate.
                1 if !predicted.is_empty() => {
                    let at = g.range(0..predicted.len());
                    predicted[at].series = g.pick(&pool).clone();
                }
                _ => predicted = random_series(g, &pool),
            }
            let mut measured: Vec<SeriesValue> = match g.range(0..3u8) {
                // Key for key what was predicted.
                0 => predicted
                    .iter()
                    .map(|p| SeriesValue::new(shared_or_fresh(g, &p.series), g.range(-4.0..4.0)))
                    .collect(),
                _ => random_series(g, &pool),
            };
            if g.bool(0.3) && !measured.is_empty() {
                // A permutation, or a missing entry, or an extra one.
                let at = g.range(0..measured.len());
                match g.range(0..3u8) {
                    0 => measured.swap(0, at),
                    1 => drop(measured.remove(at)),
                    _ => measured.push(SeriesValue::new(g.pick(&pool).clone(), 9.0)),
                }
            }
            let expected = reference_join(&predicted, &measured);
            let prediction = Prediction {
                series: predicted.clone(),
                ..Prediction::default()
            };
            let id = ledger.open(tick, "case", "cmd", prediction, tick);
            let residuals = ledger
                .close(id, measured.clone(), tick + 1)
                .expect("an open record closes");
            assert_eq!(bits_of(&residuals), expected);
            let record = ledger.records().pop().expect("the record is retained");
            assert_eq!(record.id, id);
            assert_eq!(bits_of(&record.residuals()), expected);
            // A series' residual is its first one.
            for (series, _) in &expected {
                let r = record.residual_for(series).expect("a joined series");
                let first = expected.iter().find(|(s, _)| s == series).unwrap();
                assert_eq!(
                    [r.predicted, r.measured, r.relative].map(f64::to_bits),
                    first.1
                );
            }
            for key in pool
                .iter()
                .filter(|k| expected.iter().all(|(s, _)| **s != ***k))
            {
                assert!(record.residual_for(key).is_none(), "{key} joined nothing");
            }
            assert_eq!(record.measured, measured);
            assert!(
                ledger.close(id, measured, tick + 2).is_none(),
                "closed twice"
            );
        }
        // Four records are retained: anything older is gone.
        let evicted = ledger.open(9, "case", "cmd", Prediction::default(), 0);
        for tick in 10..14 {
            ledger.open(tick, "case", "cmd", Prediction::default(), 0);
        }
        assert!(ledger.close(evicted, Vec::new(), 1).is_none(), "evicted");
        assert!(
            ledger.close(evicted + 99, Vec::new(), 1).is_none(),
            "unknown"
        );
    });
}

#[test]
fn a_whole_decision_drifts_like_its_residuals_one_at_a_time() {
    check(0xd71f7, CASES, |g| {
        let pool = key_pool();
        let config = DriftConfig {
            min_samples: g.range(1..4),
            ..DriftConfig::default()
        };
        let (whole, whole_registry) = (DriftDetector::new(config.clone()), MetricsRegistry::new());
        let (single, single_registry) = (DriftDetector::new(config), MetricsRegistry::new());
        let residual = |series: SeriesKey| Residual {
            series,
            predicted: 1.0,
            measured: 1.0,
            relative: 0.0,
        };
        let mut residuals: Vec<Residual> = Vec::new();
        for _ in 0..g.size(1..24) {
            // Mostly the previous decision's keys again (what a supervised
            // run feeds), else that list edited, or another list.
            match g.range(0..8u8) {
                0 => {
                    residuals = random_series(g, &pool)
                        .into_iter()
                        .map(|s| residual(s.series))
                        .collect();
                }
                // Two positions trade keys.
                1 if !residuals.is_empty() => {
                    let (a, b) = (g.range(0..residuals.len()), g.range(0..residuals.len()));
                    residuals.swap(a, b);
                }
                // A series vanishes.
                2 if !residuals.is_empty() => {
                    residuals.remove(g.range(0..residuals.len()));
                }
                // A series appears, maybe one already in the list.
                3 => {
                    let key = g.pick(&pool).clone();
                    let at = g.range(0..residuals.len() + 1);
                    residuals.insert(at, residual(shared_or_fresh(g, &key)));
                }
                // Same content, another allocation.
                4 if !residuals.is_empty() => {
                    let at = g.range(0..residuals.len());
                    residuals[at].series = SeriesKey::from(&*residuals[at].series);
                }
                _ => {}
            }
            // Biased far enough from zero that alarms fire.
            for r in &mut residuals {
                r.relative = g.range(-0.2..0.6);
            }
            let mut alarms = Vec::new();
            whole.observe_decision(&residuals, Some(&whole_registry), |alarm| {
                alarms.push(alarm.clone());
            });
            let one_by_one: Vec<_> = residuals
                .iter()
                .filter_map(|r| {
                    single.observe_exporting(&r.series, r.relative, Some(&single_registry))
                })
                .collect();
            assert_eq!(format!("{alarms:?}"), format!("{one_by_one:?}"));
        }
        assert_eq!(
            format!("{:?}", whole.snapshot()),
            format!("{:?}", single.snapshot())
        );
        assert_eq!(
            format!("{:?}", whole.alarm_log()),
            format!("{:?}", single.alarm_log())
        );
        assert_eq!(whole.total_alarms(), single.total_alarms());
        let sum: u64 = whole.snapshot().iter().map(|s| s.alarms).sum();
        assert_eq!(whole.total_alarms(), sum, "the counter is the sum");
        assert_eq!(
            whole_registry.to_prometheus(),
            single_registry.to_prometheus()
        );
    });
}

#[test]
fn a_whole_decision_observes_like_its_values_one_at_a_time() {
    check(0x0b5e_a110, CASES, |g| {
        let (whole, single) = (Histogram::default(), Histogram::default());
        for _ in 0..g.size(1..6) {
            // Small values, bucket edges, and values near `u64::MAX`, so
            // that sums wrap.
            let values = g.vec(0..16, |g| match g.range(0..3u8) {
                0 => g.range(0..200u64),
                1 => 1u64 << g.range(0..64u32),
                _ => u64::MAX - g.range(0..1000u64),
            });
            whole.observe_all(values.iter().copied());
            for &v in &values {
                single.observe(v);
            }
        }
        let (w, s) = (whole.snapshot(), single.snapshot());
        assert_eq!((w.buckets, w.count, w.sum), (s.buckets, s.count, s.sum));
    });
}
