//! The by-index provenance ledger and the whole-decision drift entry equal
//! the routines they replace, on seeded cases.
//!
//! 1. `ProvenanceLedger::close` returns exactly the residuals of the
//!    reference join — each predicted series paired with the *first* measured
//!    entry of the same key, unmatched series skipped — whatever the two key
//!    lists look like: shared or separately allocated keys, duplicates,
//!    permutations, missing and extra entries.
//! 2. `DriftDetector::observe_decision` leaves the detector and the registry
//!    as one `observe_exporting` per residual does.

use coop_alloc::cases::{check, Gen};
use coop_telemetry::{
    DriftConfig, DriftDetector, MetricsRegistry, Prediction, ProvenanceLedger, Residual, SeriesKey,
    SeriesValue,
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
            assert_eq!(bits_of(&record.residuals), expected);
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
        let mut residuals: Vec<Residual> = Vec::new();
        for _ in 0..g.size(1..24) {
            // Mostly the previous decision's keys again (what a supervised
            // run feeds), sometimes another list; biased far enough from
            // zero that alarms fire.
            if g.bool(0.3) {
                residuals = random_series(g, &pool)
                    .into_iter()
                    .map(|s| Residual {
                        series: s.series,
                        predicted: 1.0,
                        measured: 1.0,
                        relative: 0.0,
                    })
                    .collect();
            }
            for r in &mut residuals {
                r.relative = g.range(-0.2..0.6);
            }
            let alarms = whole.observe_decision(&residuals, Some(&whole_registry));
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
