//! Property tests for the drift detector's statistical behavior.
//!
//! Two properties from the model-drift observatory spec:
//!
//! 1. **Bounded false-alarm rate.** On stationary residual streams (zero-mean
//!    noise whose amplitude stays within the CUSUM slack band), the detector
//!    must stay quiet: the empirical false-alarm rate across many independent
//!    series must remain below a small bound.
//! 2. **Prompt step detection.** When a stationary stream acquires a
//!    persistent bias well above the slack, the detector must alarm within a
//!    predictable number of samples (the CUSUM ramp `h / (bias - k)` plus the
//!    warm-up allowance).

use coop_alloc::cases::{check, Gen};
use coop_telemetry::{DriftConfig, DriftDetector};

const CASES: usize = 32;

/// Uniform noise in `[-amp, amp]` from the case's stream.
fn noise(g: &mut Gen, amp: f64) -> f64 {
    (g.rng().gen::<f64>() * 2.0 - 1.0) * amp
}

/// Stationary noise within the slack band never accumulates: across 16
/// independent series x 256 samples the false-alarm rate stays below
/// 0.1% (in fact it is zero for in-band noise, but the property pins
/// the rate bound the ISSUE asks for, not the mechanism).
#[test]
fn stationary_false_alarm_rate_is_bounded() {
    check(1, CASES, |g| {
        let amp = g.range(0.0..0.045);
        let config = DriftConfig::default(); // k = 0.05, h = 0.5
        assert!(amp < config.cusum_k);
        let detector = DriftDetector::new(config);
        let series: Vec<String> = (0..16).map(|i| format!("app/a{i}/gflops")).collect();
        let mut samples = 0u64;
        for _ in 0..256 {
            for s in &series {
                detector.observe(s, noise(g, amp));
                samples += 1;
            }
        }
        let rate = detector.total_alarms() as f64 / samples as f64;
        assert!(
            rate < 0.001,
            "false-alarm rate {rate} (alarms={})",
            detector.total_alarms()
        );
    });
}

/// A persistent bias of at least 4x the slack is detected within the
/// CUSUM ramp time: ceil(h / (bias - k)) samples of signal, plus the
/// min_samples warm-up and one sample of noise margin.
#[test]
fn step_change_is_detected_within_ramp_bound() {
    check(2, CASES, |g| {
        let bias = g.range(0.2..1.0);
        let sign = g.bool(0.5);
        let config = DriftConfig::default();
        let detector = DriftDetector::new(config.clone());
        let noise_amp = 0.02;
        let bias = if sign { bias } else { -bias };

        // Stationary prefix: quiet.
        for _ in 0..64 {
            detector.observe("node/0/bandwidth_gbs", noise(g, noise_amp));
        }
        assert_eq!(detector.total_alarms(), 0);

        // Step: each post-step sample adds at least |bias| - noise - k to
        // the relevant CUSUM sum, so the ramp to h is bounded.
        let per_sample = bias.abs() - noise_amp - config.cusum_k;
        let ramp = (config.cusum_h / per_sample).ceil() as u64;
        let budget = ramp + config.min_samples + 1;
        let mut detected_at = None;
        for i in 0..budget {
            if detector
                .observe("node/0/bandwidth_gbs", bias + noise(g, noise_amp))
                .is_some()
            {
                detected_at = Some(i + 1);
                break;
            }
        }
        assert!(
            detected_at.is_some(),
            "no alarm within {budget} samples after a bias of {bias}"
        );
    });
}
