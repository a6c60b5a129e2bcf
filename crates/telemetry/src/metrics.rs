//! Lock-free metric primitives and the [`MetricsRegistry`].
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`s over
//! atomics: callers resolve them once (name + label set) and then update
//! them from hot paths with single atomic RMW operations. The registry
//! itself takes a mutex only on registration and export.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of log₂ buckets in a [`Histogram`]. Bucket `i` counts samples
/// with value `<= 2^i` (bucket 0 covers 0 and 1); the last bucket is
/// unbounded.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding an arbitrary `f64` (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram with [`HISTOGRAM_BUCKETS`] log₂ buckets.
///
/// Values are unsigned integers (the workspace records durations in
/// microseconds and sizes in bytes, so this covers everything from 1 µs
/// to ~36 minutes / 4 GiB in the bounded buckets). `observe` is three
/// relaxed atomic adds — no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Index of the log₂ bucket for `v`: smallest `i` with `v <= 2^i`,
/// clamped to the last bucket.
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        // ceil(log2(v)) for v >= 2.
        let idx = (64 - (v - 1).leading_zeros()) as usize;
        idx.min(HISTOGRAM_BUCKETS - 1)
    }
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record every sample of `values`: the buckets, count and (wrapping)
    /// sum one [`observe`](Histogram::observe) per value leaves, with one
    /// atomic add per bucket touched.
    pub fn observe_all(&self, values: impl IntoIterator<Item = u64>) {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let (mut count, mut sum) = (0u64, 0u64);
        for v in values {
            buckets[bucket_index(v)] += 1;
            count += 1;
            sum = sum.wrapping_add(v);
        }
        if count == 0 {
            return;
        }
        for (bucket, n) in self.buckets.iter().zip(buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Consistent-enough snapshot for export (buckets read individually
    /// with relaxed loads; exact consistency is not required for
    /// monitoring output).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`]'s state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) sample counts; bucket `i` covers
    /// values in `(2^(i-1), 2^i]` (bucket 0 covers `[0, 1]`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the log₂ bucket containing the target rank.
    ///
    /// Bucket `i` covers `(2^(i-1), 2^i]` (bucket 0 covers `[0, 1]`), so
    /// the estimate interpolates between those bounds by the rank's
    /// position within the bucket. The last bucket is unbounded; samples
    /// landing there are attributed to `[2^30, 2^31]`, which keeps the
    /// estimate finite. Returns 0 for an empty histogram.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            if *bucket == 0 {
                continue;
            }
            let prev = cumulative as f64;
            cumulative += bucket;
            if cumulative as f64 >= target {
                let lo = if i == 0 {
                    0.0
                } else {
                    (1u64 << (i - 1)) as f64
                };
                let hi = (1u64 << i) as f64;
                let fraction = ((target - prev) / *bucket as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * fraction;
            }
        }
        // Unreachable unless the snapshot is torn; fall back to the mean.
        self.mean()
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    pub(crate) fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate (see [`HistogramSnapshot::quantile`]).
    pub(crate) fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate (see [`HistogramSnapshot::quantile`]).
    pub(crate) fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// A label set: `(name, value)` pairs.
type Labels = Vec<(String, String)>;

/// A metric identity: name plus a sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Labels,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, Arc<Counter>>,
    gauges: BTreeMap<MetricKey, Arc<Gauge>>,
    histograms: BTreeMap<MetricKey, Arc<Histogram>>,
    help: BTreeMap<String, String>,
}

/// Registry of named metrics with get-or-create semantics.
///
/// The registry mutex is only held while resolving or exporting metrics,
/// never on the update path.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Unique per registry in this process, never reused (an address
    /// would be): what a cache of resolved handles is keyed by.
    id: u64,
    inner: Mutex<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        MetricsRegistry {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::default(),
        }
    }
}

fn lock_inner(registry: &MetricsRegistry) -> MutexGuard<'_, RegistryInner> {
    registry.inner.lock().unwrap_or_else(|e| e.into_inner())
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Identity of this registry: holders of resolved handles compare it
    /// to notice that they are being asked to publish somewhere else.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        Arc::clone(lock_inner(self).counters.entry(key).or_default())
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::new(name, labels);
        Arc::clone(lock_inner(self).gauges.entry(key).or_default())
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        Arc::clone(lock_inner(self).histograms.entry(key).or_default())
    }

    /// Attach a `# HELP` line to `name` (shown in Prometheus output).
    pub fn set_help(&self, name: &str, help: &str) {
        lock_inner(self)
            .help
            .insert(name.to_string(), help.to_string());
    }

    /// Current value of the gauge `name{labels}`, or `None` if that exact
    /// label set was never created (useful in tests and health probes —
    /// unlike [`MetricsRegistry::gauge`], this never creates the series).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = MetricKey::new(name, labels);
        lock_inner(self).gauges.get(&key).map(|g| g.get())
    }

    /// Sum of a counter across all label sets sharing `name` (useful in
    /// tests and summaries).
    pub fn counter_total(&self, name: &str) -> u64 {
        lock_inner(self)
            .counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, c)| c.get())
            .sum()
    }

    /// Render the registry in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let inner = lock_inner(self);
        let mut out = String::new();
        let mut last_name = String::new();

        let header = |out: &mut String, last: &mut String, name: &str, kind: &str| {
            if *last != name {
                if let Some(help) = inner.help.get(name) {
                    out.push_str(&format!("# HELP {} {}\n", name, escape_help(help)));
                }
                out.push_str(&format!("# TYPE {} {}\n", name, kind));
                *last = name.to_string();
            }
        };

        for (key, counter) in &inner.counters {
            header(&mut out, &mut last_name, &key.name, "counter");
            out.push_str(&key.name);
            push_labels(&mut out, &key.labels, None);
            out.push_str(&format!(" {}\n", counter.get()));
        }
        for (key, gauge) in &inner.gauges {
            header(&mut out, &mut last_name, &key.name, "gauge");
            out.push_str(&key.name);
            push_labels(&mut out, &key.labels, None);
            let mut value = String::new();
            crate::json::push_f64(&mut value, gauge.get());
            out.push_str(&format!(" {}\n", value));
        }
        // Quantile gauges are derived per histogram key but emitted after
        // all `<name>_bucket` families so each `# TYPE` header appears
        // exactly once per family.
        let mut quantile_rows: Vec<(String, Labels, &'static str, f64)> = Vec::new();
        for (key, histogram) in &inner.histograms {
            header(&mut out, &mut last_name, &key.name, "histogram");
            let snap = histogram.snapshot();
            let mut cumulative = 0u64;
            for (i, bucket) in snap.buckets.iter().enumerate() {
                cumulative += bucket;
                // Skip interior empty buckets to keep the exposition
                // readable, but always emit the first bucket so the series
                // is non-empty.
                if *bucket == 0 && i != 0 {
                    continue;
                }
                out.push_str(&format!("{}_bucket", key.name));
                push_labels(&mut out, &key.labels, Some(&format!("{}", 1u64 << i)));
                out.push_str(&format!(" {}\n", cumulative));
            }
            out.push_str(&format!("{}_bucket", key.name));
            push_labels(&mut out, &key.labels, Some("+Inf"));
            out.push_str(&format!(" {}\n", snap.count));
            out.push_str(&format!("{}_sum", key.name));
            push_labels(&mut out, &key.labels, None);
            out.push_str(&format!(" {}\n", snap.sum));
            out.push_str(&format!("{}_count", key.name));
            push_labels(&mut out, &key.labels, None);
            out.push_str(&format!(" {}\n", snap.count));
            for (q, v) in [
                ("0.5", snap.p50()),
                ("0.9", snap.p90()),
                ("0.99", snap.p99()),
            ] {
                quantile_rows.push((format!("{}_quantile", key.name), key.labels.clone(), q, v));
            }
        }
        for (name, labels, q, v) in quantile_rows {
            header(&mut out, &mut last_name, &name, "gauge");
            out.push_str(&name);
            let mut labels = labels;
            labels.push(("quantile".to_string(), q.to_string()));
            push_labels(&mut out, &labels, None);
            let mut value = String::new();
            crate::json::push_f64(&mut value, v);
            out.push_str(&format!(" {}\n", value));
        }
        out
    }

    /// All metrics flattened into `(name, labels, value)` rows for the
    /// JSON summary. Histograms contribute `<name>_count`, `<name>_sum`
    /// and `<name>_mean` rows.
    pub(crate) fn summary_rows(&self) -> Vec<(String, Labels, f64)> {
        let inner = lock_inner(self);
        let mut rows = Vec::new();
        for (key, counter) in &inner.counters {
            rows.push((key.name.clone(), key.labels.clone(), counter.get() as f64));
        }
        for (key, gauge) in &inner.gauges {
            rows.push((key.name.clone(), key.labels.clone(), gauge.get()));
        }
        for (key, histogram) in &inner.histograms {
            let snap = histogram.snapshot();
            rows.push((
                format!("{}_count", key.name),
                key.labels.clone(),
                snap.count as f64,
            ));
            rows.push((
                format!("{}_sum", key.name),
                key.labels.clone(),
                snap.sum as f64,
            ));
            rows.push((
                format!("{}_mean", key.name),
                key.labels.clone(),
                snap.mean(),
            ));
            rows.push((format!("{}_p50", key.name), key.labels.clone(), snap.p50()));
            rows.push((format!("{}_p90", key.name), key.labels.clone(), snap.p90()));
            rows.push((format!("{}_p99", key.name), key.labels.clone(), snap.p99()));
        }
        rows
    }
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote and line feed must be backslash-escaped.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escape `# HELP` text per the Prometheus text exposition format:
/// backslash and line feed must be backslash-escaped (quotes are legal
/// in help text and stay as-is).
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Append a Prometheus label block (`{a="b",le="4"}`) to `out`. `le` is
/// the extra bucket label for histogram series.
fn push_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{}=\"{}\"", k, escape_label_value(v)));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{}\"", le));
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("coop_steals_total", &[("runtime", "a")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name+labels resolves to the same handle.
        assert_eq!(
            reg.counter("coop_steals_total", &[("runtime", "a")]).get(),
            5
        );
        // Label order does not matter.
        let c2 = reg.counter("x", &[("a", "1"), ("b", "2")]);
        c2.inc();
        assert_eq!(reg.counter("x", &[("b", "2"), ("a", "1")]).get(), 1);

        let g = reg.gauge("coop_util", &[]);
        g.set(0.75);
        assert!((g.get() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_and_sum() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5106);
        let snap = h.snapshot();
        assert_eq!(snap.buckets.iter().sum::<u64>(), 6);
        assert_eq!(snap.buckets[0], 2); // 0 and 1
        assert!((snap.mean() - 851.0).abs() < 1e-9);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.set_help("coop_task_latency_us", "Task body execution latency");
        let h = reg.histogram("coop_task_latency_us", &[("runtime", "prod")]);
        h.observe(3);
        h.observe(3000);
        reg.counter("coop_steals_total", &[]).add(2);
        reg.gauge("coop_node_utilization", &[("node", "0")])
            .set(0.5);

        let text = reg.to_prometheus();
        assert!(text.contains("# HELP coop_task_latency_us Task body execution latency"));
        assert!(text.contains("# TYPE coop_task_latency_us histogram"));
        assert!(
            text.contains("coop_task_latency_us_bucket{le=\"1\",runtime=\"prod\"}")
                || text.contains("coop_task_latency_us_bucket{runtime=\"prod\",le=\"1\"}")
        );
        assert!(text.contains("coop_task_latency_us_bucket{runtime=\"prod\",le=\"+Inf\"} 2"));
        assert!(text.contains("coop_task_latency_us_sum{runtime=\"prod\"} 3003"));
        assert!(text.contains("coop_task_latency_us_count{runtime=\"prod\"} 2"));
        assert!(text.contains("# TYPE coop_steals_total counter"));
        assert!(text.contains("coop_steals_total 2"));
        assert!(text.contains("coop_node_utilization{node=\"0\"} 0.5"));
    }

    #[test]
    fn histogram_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[]);
        h.observe(1); // bucket 0 (le=1)
        h.observe(2); // bucket 1 (le=2)
        h.observe(8); // bucket 3 (le=8)
        let text = reg.to_prometheus();
        assert!(text.contains("lat_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("lat_bucket{le=\"8\"} 3\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"));
    }

    #[test]
    fn quantiles_on_known_distributions() {
        // Uniform 1..=1024: every power-of-two bucket 1..=10 holds half
        // the mass of the next one; the interpolated quantiles must land
        // within one bucket width of the exact order statistics.
        let h = Histogram::default();
        for v in 1..=1024u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        let exact = |q: f64| q * 1024.0;
        for q in [0.5, 0.9, 0.99] {
            let est = snap.quantile(q);
            let e = exact(q);
            // Log₂ buckets bound the estimate to a factor of 2.
            assert!(est >= e / 2.0 && est <= e * 2.0, "q={q}: est {est} vs {e}");
        }
        // A point mass: all quantiles collapse into the sample's bucket.
        let h = Histogram::default();
        for _ in 0..100 {
            h.observe(700); // bucket (512, 1024]
        }
        let snap = h.snapshot();
        for q in [0.01, 0.5, 0.99] {
            let est = snap.quantile(q);
            assert!((512.0..=1024.0).contains(&est), "q={q}: {est}");
        }
        assert!(snap.p50() <= snap.p90() && snap.p90() <= snap.p99());
        // Empty histogram reports 0.
        assert_eq!(Histogram::default().snapshot().quantile(0.5), 0.0);
    }

    #[test]
    fn exposition_carries_quantile_gauges() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_us", &[("runtime", "a")]);
        for v in [1, 2, 4, 8, 1000] {
            h.observe(v);
        }
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE lat_us_quantile gauge"), "{text}");
        assert!(
            text.contains("lat_us_quantile{runtime=\"a\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("quantile=\"0.99\""), "{text}");
        // Exactly one TYPE header for the quantile family.
        assert_eq!(text.matches("# TYPE lat_us_quantile gauge").count(), 1);
    }

    #[test]
    fn hostile_strings_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.set_help("evil", "line one\nline two \\ with backslash");
        reg.counter("evil", &[("path", "C:\\tmp\n\"quoted\"")])
            .inc();
        let text = reg.to_prometheus();
        // Help: newline and backslash escaped.
        assert!(
            text.contains("# HELP evil line one\\nline two \\\\ with backslash\n"),
            "{text}"
        );
        // Label value: backslash, quote and newline escaped, so the
        // sample still occupies a single physical line.
        assert!(
            text.contains("evil{path=\"C:\\\\tmp\\n\\\"quoted\\\"\"} 1\n"),
            "{text}"
        );
        // No raw (unescaped) newline may survive inside any line: every
        // physical line must be a comment or `name{...} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.ends_with(" 1"),
                "torn line: {line:?}"
            );
        }
    }

    #[test]
    fn counter_total_sums_label_sets() {
        let reg = MetricsRegistry::new();
        reg.counter("steals", &[("node", "0")]).add(3);
        reg.counter("steals", &[("node", "1")]).add(4);
        assert_eq!(reg.counter_total("steals"), 7);
        assert_eq!(reg.counter_total("missing"), 0);
    }

    #[test]
    fn gauge_value_reads_without_creating() {
        let reg = MetricsRegistry::new();
        reg.gauge("health", &[("runtime", "a")]).set(2.0);
        assert_eq!(reg.gauge_value("health", &[("runtime", "a")]), Some(2.0));
        assert_eq!(reg.gauge_value("health", &[("runtime", "b")]), None);
        // The miss must not have created the series.
        assert!(!reg.to_prometheus().contains("runtime=\"b\""));
    }
}
