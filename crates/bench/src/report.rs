//! Formatting and recording helpers shared by the experiment binaries.

use coop_telemetry::json::{ToJson, Value};
use coop_telemetry::json_write;
use std::time::Instant;

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Scenario label.
    pub label: String,
    /// Value the paper reports (None when the paper gives no number).
    pub paper: Option<f64>,
    /// Value this reproduction measured/computed.
    pub measured: f64,
}

impl Row {
    /// Creates a row with a paper reference value.
    pub(crate) fn with_paper(label: &str, paper: f64, measured: f64) -> Self {
        Row {
            label: label.to_string(),
            paper: Some(paper),
            measured,
        }
    }

    /// Creates a row without a paper reference.
    pub(crate) fn new(label: &str, measured: f64) -> Self {
        Row {
            label: label.to_string(),
            paper: None,
            measured,
        }
    }

    /// Relative deviation from the paper value, if any.
    pub(crate) fn deviation(&self) -> Option<f64> {
        self.paper.map(|p| (self.measured - p) / p)
    }
}

/// A titled block of comparison rows, printable and serializable.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment title (e.g. "Table III").
    pub title: String,
    /// Unit of the values (e.g. "GFLOPS").
    pub unit: String,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table.
    pub(crate) fn new(title: &str, unit: &str) -> Self {
        Table {
            title: title.to_string(),
            unit: unit.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub(crate) fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Largest absolute relative deviation across rows that have paper
    /// values.
    pub fn max_deviation(&self) -> f64 {
        self.rows
            .iter()
            .filter_map(|r| r.deviation())
            .fold(0.0, |m, d| m.max(d.abs()))
    }
}

json_write!(Row: label, paper, measured);
json_write!(Table: title, unit, rows);

/// The median of `samples` (NaN when empty).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Runs `f` `samples` times (at least once); returns the median wall time
/// in seconds and the last result.
pub fn time_median<T>(samples: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut seconds = Vec::with_capacity(samples.max(1));
    let mut last = None;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        last = Some(std::hint::black_box(f()));
        seconds.push(start.elapsed().as_secs_f64());
    }
    (median(&mut seconds), last.expect("at least one sample ran"))
}

/// Writes a bench report, with the host's parallelism recorded, to the
/// path in `$env_var` (default `default_path`) and prints it.
pub fn write_bench_json(env_var: &str, default_path: &str, mut report: Value) {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.insert("host_parallelism", parallelism.to_value());
    let path = std::env::var(env_var).unwrap_or_else(|_| default_path.to_string());
    let body = report.write_pretty() + "\n";
    match std::fs::write(&path, &body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
    println!("{body}");
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} ({}) ==", self.title, self.unit)?;
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        writeln!(
            f,
            "{:<label_w$}  {:>10}  {:>10}  {:>8}",
            "scenario", "paper", "measured", "dev"
        )?;
        for r in &self.rows {
            let paper = r
                .paper
                .map(|p| format!("{p:.2}"))
                .unwrap_or_else(|| "-".to_string());
            let dev = r
                .deviation()
                .map(|d| format!("{:+.1}%", d * 100.0))
                .unwrap_or_else(|| "-".to_string());
            writeln!(
                f,
                "{:<label_w$}  {:>10}  {:>10.2}  {:>8}",
                r.label, paper, r.measured, dev
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_compute_deviation() {
        let r = Row::with_paper("x", 100.0, 95.0);
        assert!((r.deviation().unwrap() + 0.05).abs() < 1e-12);
        assert!(Row::new("y", 3.0).deviation().is_none());
    }

    #[test]
    fn table_display_includes_everything() {
        let mut t = Table::new("Table X", "GFLOPS");
        t.push(Row::with_paper("even", 140.0, 140.0));
        t.push(Row::new("extra", 99.5));
        let s = t.to_string();
        assert!(s.contains("Table X"));
        assert!(s.contains("even"));
        assert!(s.contains("140.00"));
        assert!(s.contains("+0.0%"));
        assert!(s.contains("99.50"));
        assert!((t.max_deviation() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrips_structurally() {
        let mut t = Table::new("T", "u");
        t.push(Row::with_paper("a", 1.0, 2.0));
        let json = t.to_value().write_pretty();
        assert!(json.contains("\"paper\": 1.0"));
        assert!(json.contains("\"measured\": 2.0"));
    }
}
