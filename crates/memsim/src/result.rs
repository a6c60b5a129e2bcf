//! Simulation results.

use coop_telemetry::json::{ToJson, Value};
use coop_telemetry::json_object;

/// Per-application outcome of a simulation, including a sampled GFLOPS
/// timeline (for burst/dynamic experiments and plots) over the run's
/// [`SimResult::times_s`].
#[derive(Debug, Clone, PartialEq)]
pub struct AppSeries {
    /// Application name.
    pub name: String,
    /// Total floating-point work completed, GFLOP.
    pub gflop_done: f64,
    /// Sustained GFLOPS in each sampling window.
    pub gflops_series: Vec<f64>,
}

/// Complete result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Machine name.
    pub machine: String,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Sample times, seconds (midpoints of sampling windows), one per rate.
    pub times_s: Vec<f64>,
    /// Per-application series, in spec order.
    pub apps: Vec<AppSeries>,
    /// Average bandwidth served by each node's memory over the run, GB/s.
    pub node_avg_gbs: Vec<f64>,
    /// Average fraction of each node's nominal bandwidth in use (0..=1).
    pub node_utilization: Vec<f64>,
}

/// The document prints the run's sample times in every app's object, between
/// its work and its rates, as `--format json` readers parse it.
impl ToJson for SimResult {
    fn to_value(&self) -> Value {
        let app = |a: &AppSeries| {
            json_object! {
                "name": a.name, "gflop_done": a.gflop_done,
                "times_s": self.times_s, "gflops_series": a.gflops_series,
            }
        };
        let apps: Vec<Value> = self.apps.iter().map(app).collect();
        json_object! {
            "machine": self.machine, "duration_s": self.duration_s, "apps": apps,
            "node_avg_gbs": self.node_avg_gbs, "node_utilization": self.node_utilization,
        }
    }
}

impl SimResult {
    /// Sustained machine-wide GFLOPS (total work / duration).
    pub fn total_gflops(&self) -> f64 {
        self.apps.iter().map(|a| a.gflop_done).sum::<f64>() / self.duration_s
    }

    /// Sustained GFLOPS of one application.
    pub fn app_gflops(&self, app: usize) -> f64 {
        self.apps[app].gflop_done / self.duration_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_apps(duration_s: f64, times_s: Vec<f64>, apps: [(&str, f64, [f64; 2]); 2]) -> SimResult {
        SimResult {
            machine: "m".into(),
            duration_s,
            times_s,
            apps: apps
                .into_iter()
                .map(|(name, gflop_done, series)| AppSeries {
                    name: name.into(),
                    gflop_done,
                    gflops_series: series.to_vec(),
                })
                .collect(),
            node_avg_gbs: vec![8.0],
            node_utilization: vec![0.25],
        }
    }

    #[test]
    fn rollups() {
        let r = two_apps(
            2.0,
            vec![0.5, 1.5],
            [("a", 10.0, [5.0, 5.0]), ("b", 6.0, [3.0, 3.0])],
        );
        assert!((r.total_gflops() - 8.0).abs() < 1e-12);
        assert!((r.app_gflops(0) - 5.0).abs() < 1e-12);
        assert!((r.apps[1].gflop_done / 2.0 - 3.0).abs() < 1e-12);
    }

    /// The document of a two-app, two-sample run, byte for byte as the
    /// writer printed it when each `AppSeries` held its own `times_s`
    /// (taken at 5654387): per app `name, gflop_done, times_s,
    /// gflops_series`.
    #[test]
    fn json_reads_as_when_every_series_held_its_sample_times() {
        let r = SimResult {
            machine: "tiny".into(),
            node_avg_gbs: vec![8.25, 0.0],
            node_utilization: vec![0.5, 1.0 / 3.0],
            ..two_apps(
                0.3,
                vec![0.05, 0.1 + 0.05],
                [
                    ("a", 0.1 + 0.2, [1.5, 1e-7]),
                    ("b\"q", 6.0, [3.0, 2.0 / 3.0]),
                ],
            )
        };
        assert_eq!(
            r.to_value().write(),
            concat!(
                r#"{"machine":"tiny","duration_s":0.3,"apps":["#,
                r#"{"name":"a","gflop_done":0.30000000000000004,"#,
                r#""times_s":[0.05,0.15000000000000002],"gflops_series":[1.5,1e-7]},"#,
                r#"{"name":"b\"q","gflop_done":6.0,"#,
                r#""times_s":[0.05,0.15000000000000002],"#,
                r#""gflops_series":[3.0,0.6666666666666666]}],"#,
                r#""node_avg_gbs":[8.25,0.0],"node_utilization":[0.5,0.3333333333333333]}"#,
            )
        );
    }
}
