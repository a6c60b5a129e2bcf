//! Simulation results.

use coop_telemetry::json_write;

/// Per-application outcome of a simulation, including a sampled GFLOPS
/// timeline (for burst/dynamic experiments and plots).
#[derive(Debug, Clone, PartialEq)]
pub struct AppSeries {
    /// Application name.
    pub name: String,
    /// Total floating-point work completed, GFLOP.
    pub gflop_done: f64,
    /// Sample times, seconds (midpoints of sampling windows).
    pub times_s: Vec<f64>,
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
    /// Per-application series, in spec order.
    pub apps: Vec<AppSeries>,
    /// Average bandwidth served by each node's memory over the run, GB/s.
    pub node_avg_gbs: Vec<f64>,
    /// Average fraction of each node's nominal bandwidth in use (0..=1).
    pub node_utilization: Vec<f64>,
}

json_write!(AppSeries: name, gflop_done, times_s, gflops_series);
json_write!(SimResult: machine, duration_s, apps, node_avg_gbs, node_utilization);

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

    #[test]
    fn rollups() {
        let r = SimResult {
            machine: "m".into(),
            duration_s: 2.0,
            apps: vec![
                AppSeries {
                    name: "a".into(),
                    gflop_done: 10.0,
                    times_s: vec![0.5, 1.5],
                    gflops_series: vec![5.0, 5.0],
                },
                AppSeries {
                    name: "b".into(),
                    gflop_done: 6.0,
                    times_s: vec![0.5, 1.5],
                    gflops_series: vec![3.0, 3.0],
                },
            ],
            node_avg_gbs: vec![8.0],
            node_utilization: vec![0.25],
        };
        assert!((r.total_gflops() - 8.0).abs() < 1e-12);
        assert!((r.app_gflops(0) - 5.0).abs() < 1e-12);
        assert!((r.apps[1].gflop_done / 2.0 - 3.0).abs() < 1e-12);
    }
}
