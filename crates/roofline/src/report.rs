//! Structured output of a model solve.

use coop_telemetry::{json_write, Prediction, SeriesValue};
use numa_topology::NodeId;

/// Bandwidth grant and performance for one *thread group* — the threads of
/// one application homed on one NUMA node, which are all identical under the
/// model's assumptions.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadGrant {
    /// Index of the application in the spec list.
    pub app: usize,
    /// Node the threads run on.
    pub home: NodeId,
    /// Number of threads in this group.
    pub count: usize,
    /// Bandwidth one thread attempts, GB/s (peak GFLOPS / AI).
    pub demand_gbs: f64,
    /// Bandwidth one thread was granted, GB/s, summed over target nodes.
    pub granted_gbs: f64,
    /// Of the granted bandwidth, how much is served by each node's memory
    /// (index = node id). `granted_by_target[home]` is the local share.
    pub granted_by_target: Vec<f64>,
    /// Achieved GFLOPS of one thread: `min(core peak, AI * granted)`.
    pub gflops: f64,
}

impl ThreadGrant {
    /// Total GFLOPS of the whole group (`count * gflops`).
    pub fn group_gflops(&self) -> f64 {
        self.count as f64 * self.gflops
    }
}

/// Per-application rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    /// Application name from the spec.
    pub name: String,
    /// Arithmetic intensity from the spec.
    pub ai: f64,
    /// Total threads across all nodes.
    pub threads: usize,
    /// Achieved GFLOPS summed over all the application's threads.
    pub gflops: f64,
    /// Granted memory bandwidth summed over all threads, GB/s.
    pub bandwidth_gbs: f64,
}

/// Per-node rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// Peak local bandwidth, GB/s.
    pub capacity_gbs: f64,
    /// Bandwidth this node's memory spends serving threads homed on *other*
    /// nodes (the cross-node extension's remote-first stage), GB/s.
    pub served_remote_gbs: f64,
    /// Bandwidth served to threads homed on this node, GB/s.
    pub served_local_gbs: f64,
    /// The per-core baseline used in the local arbitration stage, GB/s.
    pub baseline_gbs: f64,
    /// GFLOPS achieved by threads *running on* this node.
    pub gflops: f64,
}

impl NodeReport {
    /// Fraction of this node's memory bandwidth in use (0..=1).
    pub(crate) fn utilization(&self) -> f64 {
        (self.served_remote_gbs + self.served_local_gbs) / self.capacity_gbs
    }
}

/// Complete result of a model solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Name of the machine that was solved.
    pub machine: String,
    /// Per-application rollups, in spec order.
    pub apps: Vec<AppReport>,
    /// Per-node rollups, in node order.
    pub nodes: Vec<NodeReport>,
    /// Per-(app, home-node) thread groups with non-zero thread counts.
    pub groups: Vec<ThreadGrant>,
}

json_write!(ThreadGrant: app, home, count, demand_gbs, granted_gbs, granted_by_target, gflops);
json_write!(AppReport: name, ai, threads, gflops, bandwidth_gbs);
json_write!(NodeReport: node, capacity_gbs, served_remote_gbs, served_local_gbs, baseline_gbs,
    gflops);
json_write!(SolveReport: machine, apps, nodes, groups);

impl SolveReport {
    /// Machine-wide achieved GFLOPS.
    pub fn total_gflops(&self) -> f64 {
        self.apps.iter().map(|a| a.gflops).sum()
    }

    /// Machine-wide granted bandwidth, GB/s.
    pub fn total_bandwidth_gbs(&self) -> f64 {
        self.apps.iter().map(|a| a.bandwidth_gbs).sum()
    }

    /// GFLOPS of the application with the given spec index.
    pub fn app_gflops(&self, app: usize) -> f64 {
        self.apps[app].gflops
    }

    /// The thread group of `app` homed on `node`, if it has any threads.
    pub fn group(&self, app: usize, node: NodeId) -> Option<&ThreadGrant> {
        self.groups.iter().find(|g| g.app == app && g.home == node)
    }

    /// Per-node served bandwidth in node order, GB/s.
    pub fn node_bandwidths_gbs(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .map(|n| n.served_remote_gbs + n.served_local_gbs)
            .collect()
    }

    /// Package this solve as a decision [`Prediction`] for the model-drift
    /// observatory: per-app predicted throughput (`app/<name>/gflops`) and
    /// bandwidth (`app/<name>/bandwidth_gbs`), per-node served bandwidth
    /// (`node/<n>/bandwidth_gbs`), with the apps' arithmetic intensities
    /// and thread counts recorded as model inputs. The caller fills in
    /// [`Prediction::assignment`] with the assignment it evaluated.
    pub fn to_prediction(&self) -> Prediction {
        let mut inputs = Vec::with_capacity(self.apps.len() * 2);
        let mut series = Vec::with_capacity(self.apps.len() * 2 + self.nodes.len());
        for app in &self.apps {
            inputs.push((format!("ai/{}", app.name).into(), app.ai));
            inputs.push((format!("threads/{}", app.name).into(), app.threads as f64));
            series.push(SeriesValue::new(
                format!("app/{}/gflops", app.name),
                app.gflops,
            ));
            series.push(SeriesValue::new(
                format!("app/{}/bandwidth_gbs", app.name),
                app.bandwidth_gbs,
            ));
        }
        for node in &self.nodes {
            series.push(SeriesValue::new(
                format!("node/{}/bandwidth_gbs", node.node.0),
                node.served_remote_gbs + node.served_local_gbs,
            ));
        }
        Prediction {
            inputs,
            assignment: Default::default(),
            series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_grant_rollups() {
        let g = ThreadGrant {
            app: 0,
            home: NodeId(1),
            count: 4,
            demand_gbs: 20.0,
            granted_gbs: 9.0,
            granted_by_target: vec![0.0, 9.0],
            gflops: 4.5,
        };
        assert!((g.group_gflops() - 18.0).abs() < 1e-12);
        assert!(g.granted_gbs < g.demand_gbs);
    }

    #[test]
    fn node_utilization() {
        let n = NodeReport {
            node: NodeId(0),
            capacity_gbs: 32.0,
            served_remote_gbs: 8.0,
            served_local_gbs: 16.0,
            baseline_gbs: 3.0,
            gflops: 10.0,
        };
        assert!((n.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn report_converts_to_prediction() {
        let report = SolveReport {
            machine: "m".into(),
            apps: vec![AppReport {
                name: "memA".into(),
                ai: 0.25,
                threads: 4,
                gflops: 6.0,
                bandwidth_gbs: 24.0,
            }],
            nodes: vec![
                NodeReport {
                    node: NodeId(0),
                    capacity_gbs: 32.0,
                    served_remote_gbs: 4.0,
                    served_local_gbs: 20.0,
                    baseline_gbs: 3.0,
                    gflops: 6.0,
                },
                NodeReport {
                    node: NodeId(1),
                    capacity_gbs: 32.0,
                    served_remote_gbs: 0.0,
                    served_local_gbs: 0.0,
                    baseline_gbs: 3.0,
                    gflops: 0.0,
                },
            ],
            groups: Vec::new(),
        };
        assert_eq!(report.node_bandwidths_gbs(), vec![24.0, 0.0]);
        let p = report.to_prediction();
        assert_eq!(p.value("app/memA/gflops"), Some(6.0));
        assert_eq!(p.value("app/memA/bandwidth_gbs"), Some(24.0));
        assert_eq!(p.value("node/0/bandwidth_gbs"), Some(24.0));
        assert_eq!(p.value("node/1/bandwidth_gbs"), Some(0.0));
        assert!(p.inputs.contains(&("ai/memA".into(), 0.25)));
        assert!(p.inputs.contains(&("threads/memA".into(), 4.0)));
    }
}
