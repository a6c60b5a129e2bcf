//! Application characterisation: arithmetic intensity and data placement.

use crate::{ModelError, Result};
use coop_telemetry::json::{self, FromJson, ToJson, Value};
use coop_telemetry::{json_object, json_struct};
use numa_topology::{Machine, NodeId};

/// Where an application keeps the data its threads stream through.
///
/// The paper's model supports "two kinds of applications: perfectly adapted
/// to NUMA ... and the worst case application, which stores all its data in
/// a single NUMA node". [`DataPlacement::Spread`] generalises both: a thread
/// directs a fixed fraction of its memory traffic at each node. The two
/// paper cases are [`DataPlacement::Local`] and [`DataPlacement::SingleNode`].
#[derive(Debug, Clone, PartialEq)]
pub enum DataPlacement {
    /// NUMA-perfect: every thread reads only memory of the node it runs on.
    Local,
    /// NUMA-bad: all data lives on one node, wherever the threads run.
    SingleNode(NodeId),
    /// A fixed traffic distribution over nodes (fractions must sum to 1).
    ///
    /// Index `i` is the fraction of each thread's traffic that targets node
    /// `i`, regardless of where the thread runs. `Spread(vec![1.0, 0.0])` on
    /// a two-node machine is equivalent to `SingleNode(node0)`.
    Spread(Vec<f64>),
}

/// `"Local"`, `{"SingleNode": 2}` or `{"Spread": [0.5, 0.5]}`.
impl ToJson for DataPlacement {
    fn to_value(&self) -> Value {
        match self {
            DataPlacement::Local => "Local".to_value(),
            DataPlacement::SingleNode(node) => json_object! {"SingleNode": node},
            DataPlacement::Spread(fractions) => json_object! {"Spread": fractions},
        }
    }
}

impl FromJson for DataPlacement {
    fn from_value(v: &Value) -> json::Result<Self> {
        match (v.as_str(), v.as_object()) {
            (Some("Local"), _) => Ok(DataPlacement::Local),
            (_, Some([(tag, _)])) if tag == "SingleNode" => {
                v.field("SingleNode").map(DataPlacement::SingleNode)
            }
            (_, Some([(tag, _)])) if tag == "Spread" => {
                v.field("Spread").map(DataPlacement::Spread)
            }
            _ => Err(json::Error::new(
                "expected \"Local\", {\"SingleNode\": n} or {\"Spread\": [..]}",
            )),
        }
    }
}

impl DataPlacement {
    /// Fraction of a thread's traffic that targets `target`, for a thread
    /// running on `home`.
    pub fn fraction(&self, home: NodeId, target: NodeId, num_nodes: usize) -> f64 {
        match self {
            DataPlacement::Local => {
                if home == target {
                    1.0
                } else {
                    0.0
                }
            }
            DataPlacement::SingleNode(n) => {
                if *n == target {
                    1.0
                } else {
                    0.0
                }
            }
            DataPlacement::Spread(fracs) => {
                debug_assert_eq!(fracs.len(), num_nodes);
                fracs.get(target.0).copied().unwrap_or(0.0)
            }
        }
    }

    /// Validates the placement against a machine.
    pub(crate) fn validate(&self, machine: &Machine) -> Result<()> {
        match self {
            DataPlacement::Local => Ok(()),
            DataPlacement::SingleNode(n) => {
                machine
                    .try_node(*n)
                    .map_err(|_| ModelError::UnknownPlacementNode { node: n.0 })?;
                Ok(())
            }
            DataPlacement::Spread(fracs) => {
                if fracs.len() != machine.num_nodes() {
                    return Err(ModelError::PlacementShape {
                        expected: machine.num_nodes(),
                        actual: fracs.len(),
                    });
                }
                if fracs.iter().any(|&f| f < 0.0 || !f.is_finite()) {
                    return Err(ModelError::PlacementFractions);
                }
                let sum: f64 = fracs.iter().sum();
                if (sum - 1.0).abs() > 1e-9 {
                    return Err(ModelError::PlacementFractions);
                }
                Ok(())
            }
        }
    }
}

/// An application as the model sees it: a name (for reports), an arithmetic
/// intensity, and a data placement.
///
/// Arithmetic intensity (AI) is FLOP per byte moved to/from memory. Per the
/// model's assumption 3, a thread of this application on a core with peak
/// `P` GFLOPS attempts `P / AI` GB/s of memory traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Human-readable name used in reports and traces.
    pub name: String,
    /// Arithmetic intensity in FLOP/byte. Must be positive and finite.
    pub ai: f64,
    /// Where the application's data lives.
    pub placement: DataPlacement,
}

json_struct!(AppSpec: name, ai, placement);

impl AppSpec {
    /// A NUMA-perfect application: threads only touch local memory.
    pub fn numa_local(name: &str, ai: f64) -> Self {
        AppSpec {
            name: name.to_string(),
            ai,
            placement: DataPlacement::Local,
        }
    }

    /// A NUMA-bad application: all data on `node`.
    pub fn numa_bad(name: &str, ai: f64, node: NodeId) -> Self {
        AppSpec {
            name: name.to_string(),
            ai,
            placement: DataPlacement::SingleNode(node),
        }
    }

    /// An application with an explicit traffic distribution over nodes.
    pub fn spread(name: &str, ai: f64, fractions: Vec<f64>) -> Self {
        AppSpec {
            name: name.to_string(),
            ai,
            placement: DataPlacement::Spread(fractions),
        }
    }

    /// Bandwidth one thread of this application attempts on a core with the
    /// given peak GFLOPS (assumption 3): `peak / AI` GB/s.
    pub(crate) fn demand_per_thread_gbs(&self, core_peak_gflops: f64) -> f64 {
        core_peak_gflops / self.ai
    }

    /// Validates AI and placement against a machine.
    pub fn validate(&self, machine: &Machine) -> Result<()> {
        if self.ai <= 0.0 || !self.ai.is_finite() {
            return Err(ModelError::InvalidAi {
                app: self.name.clone(),
                ai: self.ai,
            });
        }
        self.placement.validate(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::{paper_model_machine, tiny};

    #[test]
    fn demand_follows_assumption_3() {
        // "a core with 10 GFLOPS running code with AI=2 would try to read
        // 10/2 = 5 GB/s"
        let app = AppSpec::numa_local("a", 2.0);
        assert!((app.demand_per_thread_gbs(10.0) - 5.0).abs() < 1e-12);
        // Table I: AI=0.5 on a 10 GFLOPS core -> 20 GB/s.
        let mem = AppSpec::numa_local("mem", 0.5);
        assert!((mem.demand_per_thread_gbs(10.0) - 20.0).abs() < 1e-12);
        // Compute-bound AI=10 -> 1 GB/s.
        let comp = AppSpec::numa_local("comp", 10.0);
        assert!((comp.demand_per_thread_gbs(10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn local_placement_fractions() {
        let p = DataPlacement::Local;
        assert_eq!(p.fraction(NodeId(1), NodeId(1), 4), 1.0);
        assert_eq!(p.fraction(NodeId(1), NodeId(2), 4), 0.0);
    }

    #[test]
    fn single_node_placement_fractions() {
        let p = DataPlacement::SingleNode(NodeId(0));
        assert_eq!(p.fraction(NodeId(3), NodeId(0), 4), 1.0);
        assert_eq!(p.fraction(NodeId(3), NodeId(3), 4), 0.0);
        assert_eq!(p.fraction(NodeId(0), NodeId(0), 4), 1.0);
    }

    #[test]
    fn spread_placement_fractions() {
        let p = DataPlacement::Spread(vec![0.25, 0.75]);
        assert_eq!(p.fraction(NodeId(0), NodeId(1), 2), 0.75);
        assert_eq!(p.fraction(NodeId(1), NodeId(0), 2), 0.25);
    }

    #[test]
    fn validation_accepts_paper_apps() {
        let m = paper_model_machine();
        assert!(AppSpec::numa_local("a", 0.5).validate(&m).is_ok());
        assert!(AppSpec::numa_bad("b", 1.0, NodeId(3)).validate(&m).is_ok());
        assert!(AppSpec::spread("c", 1.0, vec![0.25; 4])
            .validate(&m)
            .is_ok());
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let m = tiny();
        assert!(matches!(
            AppSpec::numa_local("a", 0.0).validate(&m),
            Err(ModelError::InvalidAi { .. })
        ));
        assert!(matches!(
            AppSpec::numa_local("a", f64::INFINITY).validate(&m),
            Err(ModelError::InvalidAi { .. })
        ));
        assert!(matches!(
            AppSpec::numa_bad("a", 1.0, NodeId(2)).validate(&m),
            Err(ModelError::UnknownPlacementNode { node: 2 })
        ));
        assert!(matches!(
            AppSpec::spread("a", 1.0, vec![0.5; 3]).validate(&m),
            Err(ModelError::PlacementShape {
                expected: 2,
                actual: 3
            })
        ));
        assert!(matches!(
            AppSpec::spread("a", 1.0, vec![0.7, 0.7]).validate(&m),
            Err(ModelError::PlacementFractions)
        ));
        assert!(matches!(
            AppSpec::spread("a", 1.0, vec![-0.5, 1.5]).validate(&m),
            Err(ModelError::PlacementFractions)
        ));
    }

    #[test]
    fn spread_equivalent_to_single_node() {
        let m = tiny();
        let s = DataPlacement::Spread(vec![1.0, 0.0]);
        let b = DataPlacement::SingleNode(NodeId(0));
        for home in m.node_ids() {
            for target in m.node_ids() {
                assert_eq!(
                    s.fraction(home, target, 2),
                    b.fraction(home, target, 2),
                    "home={home:?} target={target:?}"
                );
            }
        }
    }
}
