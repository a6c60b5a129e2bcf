//! The validated machine description: nodes, cores, bandwidths, links.

use crate::{CoreId, CpuSet, NodeId, Result, TopologyError};
use coop_telemetry::json::{self, FromJson, ToJson, Value};
use coop_telemetry::json_write;

/// One NUMA node of a [`Machine`].
///
/// A node owns a contiguous range of global core ids and its local memory
/// with a peak bandwidth. Core homogeneity is machine-wide (assumption 1 of
/// the paper's model: "a single CPU core has the same peak GFLOPS for each
/// application").
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Global id of the first core belonging to this node.
    pub first_core: CoreId,
    /// Number of cores on this node.
    pub num_cores: usize,
    /// Peak local memory bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Local memory capacity in GiB. Only used to validate data placement;
    /// the paper assumes capacity is never the binding constraint.
    pub memory_gib: f64,
}

impl Node {
    /// Number of cores on this node.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// The global core ids belonging to this node, as a [`CpuSet`].
    pub fn cpuset(&self) -> CpuSet {
        CpuSet::from_range(self.first_core.0, self.first_core.0 + self.num_cores)
    }

    /// Iterates over the global core ids of this node.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (self.first_core.0..self.first_core.0 + self.num_cores).map(CoreId)
    }

    /// `true` if the given global core id belongs to this node.
    pub fn owns(&self, core: CoreId) -> bool {
        core.0 >= self.first_core.0 && core.0 < self.first_core.0 + self.num_cores
    }
}

/// Peak bandwidth of the interconnect between each ordered pair of nodes,
/// in GB/s.
///
/// `link(a, b)` is the bandwidth available to traffic *initiated on node `a`
/// targeting memory on node `b`*. The diagonal is unused (local accesses go
/// through the node's own memory controller and are limited by
/// [`Node::bandwidth_gbs`]). A value of `0.0` means the pair cannot exchange
/// traffic at all.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkMatrix {
    dim: usize,
    /// Row-major `dim x dim` bandwidths.
    gbs: Vec<f64>,
}

impl LinkMatrix {
    /// A matrix with the same bandwidth on every off-diagonal link — the
    /// "fully connected, symmetric interconnect" the paper assumes for its
    /// four-socket Skylake server.
    pub fn uniform(dim: usize, gbs: f64) -> Self {
        let mut m = LinkMatrix {
            dim,
            gbs: vec![gbs; dim * dim],
        };
        for i in 0..dim {
            m.gbs[i * dim + i] = 0.0;
        }
        m
    }

    /// Builds a matrix from a row-major `dim x dim` slice.
    pub fn from_rows(dim: usize, rows: &[f64]) -> Result<Self> {
        if rows.len() != dim * dim {
            return Err(TopologyError::LinkMatrixShape {
                expected: dim,
                actual: rows.len(),
            });
        }
        for (idx, &v) in rows.iter().enumerate() {
            if v < 0.0 || !v.is_finite() {
                return Err(TopologyError::NegativeLink {
                    from: idx / dim,
                    to: idx % dim,
                    value: v,
                });
            }
        }
        Ok(LinkMatrix {
            dim,
            gbs: rows.to_vec(),
        })
    }

    /// Dimension (number of nodes).
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Bandwidth of the directed link `from -> to` in GB/s. Zero on the
    /// diagonal.
    pub fn link(&self, from: NodeId, to: NodeId) -> f64 {
        if from == to {
            0.0
        } else {
            self.gbs[from.0 * self.dim + to.0]
        }
    }

    /// Sets the bandwidth of the directed link `from -> to`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, gbs: f64) {
        if from != to {
            self.gbs[from.0 * self.dim + to.0] = gbs;
        }
    }
}

/// An immutable, validated NUMA machine description.
///
/// Build one with [`MachineBuilder`] or deserialize with
/// [`Machine::from_json`]. All quantities are validated on construction, so
/// downstream code can rely on: at least one node, at least one core per
/// node, positive bandwidths and GFLOPS, and a link matrix whose dimension
/// matches the node count.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    name: String,
    nodes: Vec<Node>,
    core_peak_gflops: f64,
    links: LinkMatrix,
    total_cores: usize,
}

impl Machine {
    /// Human-readable machine name (e.g. `"paper-model-4x8"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of NUMA nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of cores across all nodes.
    pub fn total_cores(&self) -> usize {
        self.total_cores
    }

    /// Peak floating-point performance of one core, in GFLOPS.
    pub fn core_peak_gflops(&self) -> f64 {
        self.core_peak_gflops
    }

    /// Peak floating-point performance of the whole machine, in GFLOPS.
    pub fn peak_machine_gflops(&self) -> f64 {
        self.core_peak_gflops * self.total_cores as f64
    }

    /// The node with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range; use [`Machine::try_node`] for a
    /// fallible lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Fallible node lookup.
    pub fn try_node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.0).ok_or(TopologyError::UnknownNode {
            node: id.0,
            num_nodes: self.nodes.len(),
        })
    }

    /// Iterates over the nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The node that owns the given global core id.
    pub fn node_of_core(&self, core: CoreId) -> Result<NodeId> {
        if core.0 >= self.total_cores {
            return Err(TopologyError::UnknownCore {
                core: core.0,
                num_cores: self.total_cores,
            });
        }
        // Nodes are contiguous and sorted by first_core, so a partition
        // point lookup suffices.
        let idx = self
            .nodes
            .partition_point(|n| n.first_core.0 + n.num_cores <= core.0);
        debug_assert!(self.nodes[idx].owns(core));
        Ok(NodeId(idx))
    }

    /// The interconnect link matrix.
    pub fn links(&self) -> &LinkMatrix {
        &self.links
    }

    /// A [`CpuSet`] containing every core of the machine.
    pub fn all_cores(&self) -> CpuSet {
        CpuSet::from_range(0, self.total_cores)
    }

    /// Returns a copy of this machine with `node`'s local memory bandwidth
    /// replaced by `bandwidth_gbs` (everything else unchanged).
    ///
    /// This is the building block for perturbation experiments: simulate on
    /// a machine whose controller degraded mid-run while the analytic model
    /// keeps predicting with the nominal description, and watch the
    /// prediction residuals drift.
    pub(crate) fn with_node_bandwidth(&self, node: NodeId, bandwidth_gbs: f64) -> Result<Machine> {
        self.try_node(node)?;
        if bandwidth_gbs <= 0.0 || !bandwidth_gbs.is_finite() {
            return Err(TopologyError::NonPositiveQuantity {
                what: "node memory bandwidth (GB/s)",
                value: bandwidth_gbs,
            });
        }
        let mut m = self.clone();
        m.nodes[node.0].bandwidth_gbs = bandwidth_gbs;
        Ok(m)
    }

    /// Returns a copy of this machine with `node`'s local memory bandwidth
    /// multiplied by `factor` (e.g. `0.5` halves it).
    pub fn with_scaled_node_bandwidth(&self, node: NodeId, factor: f64) -> Result<Machine> {
        let nominal = self.try_node(node)?.bandwidth_gbs;
        self.with_node_bandwidth(node, nominal * factor)
    }

    /// Serializes the machine description to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().write_pretty()
    }

    /// Deserializes and re-validates a machine description from JSON.
    pub fn from_json(json: &str) -> Result<Machine> {
        let doc = json::parse(json).map_err(|e| TopologyError::Serde(e.to_string()))?;
        Machine::from_value(&doc).map_err(|e| TopologyError::Serde(e.to_string()))
    }
}

json_write!(Node: id, first_core, num_cores, bandwidth_gbs, memory_gib);
json_write!(LinkMatrix: dim, gbs);
json_write!(Machine: name, nodes, core_peak_gflops, links, total_cores);

/// Most cores a machine read from JSON may describe.
const MAX_CORES_FROM_JSON: usize = 1 << 20;

/// Reads what [`MachineBuilder`] takes (name, peak, per-node cores /
/// bandwidth / memory, the link rows) and re-runs its validation, so
/// hand-edited JSON cannot smuggle in an inconsistent description; the
/// derived members (`id`, `first_core`, `total_cores`, `links.dim`) are
/// recomputed, not trusted.
impl FromJson for Machine {
    fn from_value(v: &Value) -> json::Result<Self> {
        let mut b = MachineBuilder::new()
            .name(&v.field::<String>("name")?)
            .core_peak_gflops(v.field("core_peak_gflops")?);
        let nodes: Vec<Value> = v.field("nodes")?;
        let mut total_cores = 0usize;
        for n in &nodes {
            let cores: usize = n.field("num_cores")?;
            // Core sets are bitmaps sized by the highest core id: bound
            // what a file can make them allocate.
            total_cores = total_cores
                .checked_add(cores)
                .filter(|total| *total <= MAX_CORES_FROM_JSON)
                .ok_or_else(|| json::Error::new("machine describes more than 2^20 cores"))?;
            b = b.add_node(cores, n.field("bandwidth_gbs")?, n.field("memory_gib")?);
        }
        let mut rows: Vec<f64> = v.field::<Value>("links")?.field("gbs")?;
        // The diagonal carries no link: whatever the file says, it is zero.
        for diagonal in rows.iter_mut().step_by(nodes.len() + 1) {
            *diagonal = 0.0;
        }
        let invalid = |e: TopologyError| json::Error::new(e.to_string());
        b.link_matrix(LinkMatrix::from_rows(nodes.len(), &rows).map_err(invalid)?)
            .build()
            .map_err(invalid)
    }
}

/// Builder for [`Machine`].
///
/// Two styles are supported: the symmetric shorthand
/// ([`symmetric_nodes`](MachineBuilder::symmetric_nodes) +
/// [`node_bandwidth_gbs`](MachineBuilder::node_bandwidth_gbs)) used by all of
/// the paper's machines, and per-node [`add_node`](MachineBuilder::add_node)
/// calls for asymmetric systems.
#[derive(Debug, Clone, Default)]
pub struct MachineBuilder {
    name: Option<String>,
    // (num_cores, bandwidth, memory_gib) per node
    nodes: Vec<(usize, Option<f64>, f64)>,
    symmetric: Option<(usize, usize)>,
    core_peak_gflops: Option<f64>,
    node_bandwidth_gbs: Option<f64>,
    node_memory_gib: f64,
    links: Option<LinkMatrix>,
    uniform_link_gbs: Option<f64>,
}

/// Default per-node memory capacity if none is specified (GiB).
const DEFAULT_NODE_MEMORY_GIB: f64 = 48.0;

impl MachineBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        MachineBuilder {
            node_memory_gib: DEFAULT_NODE_MEMORY_GIB,
            ..Default::default()
        }
    }

    /// Sets the machine name.
    pub fn name(mut self, name: &str) -> Self {
        self.name = Some(name.to_string());
        self
    }

    /// Declares `num_nodes` identical nodes with `cores_per_node` cores each.
    /// Mutually exclusive with [`add_node`](MachineBuilder::add_node).
    pub fn symmetric_nodes(mut self, num_nodes: usize, cores_per_node: usize) -> Self {
        self.symmetric = Some((num_nodes, cores_per_node));
        self
    }

    /// Appends one node with an explicit core count, bandwidth and capacity.
    pub fn add_node(mut self, num_cores: usize, bandwidth_gbs: f64, memory_gib: f64) -> Self {
        self.nodes
            .push((num_cores, Some(bandwidth_gbs), memory_gib));
        self
    }

    /// Sets the per-core peak performance in GFLOPS (required).
    pub fn core_peak_gflops(mut self, gflops: f64) -> Self {
        self.core_peak_gflops = Some(gflops);
        self
    }

    /// Sets the local memory bandwidth used for every symmetric node, GB/s.
    pub fn node_bandwidth_gbs(mut self, gbs: f64) -> Self {
        self.node_bandwidth_gbs = Some(gbs);
        self
    }

    /// Uses the same bandwidth for every inter-node link.
    pub fn uniform_link_gbs(mut self, gbs: f64) -> Self {
        self.uniform_link_gbs = Some(gbs);
        self
    }

    /// Supplies a full link matrix (overrides
    /// [`uniform_link_gbs`](MachineBuilder::uniform_link_gbs)).
    pub fn link_matrix(mut self, links: LinkMatrix) -> Self {
        self.links = Some(links);
        self
    }

    /// Validates and builds the [`Machine`].
    pub fn build(self) -> Result<Machine> {
        let core_peak_gflops = self.core_peak_gflops.unwrap_or(0.0);
        if core_peak_gflops <= 0.0 || !core_peak_gflops.is_finite() {
            return Err(TopologyError::NonPositiveQuantity {
                what: "core peak GFLOPS",
                value: core_peak_gflops,
            });
        }

        // Materialize the per-node list.
        let specs: Vec<(usize, f64, f64)> = if let Some((n, c)) = self.symmetric {
            let bw = self.node_bandwidth_gbs.unwrap_or(0.0);
            (0..n).map(|_| (c, bw, self.node_memory_gib)).collect()
        } else {
            self.nodes
                .iter()
                .map(|&(c, bw, mem)| (c, bw.unwrap_or(self.node_bandwidth_gbs.unwrap_or(0.0)), mem))
                .collect()
        };

        if specs.is_empty() {
            return Err(TopologyError::NoNodes);
        }
        let mut nodes = Vec::with_capacity(specs.len());
        let mut next_core = 0usize;
        for (i, &(cores, bw, mem)) in specs.iter().enumerate() {
            if cores == 0 {
                return Err(TopologyError::EmptyNode { node: i });
            }
            if bw <= 0.0 || !bw.is_finite() {
                return Err(TopologyError::NonPositiveQuantity {
                    what: "node memory bandwidth (GB/s)",
                    value: bw,
                });
            }
            if mem <= 0.0 || !mem.is_finite() {
                return Err(TopologyError::NonPositiveQuantity {
                    what: "node memory capacity (GiB)",
                    value: mem,
                });
            }
            nodes.push(Node {
                id: NodeId(i),
                first_core: CoreId(next_core),
                num_cores: cores,
                bandwidth_gbs: bw,
                memory_gib: mem,
            });
            next_core += cores;
        }

        let dim = nodes.len();
        let links = match self.links {
            Some(l) => {
                if l.dim() != dim {
                    return Err(TopologyError::LinkMatrixShape {
                        expected: dim,
                        actual: l.dim(),
                    });
                }
                l
            }
            None => LinkMatrix::uniform(dim, self.uniform_link_gbs.unwrap_or(0.0)),
        };

        Ok(Machine {
            name: self.name.unwrap_or_else(|| format!("machine-{dim}n")),
            nodes,
            core_peak_gflops,
            links,
            total_cores: next_core,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_machine() -> Machine {
        MachineBuilder::new()
            .name("paper")
            .symmetric_nodes(4, 8)
            .core_peak_gflops(10.0)
            .node_bandwidth_gbs(32.0)
            .uniform_link_gbs(10.0)
            .build()
            .unwrap()
    }

    #[test]
    fn symmetric_build() {
        let m = paper_machine();
        assert_eq!(m.num_nodes(), 4);
        assert_eq!(m.total_cores(), 32);
        assert!(m.nodes().all(|n| n.num_cores() == 8));
        assert_eq!(m.name(), "paper");
        assert!((m.peak_machine_gflops() - 320.0).abs() < 1e-12);
        assert!((m.nodes().map(|n| n.bandwidth_gbs).sum::<f64>() - 128.0).abs() < 1e-12);
    }

    #[test]
    fn core_numbering_is_contiguous_per_node() {
        let m = paper_machine();
        assert_eq!(m.node(NodeId(0)).first_core, CoreId(0));
        assert_eq!(m.node(NodeId(1)).first_core, CoreId(8));
        assert_eq!(m.node(NodeId(3)).first_core, CoreId(24));
        let cores: Vec<usize> = m.node(NodeId(2)).cores().map(|c| c.0).collect();
        assert_eq!(cores, (16..24).collect::<Vec<_>>());
    }

    #[test]
    fn node_of_core_lookup() {
        let m = paper_machine();
        assert_eq!(m.node_of_core(CoreId(0)).unwrap(), NodeId(0));
        assert_eq!(m.node_of_core(CoreId(7)).unwrap(), NodeId(0));
        assert_eq!(m.node_of_core(CoreId(8)).unwrap(), NodeId(1));
        assert_eq!(m.node_of_core(CoreId(31)).unwrap(), NodeId(3));
        assert!(m.node_of_core(CoreId(32)).is_err());
    }

    #[test]
    fn asymmetric_build() {
        let m = MachineBuilder::new()
            .add_node(4, 20.0, 16.0)
            .add_node(12, 60.0, 64.0)
            .core_peak_gflops(5.0)
            .uniform_link_gbs(8.0)
            .build()
            .unwrap();
        assert_eq!(m.num_nodes(), 2);
        assert_eq!(m.total_cores(), 16);
        assert_ne!(m.node(NodeId(0)).num_cores(), m.node(NodeId(1)).num_cores());
        assert_eq!(m.node(NodeId(1)).first_core, CoreId(4));
        assert_eq!(m.node_of_core(CoreId(4)).unwrap(), NodeId(1));
        assert!((m.node(NodeId(1)).bandwidth_gbs - 60.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert!(matches!(
            MachineBuilder::new().core_peak_gflops(10.0).build(),
            Err(TopologyError::NoNodes)
        ));
        assert!(matches!(
            MachineBuilder::new()
                .symmetric_nodes(2, 4)
                .node_bandwidth_gbs(10.0)
                .build(),
            Err(TopologyError::NonPositiveQuantity {
                what: "core peak GFLOPS",
                ..
            })
        ));
        assert!(matches!(
            MachineBuilder::new()
                .symmetric_nodes(2, 0)
                .core_peak_gflops(1.0)
                .node_bandwidth_gbs(10.0)
                .build(),
            Err(TopologyError::EmptyNode { node: 0 })
        ));
        assert!(matches!(
            MachineBuilder::new()
                .symmetric_nodes(2, 4)
                .core_peak_gflops(1.0)
                .build(),
            Err(TopologyError::NonPositiveQuantity {
                what: "node memory bandwidth (GB/s)",
                ..
            })
        ));
        assert!(matches!(
            MachineBuilder::new()
                .symmetric_nodes(2, 4)
                .core_peak_gflops(f64::NAN)
                .node_bandwidth_gbs(10.0)
                .build(),
            Err(TopologyError::NonPositiveQuantity { .. })
        ));
    }

    #[test]
    fn link_matrix_uniform_diagonal_zero() {
        let l = LinkMatrix::uniform(3, 12.5);
        for i in 0..3 {
            assert_eq!(l.link(NodeId(i), NodeId(i)), 0.0);
            for j in 0..3 {
                if i != j {
                    assert!((l.link(NodeId(i), NodeId(j)) - 12.5).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn link_matrix_from_rows_and_set() {
        let rows = [0.0, 1.0, 2.0, 0.0];
        let mut l = LinkMatrix::from_rows(2, &rows).unwrap();
        assert!((l.link(NodeId(0), NodeId(1)) - 1.0).abs() < 1e-12);
        assert!((l.link(NodeId(1), NodeId(0)) - 2.0).abs() < 1e-12);
        l.set_link(NodeId(0), NodeId(1), 5.0);
        assert!((l.link(NodeId(0), NodeId(1)) - 5.0).abs() < 1e-12);
        // Setting the diagonal is a no-op.
        l.set_link(NodeId(0), NodeId(0), 99.0);
        assert_eq!(l.link(NodeId(0), NodeId(0)), 0.0);
    }

    #[test]
    fn link_matrix_shape_and_sign_validation() {
        assert!(matches!(
            LinkMatrix::from_rows(2, &[0.0; 3]),
            Err(TopologyError::LinkMatrixShape {
                expected: 2,
                actual: 3
            })
        ));
        assert!(matches!(
            LinkMatrix::from_rows(2, &[0.0, -1.0, 0.0, 0.0]),
            Err(TopologyError::NegativeLink { from: 0, to: 1, .. })
        ));
    }

    #[test]
    fn builder_rejects_mismatched_link_matrix() {
        let err = MachineBuilder::new()
            .symmetric_nodes(4, 2)
            .core_peak_gflops(1.0)
            .node_bandwidth_gbs(1.0)
            .link_matrix(LinkMatrix::uniform(3, 1.0))
            .build();
        assert!(matches!(
            err,
            Err(TopologyError::LinkMatrixShape {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn node_cpuset_and_all_cores() {
        let m = paper_machine();
        let n1 = m.node(NodeId(1)).cpuset();
        assert_eq!(n1.count(), 8);
        assert!(n1.contains(CoreId(8)) && n1.contains(CoreId(15)));
        assert!(!n1.contains(CoreId(16)));
        assert!(n1.is_subset(&m.all_cores()));
        assert_eq!(m.all_cores().count(), 32);
    }

    #[test]
    fn bandwidth_perturbation_helpers() {
        let m = paper_machine();
        let degraded = m.with_scaled_node_bandwidth(NodeId(2), 0.5).unwrap();
        assert!((degraded.node(NodeId(2)).bandwidth_gbs - 16.0).abs() < 1e-12);
        // Every other node — and the original machine — is untouched.
        for n in [0usize, 1, 3] {
            assert!((degraded.node(NodeId(n)).bandwidth_gbs - 32.0).abs() < 1e-12);
        }
        assert!((m.node(NodeId(2)).bandwidth_gbs - 32.0).abs() < 1e-12);

        let replaced = m.with_node_bandwidth(NodeId(0), 100.0).unwrap();
        assert!((replaced.node(NodeId(0)).bandwidth_gbs - 100.0).abs() < 1e-12);

        assert!(m.with_node_bandwidth(NodeId(9), 10.0).is_err());
        assert!(m.with_node_bandwidth(NodeId(0), 0.0).is_err());
        assert!(m.with_scaled_node_bandwidth(NodeId(0), -1.0).is_err());
    }

    #[test]
    fn json_roundtrip() {
        let m = paper_machine();
        let json = m.to_json();
        let back = Machine::from_json(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn json_rejects_corrupt_machine() {
        let m = paper_machine();
        let json = m.to_json().replace("32.0", "-32.0");
        assert!(Machine::from_json(&json).is_err());
        assert!(Machine::from_json("not json").is_err());
        // Derived members are recomputed, not trusted: a claimed dimension
        // of 2^30 allocates nothing and changes nothing...
        let claimed = m.to_json().replace("\"dim\": 4", "\"dim\": 1073741824");
        assert_eq!(Machine::from_json(&claimed).unwrap(), m);
        // ...while link rows that do not match the node count, or core
        // counts no machine has, are errors rather than panics.
        let short = m.to_json().replace("\"gbs\": [", "\"gbs\": [1.0,");
        assert!(Machine::from_json(&short).is_err());
        let huge = m
            .to_json()
            .replace("\"num_cores\": 8", "\"num_cores\": 18446744073709551615");
        assert!(Machine::from_json(&huge).is_err());
    }

    #[test]
    fn try_node_bounds() {
        let m = paper_machine();
        assert!(m.try_node(NodeId(3)).is_ok());
        assert!(matches!(
            m.try_node(NodeId(4)),
            Err(TopologyError::UnknownNode {
                node: 4,
                num_nodes: 4
            })
        ));
    }
}
