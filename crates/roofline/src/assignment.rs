//! Thread-to-node assignments (the paper's blocking option 3 vocabulary).

use crate::{ModelError, Result};
use coop_telemetry::json_struct;
use numa_topology::{Machine, NodeId};

/// How many worker threads each application runs on each NUMA node.
///
/// This is exactly the quantity the paper's agent communicates to each
/// runtime under blocking option 3 ("number of threads per NUMA node"), and
/// the input the model scores. `threads[app][node]` is a count of threads.
///
/// Under the paper's standing assumptions, threads are bound to nodes and
/// there is no over-subscription, so
/// `sum over apps of threads[app][node] <= cores(node)` must hold —
/// [`ThreadAssignment::validate`] enforces it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ThreadAssignment {
    threads: Vec<Vec<usize>>,
}

json_struct!(ThreadAssignment: threads);

impl ThreadAssignment {
    /// Builds an assignment from an explicit `[app][node]` matrix.
    pub fn from_matrix(threads: Vec<Vec<usize>>) -> Self {
        ThreadAssignment { threads }
    }

    /// Every application gets the same per-node thread count on *every*
    /// node: application `a` runs `counts[a]` threads on each node.
    ///
    /// `uniform_per_node(&m, &[1, 1, 1, 5])` is the paper's uneven Table I
    /// allocation; `&[2, 2, 2, 2]` is the even Table II allocation.
    pub fn uniform_per_node(machine: &Machine, counts: &[usize]) -> Self {
        ThreadAssignment {
            threads: counts
                .iter()
                .map(|&c| vec![c; machine.num_nodes()])
                .collect(),
        }
    }

    /// Application `a` gets every core of node `a` and nothing else — the
    /// paper's "give all cores in one NUMA node to each application"
    /// scenario (Figure 2c). Requires `num_apps <= num_nodes`.
    pub fn node_per_app(machine: &Machine, num_apps: usize) -> Result<Self> {
        if num_apps > machine.num_nodes() {
            return Err(ModelError::TooManyAppsForNodes {
                apps: num_apps,
                nodes: machine.num_nodes(),
            });
        }
        let threads = (0..num_apps)
            .map(|a| {
                (0..machine.num_nodes())
                    .map(|n| {
                        if n == a {
                            machine.node(NodeId(n)).num_cores()
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        Ok(ThreadAssignment { threads })
    }

    /// An empty assignment for `num_apps` applications on `machine` (all
    /// counts zero), to be filled with [`set`](ThreadAssignment::set).
    pub fn zero(machine: &Machine, num_apps: usize) -> Self {
        ThreadAssignment {
            threads: vec![vec![0; machine.num_nodes()]; num_apps],
        }
    }

    /// Number of applications in this assignment.
    pub fn num_apps(&self) -> usize {
        self.threads.len()
    }

    /// Number of nodes this assignment spans.
    pub fn num_nodes(&self) -> usize {
        self.threads.first().map_or(0, |row| row.len())
    }

    /// Threads of application `app` on `node`.
    pub fn get(&self, app: usize, node: NodeId) -> usize {
        self.threads[app][node.0]
    }

    /// Sets the thread count of application `app` on `node`.
    pub fn set(&mut self, app: usize, node: NodeId, count: usize) {
        self.threads[app][node.0] = count;
    }

    /// Total threads of application `app` across all nodes.
    pub fn app_total(&self, app: usize) -> usize {
        self.threads[app].iter().sum()
    }

    /// Total threads of all applications on `node`.
    pub fn node_total(&self, node: NodeId) -> usize {
        self.threads.iter().map(|row| row[node.0]).sum()
    }

    /// Total threads across the whole machine.
    pub fn total(&self) -> usize {
        self.threads.iter().map(|r| r.iter().sum::<usize>()).sum()
    }

    /// The raw `[app][node]` matrix.
    pub fn matrix(&self) -> &[Vec<usize>] {
        &self.threads
    }

    /// Copies `other`'s counts into `self` without reallocating, provided
    /// both assignments have the same `[app][node]` shape.
    ///
    /// This is the allocation-free alternative to `*self = other.clone()`
    /// used by the local-search hot loops, which mutate a scratch candidate
    /// and reset it from the incumbent between moves.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, other: &ThreadAssignment) {
        assert_eq!(
            self.threads.len(),
            other.threads.len(),
            "copy_from: app count mismatch"
        );
        for (dst, src) in self.threads.iter_mut().zip(&other.threads) {
            dst.copy_from_slice(src);
        }
    }

    /// Checks shape (every row spans every node) and the no-over-subscription
    /// assumption (per-node totals do not exceed the node's core count).
    pub fn validate(&self, machine: &Machine) -> Result<()> {
        for (app, row) in self.threads.iter().enumerate() {
            if row.len() != machine.num_nodes() {
                return Err(ModelError::AssignmentShape {
                    app,
                    expected: machine.num_nodes(),
                    actual: row.len(),
                });
            }
        }
        for node in machine.node_ids() {
            let used = self.node_total(node);
            let cores = machine.node(node).num_cores();
            if used > cores {
                return Err(ModelError::OverSubscribed {
                    node: node.0,
                    threads: used,
                    cores,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::{paper_model_machine, tiny};

    #[test]
    fn uniform_per_node_matches_paper_examples() {
        let m = paper_model_machine();
        let uneven = ThreadAssignment::uniform_per_node(&m, &[1, 1, 1, 5]);
        assert_eq!(uneven.num_apps(), 4);
        assert_eq!(uneven.get(3, NodeId(2)), 5);
        assert_eq!(uneven.app_total(3), 20);
        assert_eq!(uneven.node_total(NodeId(0)), 8);
        assert_eq!(uneven.total(), 32);
        assert!(uneven.validate(&m).is_ok());

        let even = ThreadAssignment::uniform_per_node(&m, &[2, 2, 2, 2]);
        assert_eq!(even.node_total(NodeId(3)), 8);
        assert!(even.validate(&m).is_ok());
    }

    #[test]
    fn node_per_app_scenario() {
        let m = paper_model_machine();
        let a = ThreadAssignment::node_per_app(&m, 4).unwrap();
        assert_eq!(a.get(0, NodeId(0)), 8);
        assert_eq!(a.get(0, NodeId(1)), 0);
        assert_eq!(a.get(3, NodeId(3)), 8);
        assert_eq!(a.total(), 32);
        assert!(a.validate(&m).is_ok());
        assert!(ThreadAssignment::node_per_app(&m, 5).is_err());
    }

    #[test]
    fn validate_catches_oversubscription() {
        let m = tiny(); // 2 nodes x 2 cores
        let a = ThreadAssignment::uniform_per_node(&m, &[2, 1]);
        assert!(matches!(
            a.validate(&m),
            Err(ModelError::OverSubscribed {
                node: 0,
                threads: 3,
                cores: 2
            })
        ));
    }

    #[test]
    fn validate_catches_shape_mismatch() {
        let m = tiny();
        let a = ThreadAssignment::from_matrix(vec![vec![1, 1, 1]]);
        assert!(matches!(
            a.validate(&m),
            Err(ModelError::AssignmentShape {
                app: 0,
                expected: 2,
                actual: 3
            })
        ));
    }

    #[test]
    fn zero_and_set() {
        let m = tiny();
        let mut a = ThreadAssignment::zero(&m, 2);
        assert_eq!(a.total(), 0);
        a.set(1, NodeId(1), 2);
        assert_eq!(a.get(1, NodeId(1)), 2);
        assert_eq!(a.app_total(1), 2);
        assert_eq!(a.node_total(NodeId(1)), 2);
        assert!(a.validate(&m).is_ok());
    }

    #[test]
    fn matrix_accessor_roundtrip() {
        let a = ThreadAssignment::from_matrix(vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(a.matrix(), &[vec![1, 2], vec![3, 4]]);
        assert_eq!(a.num_nodes(), 2);
    }
}
