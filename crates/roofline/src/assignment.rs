//! Thread-to-node assignments (the paper's blocking option 3 vocabulary).

use crate::{ModelError, Result};
use coop_telemetry::json::{self, FromJson, ToJson, Value};
use numa_topology::{Machine, NodeId};
use std::fmt;

/// How many worker threads each application runs on each NUMA node.
///
/// This is exactly the quantity the paper's agent communicates to each
/// runtime under blocking option 3 ("number of threads per NUMA node"), and
/// the input the model scores.
///
/// The counts are one row-major vector: application `app`'s count on `node`
/// sits at `app * num_nodes + node`, so [`row`](ThreadAssignment::row) is a
/// contiguous slice of `num_nodes` counts, [`as_slice`](ThreadAssignment::as_slice)
/// is every row in application order (comparing two of them compares the
/// assignments row by row, lexicographically), and a clone is one allocation.
/// The JSON form is the nested `{"threads": [[…], …]}`.
///
/// Under the paper's standing assumptions, threads are bound to nodes and
/// there is no over-subscription, so
/// `sum over apps of threads[app][node] <= cores(node)` must hold —
/// [`ThreadAssignment::validate`] enforces it.
///
/// [`from_matrix`](ThreadAssignment::from_matrix) accepts any nested vector.
/// Rows that are not all as long as the first cannot be stored; the first
/// such row and its length are remembered instead, the rows before it are
/// kept, and [`validate`](ThreadAssignment::validate) /
/// [`check_shape`](ThreadAssignment::check_shape) report it as
/// [`ModelError::AssignmentShape`]. Check the shape before reading a
/// matrix that came from outside the program.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ThreadAssignment {
    threads: Vec<usize>,
    num_apps: usize,
    num_nodes: usize,
    /// `(row, its length)` of the first `from_matrix` row whose length
    /// differed from the first row's; `threads` stops before that row.
    ragged: Option<(usize, usize)>,
}

impl ThreadAssignment {
    /// Builds an assignment from an explicit `[app][node]` matrix.
    pub fn from_matrix(matrix: Vec<Vec<usize>>) -> Self {
        let num_apps = matrix.len();
        let num_nodes = matrix.first().map_or(0, Vec::len);
        let mut threads = Vec::with_capacity(matrix.iter().map(Vec::len).sum());
        let mut ragged = None;
        for (app, row) in matrix.iter().enumerate() {
            if row.len() != num_nodes {
                ragged = Some((app, row.len()));
                break;
            }
            threads.extend_from_slice(row);
        }
        ThreadAssignment {
            threads,
            num_apps,
            num_nodes,
            ragged,
        }
    }

    /// Every application gets the same per-node thread count on *every*
    /// node: application `a` runs `counts[a]` threads on each node.
    ///
    /// `uniform_per_node(&m, &[1, 1, 1, 5])` is the paper's uneven Table I
    /// allocation; `&[2, 2, 2, 2]` is the even Table II allocation.
    pub fn uniform_per_node(machine: &Machine, counts: &[usize]) -> Self {
        let mut a = ThreadAssignment::zero(machine, counts.len());
        for (app, &c) in counts.iter().enumerate() {
            a.row_mut(app).fill(c);
        }
        a
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
        let mut a = ThreadAssignment::zero(machine, num_apps);
        for app in 0..num_apps {
            a.set(app, NodeId(app), machine.node(NodeId(app)).num_cores());
        }
        Ok(a)
    }

    /// An empty assignment for `num_apps` applications on `machine` (all
    /// counts zero), to be filled with [`set`](ThreadAssignment::set) or
    /// [`row_mut`](ThreadAssignment::row_mut).
    pub fn zero(machine: &Machine, num_apps: usize) -> Self {
        // No rows span no nodes, whatever the machine: `zero(m, 0)` equals
        // `from_matrix(vec![])`.
        let num_nodes = if num_apps == 0 {
            0
        } else {
            machine.num_nodes()
        };
        ThreadAssignment {
            threads: vec![0; num_apps * num_nodes],
            num_apps,
            num_nodes,
            ragged: None,
        }
    }

    /// Number of applications in this assignment.
    pub fn num_apps(&self) -> usize {
        self.num_apps
    }

    /// Number of nodes this assignment spans.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Threads of application `app` on `node`.
    pub fn get(&self, app: usize, node: NodeId) -> usize {
        debug_assert!(node.0 < self.num_nodes, "node {} out of range", node.0);
        self.threads[app * self.num_nodes + node.0]
    }

    /// Sets the thread count of application `app` on `node`.
    pub fn set(&mut self, app: usize, node: NodeId, count: usize) {
        debug_assert!(node.0 < self.num_nodes, "node {} out of range", node.0);
        self.threads[app * self.num_nodes + node.0] = count;
    }

    /// Application `app`'s counts, one per node in node order.
    pub fn row(&self, app: usize) -> &[usize] {
        &self.threads[app * self.num_nodes..(app + 1) * self.num_nodes]
    }

    /// Application `app`'s counts, writable.
    pub fn row_mut(&mut self, app: usize) -> &mut [usize] {
        &mut self.threads[app * self.num_nodes..(app + 1) * self.num_nodes]
    }

    /// Every count, row-major: [`row`](ThreadAssignment::row)`(0)` then
    /// `row(1)` and so on. Between two assignments of one shape, slice
    /// ordering is the row-by-row lexicographic ordering of the matrices.
    pub fn as_slice(&self) -> &[usize] {
        &self.threads
    }

    /// The rows copied out as a nested `[app][node]` matrix (printing and
    /// JSON; hot paths read [`row`](ThreadAssignment::row) instead).
    pub fn to_matrix(&self) -> Vec<Vec<usize>> {
        self.rows().map(<[usize]>::to_vec).collect()
    }

    /// The rows held, in application order (all of them unless
    /// `from_matrix` was given a ragged matrix).
    fn rows(&self) -> impl Iterator<Item = &[usize]> {
        let held = self.ragged.map_or(self.num_apps, |(app, _)| app);
        (0..held).map(|app| self.row(app))
    }

    /// Total threads of application `app` across all nodes.
    pub fn app_total(&self, app: usize) -> usize {
        self.row(app).iter().sum()
    }

    /// Total threads of all applications on `node`.
    pub fn node_total(&self, node: NodeId) -> usize {
        (0..self.num_apps).map(|app| self.get(app, node)).sum()
    }

    /// Total threads across the whole machine.
    pub fn total(&self) -> usize {
        self.threads.iter().sum()
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
            (self.num_apps, self.num_nodes),
            (other.num_apps, other.num_nodes),
            "copy_from: shape mismatch"
        );
        self.threads.copy_from_slice(&other.threads);
    }

    /// Checks that every row spans exactly `num_nodes` nodes.
    pub fn check_shape(&self, num_nodes: usize) -> Result<()> {
        let bad = if self.num_apps > 0 && self.num_nodes != num_nodes {
            Some((0, self.num_nodes))
        } else {
            self.ragged
        };
        match bad {
            Some((app, actual)) => Err(ModelError::AssignmentShape {
                app,
                expected: num_nodes,
                actual,
            }),
            None => Ok(()),
        }
    }

    /// Checks shape (every row spans every node) and the no-over-subscription
    /// assumption (per-node totals do not exceed the node's core count),
    /// reporting the first over-subscribed node.
    ///
    /// Allocates nothing: the per-node totals of up to 32 nodes at a time are
    /// summed on the stack in one sequential pass over the rows (a walk down
    /// each column instead costs a large fleet's simulation 7 % a segment).
    pub fn validate(&self, machine: &Machine) -> Result<()> {
        const BLOCK: usize = 32;
        self.check_shape(machine.num_nodes())?;
        for first in (0..self.num_nodes).step_by(BLOCK) {
            let nodes = first..self.num_nodes.min(first + BLOCK);
            let mut totals = [0; BLOCK];
            for row in self.threads.chunks_exact(self.num_nodes) {
                for (total, &count) in totals.iter_mut().zip(&row[nodes.clone()]) {
                    *total += count;
                }
            }
            for (node, &threads) in nodes.zip(&totals) {
                let cores = machine.node(NodeId(node)).num_cores();
                if threads > cores {
                    return Err(ModelError::OverSubscribed {
                        node,
                        threads,
                        cores,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Prints the counts as the nested matrix they stand for.
impl fmt::Debug for ThreadAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<&[usize]> = self.rows().collect();
        f.debug_struct("ThreadAssignment")
            .field("threads", &rows)
            .finish()
    }
}

/// `{"threads": [[…], …]}`, one inner array per application.
impl ToJson for ThreadAssignment {
    fn to_value(&self) -> Value {
        let rows = self.rows().map(ToJson::to_value).collect();
        Value::Object(vec![("threads".to_string(), Value::Array(rows))])
    }
}

impl FromJson for ThreadAssignment {
    fn from_value(v: &Value) -> json::Result<Self> {
        Ok(ThreadAssignment::from_matrix(v.field("threads")?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_alloc::cases::{check, Gen};
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

    /// Past one block of nodes too, `validate` reports the first node whose
    /// column total exceeds its cores, with that total and those cores.
    #[test]
    fn validate_reports_the_first_oversubscribed_node_of_any_width() {
        check(23, 256, |g| {
            let nodes = g.range(1..80usize);
            let cores: Vec<usize> = (0..nodes).map(|_| g.range(1..5usize)).collect();
            let m = cores
                .iter()
                .fold(numa_topology::MachineBuilder::new(), |b, &c| {
                    b.add_node(c, 32.0, 16.0)
                })
                .core_peak_gflops(10.0)
                .uniform_link_gbs(10.0)
                .build()
                .unwrap();
            // Columns that fit, then up to two random nodes pushed over.
            let apps = g.range(1..4usize);
            let mut matrix: Vec<Vec<usize>> = (0..apps)
                .map(|_| {
                    (0..nodes)
                        .map(|n| g.range(0..cores[n] / apps + 1))
                        .collect()
                })
                .collect();
            for _ in 0..g.range(0..3usize) {
                let node = g.range(0..nodes);
                matrix[g.range(0..apps)][node] += cores[node] + 1;
            }
            let a = ThreadAssignment::from_matrix(matrix);
            let want = (0..nodes).find_map(|node| {
                let threads = a.node_total(NodeId(node));
                (threads > cores[node]).then_some((node, threads, cores[node]))
            });
            match (a.validate(&m), want) {
                (Ok(()), None) => {}
                (
                    Err(ModelError::OverSubscribed {
                        node,
                        threads,
                        cores,
                    }),
                    Some(want),
                ) => assert_eq!((node, threads, cores), want),
                (got, want) => panic!("validate {got:?}, expected {want:?}"),
            }
        });
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

    /// What the nested-vector `validate` reported: the first row whose
    /// length is not the machine's node count, and that length.
    fn first_bad_row(matrix: &[Vec<usize>], expected: usize) -> Option<(usize, usize)> {
        matrix
            .iter()
            .enumerate()
            .find(|(_, row)| row.len() != expected)
            .map(|(app, row)| (app, row.len()))
    }

    #[test]
    fn ragged_and_wrong_width_matrices_report_the_first_bad_row() {
        let m = tiny(); // 2 nodes
        for matrix in [
            vec![vec![1, 1, 1], vec![1, 1, 1]],       // every row too wide
            vec![vec![1], vec![1, 1]],                // first row short, second fits
            vec![vec![1, 1], vec![1, 1, 1], vec![1]], // ragged after a good row
            vec![vec![1, 1], vec![]],
            vec![vec![], vec![1, 1]],
        ] {
            let (app, actual) = first_bad_row(&matrix, 2).unwrap();
            let a = ThreadAssignment::from_matrix(matrix.clone());
            assert_eq!(a.num_apps(), matrix.len());
            for result in [a.validate(&m), a.check_shape(2)] {
                assert_eq!(
                    result,
                    Err(ModelError::AssignmentShape {
                        app,
                        expected: 2,
                        actual
                    }),
                    "{matrix:?}"
                );
            }
            // Printing one never panics.
            let _ = format!("{a:?} {}", a.to_value().write());
        }
    }

    #[test]
    fn an_empty_assignment_validates_on_any_machine() {
        for m in [tiny(), paper_model_machine()] {
            assert!(ThreadAssignment::from_matrix(vec![]).validate(&m).is_ok());
            assert!(ThreadAssignment::zero(&m, 0).validate(&m).is_ok());
            assert!(ThreadAssignment::zero(&tiny(), 0).validate(&m).is_ok());
        }
        assert_eq!(
            ThreadAssignment::zero(&tiny(), 0),
            ThreadAssignment::from_matrix(vec![])
        );
        assert_eq!(ThreadAssignment::zero(&tiny(), 0).num_nodes(), 0);
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
        assert_eq!(a.to_matrix(), [vec![1, 2], vec![3, 4]]);
        assert_eq!(a.as_slice(), [1, 2, 3, 4]);
        assert_eq!(a.row(1), [3, 4]);
        assert_eq!((a.node_total(NodeId(0)), a.node_total(NodeId(1))), (4, 6));
        assert_eq!(a.num_nodes(), 2);

        let mut b = ThreadAssignment::zero(&tiny(), 2);
        b.row_mut(1).copy_from_slice(&[3, 4]);
        assert_eq!(b.to_matrix(), [vec![0, 0], vec![3, 4]]);
        b.copy_from(&a);
        assert_eq!(b, a);
    }

    #[test]
    fn json_and_debug_forms_are_the_nested_matrix() {
        let a = ThreadAssignment::from_matrix(vec![vec![1, 2, 0], vec![3, 4, 5]]);
        let text = a.to_value().write();
        assert_eq!(text, r#"{"threads":[[1,2,0],[3,4,5]]}"#);
        let back = ThreadAssignment::from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, a);
        assert_eq!(
            format!("{a:?}"),
            "ThreadAssignment { threads: [[1, 2, 0], [3, 4, 5]] }"
        );

        let no_nodes = ThreadAssignment::from_matrix(vec![vec![], vec![]]);
        assert_eq!(no_nodes.to_value().write(), r#"{"threads":[[],[]]}"#);
        assert!(ThreadAssignment::from_value(&json::parse(r#"{"rows":[]}"#).unwrap()).is_err());
    }

    fn arb_matrix(g: &mut Gen, apps: usize, nodes: usize) -> Vec<Vec<usize>> {
        // Few distinct counts, so equal prefixes (and equal matrices) occur.
        (0..apps)
            .map(|_| (0..nodes).map(|_| g.range(0..3usize)).collect())
            .collect()
    }

    /// The exhaustive search breaks score ties toward the smaller
    /// assignment; that order must be the one the nested matrix had.
    #[test]
    fn as_slice_orders_like_the_nested_matrix() {
        check(22, 512, |g| {
            let (apps, nodes) = (g.range(1..5usize), g.range(1..5usize));
            let (x, y) = (arb_matrix(g, apps, nodes), arb_matrix(g, apps, nodes));
            let (a, b) = (
                ThreadAssignment::from_matrix(x.clone()),
                ThreadAssignment::from_matrix(y.clone()),
            );
            assert_eq!(a.as_slice().cmp(b.as_slice()), x.cmp(&y), "{x:?} vs {y:?}");
            assert_eq!(a == b, x == y);
            assert_eq!(a.to_matrix(), x);
            for n in 0..nodes {
                let column: usize = x.iter().map(|row| row[n]).sum();
                assert_eq!(a.node_total(NodeId(n)), column);
            }
        });
    }
}
