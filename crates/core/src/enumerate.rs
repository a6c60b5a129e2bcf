//! Exhaustive enumeration of thread assignments.
//!
//! The space of assignments is the product, over nodes, of the ways to
//! distribute that node's cores among the applications (allowing idle
//! cores). For a node with `c` cores and `a` applications there are
//! `C(c + a, a)` weak compositions, so the full space explodes quickly —
//! [`count_assignments`] lets callers check the size before iterating, and
//! [`ExhaustiveSearch`](crate::search::ExhaustiveSearch) enforces a limit.
//!
//! Two generators are provided:
//!
//! * [`node_compositions`] / [`assignments`] — the full space.
//! * [`uniform_assignments`] — only assignments that give an application
//!   the same thread count on every node (the paper's blocking-option-3
//!   uniform allocations, a much smaller and often sufficient space for
//!   NUMA-local workloads on symmetric machines).

use numa_topology::{Machine, NodeId};
use roofline_numa::ThreadAssignment;

/// All ways to write `sum <= total` as `parts` non-negative counts
/// (weak compositions of `0..=total` into `parts` parts).
///
/// The "missing" remainder is idle capacity. Order is lexicographic.
pub fn node_compositions(total: usize, parts: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = vec![0usize; parts];
    fn rec(out: &mut Vec<Vec<usize>>, cur: &mut Vec<usize>, idx: usize, left: usize) {
        if idx == cur.len() {
            out.push(cur.clone());
            return;
        }
        for v in 0..=left {
            cur[idx] = v;
            rec(out, cur, idx + 1, left - v);
        }
        cur[idx] = 0;
    }
    rec(&mut out, &mut cur, 0, total);
    out
}

/// `C(n, k)` as a `u128`, saturating.
pub(crate) fn binom(n: u128, k: u128) -> u128 {
    let k = k.min(n - k.min(n));
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

/// Number of assignments [`assignments`] would yield for `num_apps`
/// applications on `machine` (product over nodes of `C(cores + apps, apps)`),
/// saturating at `u128::MAX`.
pub fn count_assignments(machine: &Machine, num_apps: usize) -> u128 {
    machine
        .nodes()
        .map(|n| binom((n.num_cores() + num_apps) as u128, num_apps as u128))
        .fold(1u128, u128::saturating_mul)
}

/// Number of assignments [`uniform_assignments`] would yield: the weak
/// compositions of the *smallest* node's capacity among the applications.
pub fn count_uniform_assignments(machine: &Machine, num_apps: usize) -> u128 {
    let min_cores = machine.nodes().map(|n| n.num_cores()).min().unwrap_or(0);
    binom((min_cores + num_apps) as u128, num_apps as u128)
}

/// Iterates over *every* valid assignment of `num_apps` applications on
/// `machine` (no over-subscription; idle cores allowed).
///
/// The iterator is lazy; combine with [`count_assignments`] to bound work.
pub fn assignments(machine: &Machine, num_apps: usize) -> impl Iterator<Item = ThreadAssignment> {
    let per_node: Vec<Vec<Vec<usize>>> = machine
        .nodes()
        .map(|n| node_compositions(n.num_cores(), num_apps))
        .collect();
    let num_nodes = machine.num_nodes();
    CrossProduct::new(per_node).map(move |choice| {
        let mut threads = vec![vec![0usize; num_nodes]; num_apps];
        for (node, comp) in choice.iter().enumerate() {
            for (app, &c) in comp.iter().enumerate() {
                threads[app][node] = c;
            }
        }
        ThreadAssignment::from_matrix(threads)
    })
}

/// Iterates over every *uniform* assignment: application `a` runs the same
/// count on every node, and the per-node total fits the smallest node.
pub fn uniform_assignments(
    machine: &Machine,
    num_apps: usize,
) -> impl Iterator<Item = ThreadAssignment> + use<> {
    let min_cores = machine.nodes().map(|n| n.num_cores()).min().unwrap_or(0);
    let machine = machine.clone();
    node_compositions(min_cores, num_apps)
        .into_iter()
        .map(move |counts| ThreadAssignment::uniform_per_node(&machine, &counts))
}

/// The indexable form of [`assignments`]: one composition list per node.
///
/// Together with [`assignment_at`] this lets a parallel search jump straight
/// to any rank of the enumeration without iterating from the start, so the
/// space can be chunked across threads.
pub(crate) fn per_node_compositions(machine: &Machine, num_apps: usize) -> Vec<Vec<Vec<usize>>> {
    machine
        .nodes()
        .map(|n| node_compositions(n.num_cores(), num_apps))
        .collect()
}

/// Writes the `index`-th assignment of the full space into `out`.
///
/// Ranks follow [`assignments`] order exactly: node 0 is the most
/// significant digit and the last node varies fastest (the odometer
/// advances its final dimension first). `out` must already be shaped
/// `[num_apps][num_nodes]`; `index` must be below the product of the
/// per-node list lengths.
pub(crate) fn assignment_at(per_node: &[Vec<Vec<usize>>], index: u128, out: &mut ThreadAssignment) {
    let mut rank = index;
    for node in (0..per_node.len()).rev() {
        let len = per_node[node].len() as u128;
        let choice = (rank % len) as usize;
        rank /= len;
        for (app, &c) in per_node[node][choice].iter().enumerate() {
            out.set(app, NodeId(node), c);
        }
    }
    debug_assert_eq!(rank, 0, "index out of range for the enumerated space");
}

/// Lazy cartesian product over a vector of option lists.
struct CrossProduct<T: Clone> {
    options: Vec<Vec<T>>,
    idx: Vec<usize>,
    done: bool,
}

impl<T: Clone> CrossProduct<T> {
    fn new(options: Vec<Vec<T>>) -> Self {
        let done = options.iter().any(|o| o.is_empty());
        let idx = vec![0; options.len()];
        CrossProduct { options, idx, done }
    }
}

impl<T: Clone> Iterator for CrossProduct<T> {
    type Item = Vec<T>;

    fn next(&mut self) -> Option<Vec<T>> {
        if self.done {
            return None;
        }
        let item: Vec<T> = self
            .options
            .iter()
            .zip(&self.idx)
            .map(|(opts, &i)| opts[i].clone())
            .collect();
        // Advance odometer.
        let mut pos = self.options.len();
        loop {
            if pos == 0 {
                self.done = true;
                break;
            }
            pos -= 1;
            self.idx[pos] += 1;
            if self.idx[pos] < self.options[pos].len() {
                break;
            }
            self.idx[pos] = 0;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::{paper_model_machine, tiny};

    #[test]
    fn compositions_count_matches_binomial() {
        // Weak compositions of <= total into parts = C(total + parts, parts).
        assert_eq!(node_compositions(2, 2).len(), 6); // C(4,2)
        assert_eq!(node_compositions(8, 4).len(), 495); // C(12,4)
        assert_eq!(node_compositions(0, 3).len(), 1);
        assert_eq!(node_compositions(3, 1).len(), 4);
    }

    #[test]
    fn compositions_are_valid_and_unique() {
        let comps = node_compositions(4, 3);
        for c in &comps {
            assert_eq!(c.len(), 3);
            assert!(c.iter().sum::<usize>() <= 4);
        }
        let mut dedup = comps.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), comps.len());
    }

    #[test]
    fn count_assignments_matches_enumeration_on_tiny() {
        let m = tiny(); // 2 nodes x 2 cores
        let count = count_assignments(&m, 2);
        assert_eq!(count, 36); // C(4,2)^2 = 6^2
        let all: Vec<_> = assignments(&m, 2).collect();
        assert_eq!(all.len(), 36);
        for a in &all {
            assert!(a.validate(&m).is_ok());
        }
    }

    #[test]
    fn uniform_assignments_are_uniform_and_valid() {
        let m = paper_model_machine();
        let count = count_uniform_assignments(&m, 2);
        assert_eq!(count, 45); // C(10,2)
        let all: Vec<_> = uniform_assignments(&m, 2).collect();
        assert_eq!(all.len(), 45);
        for a in &all {
            assert!(a.validate(&m).is_ok());
            for app in 0..2 {
                let first = a.get(app, numa_topology::NodeId(0));
                for node in m.node_ids() {
                    assert_eq!(a.get(app, node), first);
                }
            }
        }
    }

    #[test]
    fn paper_allocations_appear_in_uniform_enumeration() {
        let m = paper_model_machine();
        let all: Vec<_> = uniform_assignments(&m, 4).collect();
        let uneven = ThreadAssignment::uniform_per_node(&m, &[1, 1, 1, 5]);
        let even = ThreadAssignment::uniform_per_node(&m, &[2, 2, 2, 2]);
        assert!(all.contains(&uneven));
        assert!(all.contains(&even));
    }

    #[test]
    fn full_space_is_large_for_paper_machine() {
        let m = paper_model_machine();
        // C(12,4)^4 = 495^4 ≈ 6e10 — large but countable without overflow.
        assert_eq!(count_assignments(&m, 4), 495u128.pow(4));
    }

    #[test]
    fn assignment_at_matches_iteration_order() {
        let m = tiny();
        let per_node = per_node_compositions(&m, 2);
        let mut out = ThreadAssignment::zero(&m, 2);
        for (i, expected) in assignments(&m, 2).enumerate() {
            assignment_at(&per_node, i as u128, &mut out);
            assert_eq!(out, expected, "rank {i} decoded differently");
        }
    }

    #[test]
    fn cross_product_covers_all_combinations() {
        let cp = CrossProduct::new(vec![vec![1, 2], vec![10, 20, 30]]);
        let v: Vec<Vec<i32>> = cp.collect();
        assert_eq!(v.len(), 6);
        assert!(v.contains(&vec![2, 30]));
        assert!(v.contains(&vec![1, 10]));
    }

    #[test]
    fn cross_product_with_empty_dimension_is_empty() {
        let cp = CrossProduct::new(vec![vec![1], Vec::<i32>::new()]);
        assert_eq!(cp.count(), 0);
    }
}
