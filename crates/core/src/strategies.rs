//! Named allocation strategies from the paper.
//!
//! "A simple core allocation strategy would be to give each application a
//! fair share of the cores, so that the total number of worker threads
//! across all applications is equal to the total number of available CPU
//! cores" (§II). §III adds per-node variants: even splits within every
//! node, one whole NUMA node per application, and explicitly uneven
//! per-node counts. Each strategy here produces a validated
//! [`ThreadAssignment`]; [`fair_split`] gives the fair share as its
//! non-zero cells, for a caller that never reads the matrix, and
//! [`contain`] clamps one row of an existing assignment to its fair share.

use crate::{AllocError, Result};
use numa_topology::{Machine, NodeId};
use roofline_numa::ThreadAssignment;

/// Gives each application an equal share of every node's cores; the cores
/// left over on a node (when its core count is not divisible) are handed
/// out one per application, continuing round the applications from where
/// the previous node's left-overs stopped. The hand-out is one round-robin
/// over the whole machine, so per-application totals differ by at most one
/// and nobody gets nothing while the machine has a core per application —
/// this is the floor §II's "fair share of the cores" promises.
///
/// The matrix is written from [`fair_split`]'s cells, over a zeroed
/// assignment: a fleet of more applications than a node has cores pays
/// for its handed-out cores, not for its cells.
///
/// On the paper's 4x8 machine with 4 applications this is the (2,2,2,2)
/// allocation of Table II.
pub fn fair_share(machine: &Machine, num_apps: usize) -> Result<ThreadAssignment> {
    fill_fair(machine, num_apps, num_apps, |pos| pos)
}

/// [`fair_share`] over the applications whose `live` flag is set, in an
/// assignment with one row per flag: dead rows are zero, and the live rows
/// are `fair_share(machine, live_count)`'s rows in application order. This
/// is the reclaim after an outage — the survivors split the cores. No live
/// application is [`AllocError::NoApps`].
pub fn fair_share_among(machine: &Machine, live: &[bool]) -> Result<ThreadAssignment> {
    let mut rows = Vec::with_capacity(live.len());
    rows.extend((0..live.len()).filter(|&app| live[app]));
    fill_fair(machine, live.len(), rows.len(), |pos| rows[pos])
}

/// The fair split of `machine` among `sharers` applications, written into
/// a zeroed assignment of `num_rows` rows: the `pos`-th sharer's share goes
/// to row `row(pos)`, every other row stays zero.
fn fill_fair(
    machine: &Machine,
    num_rows: usize,
    sharers: usize,
    row: impl Fn(usize) -> usize,
) -> Result<ThreadAssignment> {
    let mut a = ThreadAssignment::zero(machine, num_rows);
    fair_split(machine, sharers, |pos, node, count| {
        a.set(row(pos), node, count)
    })?;
    debug_assert!(a.validate(machine).is_ok(), "the split is every core once");
    Ok(a)
}

/// [`fair_share`]'s split of `machine` among `sharers` applications as its
/// non-zero cells: `cell(pos, node, count)` for each node on which the
/// `pos`-th sharer gets `count > 0` cores, in ascending `(pos, node)` — the
/// order of the matrix's rows. No sharer is [`AllocError::NoApps`].
///
/// A node's split is two numbers: the share everybody gets, `cores /
/// sharers`, and where its `cores % sharers` left-over cores end on the
/// machine's hand-out, whose `k`-th left-over core goes to sharer `k mod
/// sharers`. So a sharer takes one left-over core a round of the hand-out,
/// and the node it takes it from only moves forward from one sharer to the
/// next: one cursor a round finds it. The cost is O(sharers × nodes with a
/// share + left-over cores + rounds × nodes), never sharers × nodes when no
/// node has cores enough to share out.
pub fn fair_split(
    machine: &Machine,
    sharers: usize,
    mut cell: impl FnMut(usize, NodeId, usize),
) -> Result<()> {
    if sharers == 0 {
        return Err(AllocError::NoApps);
    }
    // Per node: its share, the end of its left-over cores on the hand-out
    // and the next node with a share; and in entry `j`, the cursor of round
    // `j` — there are fewer rounds than nodes, as every node leaves fewer
    // than `sharers` cores over.
    let mut handed = 0;
    let mut splits: Vec<(usize, usize, usize, usize)> = machine
        .node_ids()
        .map(|node| {
            let cores = machine.node(node).num_cores();
            handed += cores % sharers;
            (cores / sharers, handed, 0, 0)
        })
        .collect();
    let num_nodes = splits.len();
    let mut first_shared = num_nodes;
    for (node, split) in splits.iter_mut().enumerate().rev() {
        split.2 = first_shared;
        if split.0 > 0 {
            first_shared = node;
        }
    }
    for pos in 0..sharers {
        // The sharer's next left-over core on the hand-out, and its round.
        let (mut k, mut round) = (pos, 0);
        let mut shared = first_shared;
        loop {
            let extra = if k < handed {
                let mut node = splits[round].3;
                while splits[node].1 <= k {
                    node += 1;
                }
                splits[round].3 = node;
                node
            } else {
                num_nodes
            };
            let node = shared.min(extra);
            if node == num_nodes {
                break;
            }
            cell(
                pos,
                NodeId(node),
                splits[node].0 + usize::from(node == extra),
            );
            if node == extra {
                (k, round) = (k + sharers, round + 1);
            }
            if node == shared {
                shared = splits[node].2;
            }
        }
    }
    Ok(())
}

/// Containment of a misbehaving application: clamps its per-node `row` to
/// its `fair` row, `row[n] = min(row[n], fair[n])`. It takes only what the
/// application holds above its fair share, in one step, and raises no cell,
/// so replacing one row of a feasible assignment with its contained row
/// keeps every node within its cores. Cells of `row` past `fair.len()` are
/// left alone.
pub fn contain(row: &mut [usize], fair: &[usize]) {
    for (held, &fair_n) in row.iter_mut().zip(fair) {
        *held = (*held).min(fair_n);
    }
}

/// Every application runs `counts[app]` threads on *every* node (the
/// paper's blocking-option-3 uniform allocations, e.g. `(1,1,1,5)` or
/// `(2,2,2,2)`).
pub fn uniform_per_node(machine: &Machine, counts: &[usize]) -> Result<ThreadAssignment> {
    if counts.is_empty() {
        return Err(AllocError::NoApps);
    }
    let a = ThreadAssignment::uniform_per_node(machine, counts);
    a.validate(machine)?;
    Ok(a)
}

/// Like [`ThreadAssignment::node_per_app`] ("give all cores in one NUMA
/// node to each application", Figure 2c) but with an explicit
/// application-to-node mapping,
/// so a NUMA-bad application can be put "on the right node" (§III.A):
/// application `i` gets all cores of `nodes[i]`. Nodes must be distinct.
pub fn node_per_app_mapped(machine: &Machine, nodes: &[NodeId]) -> Result<ThreadAssignment> {
    if nodes.is_empty() {
        return Err(AllocError::NoApps);
    }
    let mut seen = vec![false; machine.num_nodes()];
    let mut a = ThreadAssignment::zero(machine, nodes.len());
    for (app, &node) in nodes.iter().enumerate() {
        let n = machine
            .try_node(node)
            .map_err(|_| roofline_numa::ModelError::UnknownPlacementNode { node: node.0 })?;
        if std::mem::replace(&mut seen[node.0], true) {
            return Err(AllocError::ParameterShape {
                what: "node_per_app_mapped nodes (must be distinct)",
                expected: nodes.len(),
                actual: nodes.len(),
            });
        }
        a.set(app, node, n.num_cores());
    }
    a.validate(machine)?;
    Ok(a)
}

/// Splits every node's cores between applications proportionally to
/// `weights`, largest-remainder rounding per node. Weights must be
/// non-negative, finite, and not all zero.
pub fn proportional(machine: &Machine, weights: &[f64]) -> Result<ThreadAssignment> {
    if weights.is_empty() {
        return Err(AllocError::NoApps);
    }
    if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) || weights.iter().all(|&w| w == 0.0) {
        return Err(AllocError::BadWeights);
    }
    let mut a = ThreadAssignment::zero(machine, weights.len());
    for node in machine.node_ids() {
        let counts = largest_remainder(machine.node(node).num_cores(), weights);
        for (app, &c) in counts.iter().enumerate() {
            a.set(app, node, c);
        }
    }
    a.validate(machine)?;
    Ok(a)
}

/// Splits `cores` proportionally to `weights` by largest remainder
/// (Hamilton): each entry takes its quota's floor, then the cores left go
/// one each in order of largest fractional part, ties to the lower index.
/// A weight that is not positive and finite counts as 0; if none is
/// positive, every count is 0.
pub fn largest_remainder(cores: usize, weights: &[f64]) -> Vec<usize> {
    let weight = |&w: &f64| if w > 0.0 && w.is_finite() { w } else { 0.0 };
    let total: f64 = weights.iter().map(weight).sum();
    if total <= 0.0 {
        return vec![0; weights.len()];
    }
    let quotas: Vec<f64> = weights
        .iter()
        .map(|w| weight(w) / total * cores as f64)
        .collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let left = cores.saturating_sub(counts.iter().sum());
    let remainder = |i: usize| quotas[i] - counts[i] as f64;
    // A stable sort: equal remainders keep index order.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&i, &j| remainder(j).total_cmp(&remainder(i)));
    for &i in order.iter().cycle().take(left) {
        counts[i] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::{paper_model_machine, tiny};
    use numa_topology::MachineBuilder;

    #[test]
    fn fair_share_divisible() {
        let m = paper_model_machine(); // 8 cores/node
        let a = fair_share(&m, 4).unwrap();
        for node in m.node_ids() {
            for app in 0..4 {
                assert_eq!(a.get(app, node), 2);
            }
        }
        assert_eq!(a.total(), 32);
    }

    #[test]
    fn fair_share_with_remainder_uses_all_cores() {
        let m = paper_model_machine();
        let a = fair_share(&m, 3).unwrap(); // 8 = 3*2 + 2
        for node in m.node_ids() {
            assert_eq!(a.node_total(node), 8, "every core allocated");
        }
        // Each app gets at least the base share everywhere.
        for app in 0..3 {
            for node in m.node_ids() {
                assert!(a.get(app, node) >= 2);
            }
        }
        // The remainder rotates: machine-wide totals differ by at most
        // one remainder round.
        let totals: Vec<usize> = (0..3).map(|app| a.app_total(app)).collect();
        let spread = totals.iter().max().unwrap() - totals.iter().min().unwrap();
        assert!(spread <= 2, "rotation keeps totals close: {totals:?}");
    }

    #[test]
    fn fair_share_more_apps_than_cores() {
        let m = tiny(); // 2 nodes x 2 cores
        let a = fair_share(&m, 3).unwrap();
        for node in m.node_ids() {
            assert!(a.node_total(node) <= 2);
        }
        // All cores still handed out.
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn uniform_rejects_oversubscription() {
        let m = tiny();
        assert!(uniform_per_node(&m, &[2, 1]).is_err());
        assert!(uniform_per_node(&m, &[1, 1]).is_ok());
        assert!(uniform_per_node(&m, &[]).is_err());
    }

    #[test]
    fn node_per_app_mapped_places_bad_app() {
        let m = paper_model_machine();
        let a = node_per_app_mapped(&m, &[NodeId(1), NodeId(3), NodeId(0), NodeId(2)]).unwrap();
        assert_eq!(a.get(0, NodeId(1)), 8);
        assert_eq!(a.get(1, NodeId(3)), 8);
        assert_eq!(a.get(0, NodeId(0)), 0);
        // Duplicate nodes rejected.
        assert!(node_per_app_mapped(&m, &[NodeId(0), NodeId(0)]).is_err());
        // Unknown node rejected.
        assert!(node_per_app_mapped(&m, &[NodeId(7)]).is_err());
    }

    #[test]
    fn proportional_respects_weights() {
        let m = paper_model_machine();
        let a = proportional(&m, &[3.0, 1.0]).unwrap();
        for node in m.node_ids() {
            assert_eq!(a.get(0, node), 6);
            assert_eq!(a.get(1, node), 2);
        }
    }

    #[test]
    fn proportional_largest_remainder() {
        // 8 cores, weights 1:1:1 -> quotas 2.67 each -> 3,3,2 (ties by index).
        let m = paper_model_machine();
        let a = proportional(&m, &[1.0, 1.0, 1.0]).unwrap();
        for node in m.node_ids() {
            assert_eq!(a.node_total(node), 8);
            let counts: Vec<usize> = (0..3).map(|app| a.get(app, node)).collect();
            let max = counts.iter().max().unwrap();
            let min = counts.iter().min().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn proportional_zero_weight_app_gets_nothing() {
        let m = paper_model_machine();
        let a = proportional(&m, &[1.0, 0.0]).unwrap();
        assert_eq!(a.app_total(1), 0);
        assert_eq!(a.app_total(0), 32);
        assert!(proportional(&m, &[0.0, 0.0]).is_err());
        assert!(proportional(&m, &[-1.0, 1.0]).is_err());
    }

    #[test]
    fn strategies_work_on_asymmetric_machines() {
        let m = MachineBuilder::new()
            .add_node(6, 30.0, 16.0)
            .add_node(10, 50.0, 16.0)
            .core_peak_gflops(5.0)
            .uniform_link_gbs(5.0)
            .build()
            .unwrap();
        let a = fair_share(&m, 2).unwrap();
        assert_eq!(a.node_total(NodeId(0)), 6);
        assert_eq!(a.node_total(NodeId(1)), 10);
        let p = proportional(&m, &[1.0, 4.0]).unwrap();
        assert_eq!(p.node_total(NodeId(0)), 6);
        assert_eq!(p.node_total(NodeId(1)), 10);
        assert!(p.app_total(1) > p.app_total(0));
    }
}
