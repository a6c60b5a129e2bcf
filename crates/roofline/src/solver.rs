//! The bandwidth-arbitration solver.
//!
//! The solve proceeds in two phases per NUMA node, exactly following the
//! paper's model (§III.A and its cross-node extension):
//!
//! 1. **Remote-first stage.** Each node's memory serves requests arriving
//!    from threads homed on *other* nodes, up to the link bandwidth from
//!    each remote node. If the sum of remote grants would exceed the node's
//!    capacity, all remote grants are scaled down proportionally (the paper
//!    never exercises this corner; we define it so the model is total).
//! 2. **Local arbitration.** The remaining capacity `C'` is shared among
//!    threads homed on the node: a per-core *baseline* `b = C' / cores` is
//!    guaranteed to every thread (capped by its demand), and the remainder
//!    is split proportionally to each thread's demand above the baseline,
//!    capped at its demand.
//!
//! Because the proportional split assigns each unsatisfied thread
//! `min(need, R * need / total_need)`, either the remainder covers all
//! needs (everyone satisfied) or it is exhausted in a single proportional
//! round — no iteration is required, and for equal demands the split is
//! exactly the even division shown in the paper's Tables I and II.
//!
//! A thread's performance is `min(core peak GFLOPS, AI * granted GB/s)`,
//! summed over the bandwidth granted by every target node.

use crate::report::{AppReport, NodeReport, ThreadGrant};
use crate::{AppSpec, ModelError, Result, SolveReport, ThreadAssignment};
use numa_topology::{Machine, NodeId};

/// Numerical slack used when comparing demands and grants.
const EPS: f64 = 1e-12;

/// How the guaranteed per-thread baseline is computed in the local stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BaselinePolicy {
    /// `baseline = remaining capacity / number of cores` — the paper's rule
    /// (idle cores "waste" their share, which is then re-distributed via the
    /// proportional remainder). This matches Tables I–III.
    #[default]
    PerCore,
    /// `baseline = remaining capacity / number of threads present` — a
    /// variant for ablation studies; with it the baseline stage alone
    /// saturates the node whenever demand is sufficient.
    PerActiveThread,
}

/// Solver options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveOptions {
    /// Baseline rule for the local arbitration stage.
    pub baseline: BaselinePolicy,
}

/// Reusable flat-array workspace for the arbitration phases.
///
/// A solve needs per-`(app, home)` thread counts, per-`(app, home, target)`
/// demand/grant matrices and a handful of per-node accumulators. Allocating
/// them per candidate dominates search cost, so the solver keeps them in one
/// scratch object the caller can reuse across candidates: [`solve_gflops`]
/// writes into a borrowed `SolveScratch` and returns a slice view instead of
/// building a [`SolveReport`].
///
/// Layouts (row-major): `counts[app * nodes + home]`,
/// `demand_to[(app * nodes + home) * nodes + target]` (same for grants).
#[derive(Debug, Default, Clone)]
pub struct SolveScratch {
    num_apps: usize,
    num_nodes: usize,
    counts: Vec<usize>,
    demand_to: Vec<f64>,
    granted_to: Vec<f64>,
    demand_from: Vec<f64>,
    served_from: Vec<f64>,
    served_remote: Vec<f64>,
    served_local: Vec<f64>,
    baseline: Vec<f64>,
    node_gflops: Vec<f64>,
    app_gflops: Vec<f64>,
    app_bandwidth: Vec<f64>,
}

impl SolveScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        SolveScratch::default()
    }

    /// Per-app GFLOPS totals from the most recent solve.
    pub(crate) fn app_gflops(&self) -> &[f64] {
        &self.app_gflops
    }

    fn resize(&mut self, num_apps: usize, num_nodes: usize) {
        self.num_apps = num_apps;
        self.num_nodes = num_nodes;
        self.counts.resize(num_apps * num_nodes, 0);
        self.demand_to.resize(num_apps * num_nodes * num_nodes, 0.0);
        self.granted_to
            .resize(num_apps * num_nodes * num_nodes, 0.0);
        self.demand_from.resize(num_nodes, 0.0);
        self.served_from.resize(num_nodes, 0.0);
        self.served_remote.resize(num_nodes, 0.0);
        self.served_local.resize(num_nodes, 0.0);
        self.baseline.resize(num_nodes, 0.0);
        self.node_gflops.resize(num_nodes, 0.0);
        self.app_gflops.resize(num_apps, 0.0);
        self.app_bandwidth.resize(num_apps, 0.0);
    }
}

/// Runs the model with default options. See [`solve_with_options`].
pub fn solve(
    machine: &Machine,
    apps: &[AppSpec],
    assignment: &ThreadAssignment,
) -> Result<SolveReport> {
    solve_with_options(machine, apps, assignment, SolveOptions::default())
}

/// The arbitration engine: validates inputs, fills the scratch demand/count
/// matrices, and runs both phases plus the GFLOPS rollup. All accumulations
/// iterate `(app asc, home asc)` skipping empty groups, so results are
/// bit-identical to the historical `Vec<Group>` implementation.
pub(crate) fn arbitrate(
    machine: &Machine,
    apps: &[AppSpec],
    assignment: &ThreadAssignment,
    options: SolveOptions,
    s: &mut SolveScratch,
) -> Result<()> {
    for app in apps {
        app.validate(machine)?;
    }
    assignment.validate(machine)?;
    if assignment.num_apps() != apps.len() {
        return Err(ModelError::AppCountMismatch {
            specs: apps.len(),
            assignment: assignment.num_apps(),
        });
    }

    let num_apps = apps.len();
    let num_nodes = machine.num_nodes();
    let peak = machine.core_peak_gflops();
    s.resize(num_apps, num_nodes);

    // Per-thread demand toward each target: independent of thread counts,
    // but cheap enough to refresh every solve (keeps the scratch stateless
    // with respect to the (machine, apps) context).
    for (a, app) in apps.iter().enumerate() {
        let demand = app.demand_per_thread_gbs(peak);
        for home in 0..num_nodes {
            let row = (a * num_nodes + home) * num_nodes;
            for t in 0..num_nodes {
                s.demand_to[row + t] =
                    demand * app.placement.fraction(NodeId(home), NodeId(t), num_nodes);
            }
        }
    }
    s.granted_to.fill(0.0);
    for a in 0..num_apps {
        for home in 0..num_nodes {
            s.counts[a * num_nodes + home] = assignment.get(a, NodeId(home));
        }
    }

    // ---- Phase 1: remote-first service on every node -------------------
    for target in 0..num_nodes {
        let capacity = machine.node(NodeId(target)).bandwidth_gbs;

        // Aggregate remote demand per source node, capped by the link.
        // served[s] = min(sum of demand from node s, link(s, target)).
        s.demand_from.fill(0.0);
        for a in 0..num_apps {
            for home in 0..num_nodes {
                let count = s.counts[a * num_nodes + home];
                if count == 0 || home == target {
                    continue;
                }
                s.demand_from[home] +=
                    count as f64 * s.demand_to[(a * num_nodes + home) * num_nodes + target];
            }
        }
        for src in 0..num_nodes {
            s.served_from[src] = if src == target {
                0.0
            } else {
                s.demand_from[src].min(machine.links().link(NodeId(src), NodeId(target)))
            };
        }

        // If remote service alone would exceed capacity, scale it down.
        let total_remote: f64 = s.served_from.iter().sum();
        if total_remote > capacity {
            let scale = capacity / total_remote;
            for v in s.served_from.iter_mut() {
                *v *= scale;
            }
        }

        // Distribute each source's served bandwidth over its groups,
        // proportionally to their demand toward this target.
        for a in 0..num_apps {
            for home in 0..num_nodes {
                let count = s.counts[a * num_nodes + home];
                if count == 0 || home == target {
                    continue;
                }
                let idx = (a * num_nodes + home) * num_nodes + target;
                let d = count as f64 * s.demand_to[idx];
                if d > EPS && s.demand_from[home] > EPS {
                    let share = s.served_from[home] * d / s.demand_from[home];
                    s.granted_to[idx] = share / count as f64;
                }
            }
        }

        s.served_remote[target] = s.served_from.iter().sum();
    }

    // ---- Phase 2: local arbitration on every node -----------------------
    for target in 0..num_nodes {
        let node = machine.node(NodeId(target));
        let remaining = (node.bandwidth_gbs - s.served_remote[target]).max(0.0);

        let mut thread_count = 0usize;
        for a in 0..num_apps {
            thread_count += s.counts[a * num_nodes + target];
        }
        let divisor = match options.baseline {
            BaselinePolicy::PerCore => node.num_cores(),
            BaselinePolicy::PerActiveThread => thread_count.max(1),
        };
        let baseline = remaining / divisor as f64;
        s.baseline[target] = baseline;

        // Stage 2a: everyone gets min(demand, baseline).
        let mut used = 0.0f64;
        for a in 0..num_apps {
            let count = s.counts[a * num_nodes + target];
            if count == 0 {
                continue;
            }
            let idx = (a * num_nodes + target) * num_nodes + target;
            let grant = s.demand_to[idx].min(baseline);
            s.granted_to[idx] = grant;
            used += count as f64 * grant;
        }

        // Stage 2b: split the remainder proportionally to unmet need.
        let mut rest = (remaining - used).max(0.0);
        let mut total_need = 0.0f64;
        for a in 0..num_apps {
            let count = s.counts[a * num_nodes + target];
            if count == 0 {
                continue;
            }
            let idx = (a * num_nodes + target) * num_nodes + target;
            total_need += count as f64 * (s.demand_to[idx] - s.granted_to[idx]).max(0.0);
        }
        if total_need > EPS && rest > EPS {
            let ratio = (rest / total_need).min(1.0);
            for a in 0..num_apps {
                let count = s.counts[a * num_nodes + target];
                if count == 0 {
                    continue;
                }
                let idx = (a * num_nodes + target) * num_nodes + target;
                let need = (s.demand_to[idx] - s.granted_to[idx]).max(0.0);
                let extra = ratio * need;
                s.granted_to[idx] += extra;
                rest -= count as f64 * extra;
            }
        }
        let _ = rest;

        let mut served_local = 0.0f64;
        for a in 0..num_apps {
            let count = s.counts[a * num_nodes + target];
            if count == 0 {
                continue;
            }
            let idx = (a * num_nodes + target) * num_nodes + target;
            served_local += count as f64 * s.granted_to[idx];
        }
        s.served_local[target] = served_local;
    }

    // ---- Roll up: per-thread GFLOPS, per-app and per-node totals --------
    s.app_gflops.fill(0.0);
    s.app_bandwidth.fill(0.0);
    s.node_gflops.fill(0.0);
    for (a, app) in apps.iter().enumerate() {
        for home in 0..num_nodes {
            let count = s.counts[a * num_nodes + home];
            if count == 0 {
                continue;
            }
            let row = (a * num_nodes + home) * num_nodes;
            let granted: f64 = s.granted_to[row..row + num_nodes].iter().sum();
            let gflops = (app.ai * granted).min(peak);
            s.app_gflops[a] += count as f64 * gflops;
            s.app_bandwidth[a] += count as f64 * granted;
            s.node_gflops[home] += count as f64 * gflops;
        }
    }

    Ok(())
}

/// One node's local stage in closed form, for scoring many thread columns
/// of NUMA-local applications on one node shape.
///
/// With no remote demand (every application [`DataPlacement::Local`]), a
/// node's arbitration depends only on its own column of thread counts
/// `t`. Each thread of app `a` first gets `u_a = min(demand_a, baseline)`
/// and keeps an unmet need `n_a`; the remainder `C − U` is split over
/// `N`, so the node delivers `A + r·B` GFLOPS with `r = min(1, (C − U)/N)`,
/// where `U = Σ t_a·u_a`, `N = Σ t_a·n_a`, and `A`, `B` are the same two
/// sums weighted by AI. All four are linear in `t`, so a caller walking
/// columns can keep them as running sums ([`terms`](LocalColumn::terms))
/// and close each column in O(1) ([`gflops`](LocalColumn::gflops)). `U`
/// and `N` accumulate exactly as the solver's local stage does; the
/// delivered GFLOPS equal the solver's node GFLOPS up to rounding.
///
/// [`DataPlacement::Local`]: crate::DataPlacement::Local
#[derive(Debug, Clone, PartialEq)]
pub struct LocalColumn {
    capacity: f64,
    /// Per app, per thread: `[u, n, ai·u, ai·n]`.
    terms: Vec<[f64; 4]>,
}

impl LocalColumn {
    /// The local stage of `node` for `apps` under the paper's per-core
    /// baseline. `None` if an application is not NUMA-local (its remote
    /// traffic couples nodes) or fails validation.
    pub fn new(machine: &Machine, node: NodeId, apps: &[AppSpec]) -> Option<LocalColumn> {
        let spec = machine.node(node);
        let peak = machine.core_peak_gflops();
        let capacity = spec.bandwidth_gbs.max(0.0);
        let baseline = capacity / spec.num_cores() as f64;
        let terms = apps
            .iter()
            .map(|app| {
                let local = matches!(app.placement, crate::DataPlacement::Local);
                (local && app.validate(machine).is_ok()).then(|| {
                    let demand = app.demand_per_thread_gbs(peak);
                    let grant = demand.min(baseline);
                    let need = (demand - grant).max(0.0);
                    [grant, need, app.ai * grant, app.ai * need]
                })
            })
            .collect::<Option<_>>()?;
        Some(LocalColumn { capacity, terms })
    }

    /// App `app`'s per-thread contribution to the four sums `[U, N, A, B]`.
    #[inline]
    pub fn terms(&self, app: usize) -> [f64; 4] {
        self.terms[app]
    }

    /// The node's GFLOPS from the four sums `[U, N, A, B]`.
    #[inline]
    pub fn gflops(&self, [used, need, a, b]: [f64; 4]) -> f64 {
        let rest = (self.capacity - used).max(0.0);
        // Both arms computed, so the choice compiles to a select: columns
        // come in no order that a branch predictor could follow.
        let ratio = (rest / need).min(1.0);
        let ratio = if need > EPS && rest > EPS { ratio } else { 0.0 };
        a + ratio * b
    }
}

/// Allocation-free solve for search hot loops: arbitrates into the caller's
/// [`SolveScratch`] and returns the per-app GFLOPS slice. Produces exactly
/// the values `solve_with_options` would report as `AppReport::gflops`,
/// without cloning app names, building reports, or allocating per candidate
/// (after the scratch buffers have grown once).
pub fn solve_gflops<'a>(
    machine: &Machine,
    apps: &[AppSpec],
    assignment: &ThreadAssignment,
    options: SolveOptions,
    scratch: &'a mut SolveScratch,
) -> Result<&'a [f64]> {
    arbitrate(machine, apps, assignment, options, scratch)?;
    Ok(&scratch.app_gflops)
}

/// Runs the model: validates inputs, arbitrates bandwidth on every node,
/// and rolls the grants up into a [`SolveReport`].
pub fn solve_with_options(
    machine: &Machine,
    apps: &[AppSpec],
    assignment: &ThreadAssignment,
    options: SolveOptions,
) -> Result<SolveReport> {
    let mut s = SolveScratch::new();
    arbitrate(machine, apps, assignment, options, &mut s)?;

    let num_nodes = machine.num_nodes();
    let peak = machine.core_peak_gflops();

    let app_reports: Vec<AppReport> = apps
        .iter()
        .enumerate()
        .map(|(a, app)| AppReport {
            name: app.name.clone(),
            ai: app.ai,
            threads: assignment.app_total(a),
            gflops: s.app_gflops[a],
            bandwidth_gbs: s.app_bandwidth[a],
        })
        .collect();

    let node_reports: Vec<NodeReport> = machine
        .nodes()
        .map(|n| NodeReport {
            node: n.id,
            capacity_gbs: n.bandwidth_gbs,
            served_remote_gbs: s.served_remote[n.id.0],
            served_local_gbs: s.served_local[n.id.0],
            baseline_gbs: s.baseline[n.id.0],
            gflops: s.node_gflops[n.id.0],
        })
        .collect();

    let mut grants = Vec::new();
    for (a, app) in apps.iter().enumerate() {
        for home in 0..num_nodes {
            let count = s.counts[a * num_nodes + home];
            if count == 0 {
                continue;
            }
            let row = (a * num_nodes + home) * num_nodes;
            let granted_by_target = s.granted_to[row..row + num_nodes].to_vec();
            let granted: f64 = granted_by_target.iter().sum();
            let demand: f64 = s.demand_to[row..row + num_nodes].iter().sum();
            grants.push(ThreadGrant {
                app: a,
                home: NodeId(home),
                count,
                demand_gbs: demand,
                granted_gbs: granted,
                granted_by_target,
                gflops: (app.ai * granted).min(peak),
            });
        }
    }

    Ok(SolveReport {
        machine: machine.name().to_string(),
        apps: app_reports,
        nodes: node_reports,
        groups: grants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppSpec;
    use numa_topology::presets::{
        paper_crossnode_machine, paper_model_machine, paper_skylake_machine, tiny,
    };

    fn paper_apps() -> Vec<AppSpec> {
        vec![
            AppSpec::numa_local("mem1", 0.5),
            AppSpec::numa_local("mem2", 0.5),
            AppSpec::numa_local("mem3", 0.5),
            AppSpec::numa_local("comp", 10.0),
        ]
    }

    /// Table I: uneven allocation (1,1,1,5) -> 63.5 GFLOPS/node, 254 total.
    #[test]
    fn table_1_uneven_allocation() {
        let m = paper_model_machine();
        let a = ThreadAssignment::uniform_per_node(&m, &[1, 1, 1, 5]);
        let r = solve(&m, &paper_apps(), &a).unwrap();

        // Per-thread grants (Table I rows).
        for app in 0..3 {
            let g = r.group(app, NodeId(0)).unwrap();
            assert!((g.demand_gbs - 20.0).abs() < 1e-9, "peak bw per mem thread");
            assert!(
                (g.granted_gbs - 9.0).abs() < 1e-9,
                "4 baseline + 5 remainder"
            );
            assert!((g.gflops - 4.5).abs() < 1e-9);
        }
        let comp = r.group(3, NodeId(0)).unwrap();
        assert!((comp.demand_gbs - 1.0).abs() < 1e-9);
        assert!((comp.granted_gbs - 1.0).abs() < 1e-9);
        assert!((comp.gflops - 10.0).abs() < 1e-9);
        assert!(comp.granted_gbs >= comp.demand_gbs - 1e-9);

        // Rollups.
        assert!(
            (r.nodes[0].gflops - 63.5).abs() < 1e-9,
            "total GFLOPS per node"
        );
        assert!((r.total_gflops() - 254.0).abs() < 1e-9, "total GFLOPS");
        assert!(
            (r.app_gflops(3) - 200.0).abs() < 1e-9,
            "compute app 4 nodes x 50"
        );
        assert!(
            (r.app_gflops(0) - 18.0).abs() < 1e-9,
            "memory app 4 nodes x 4.5"
        );
        // Allocated node bandwidth: 17 (baseline stage) + 15 (remainder) = 32.
        assert!((r.nodes[0].served_local_gbs - 32.0).abs() < 1e-9);
        assert!((r.nodes[0].baseline_gbs - 4.0).abs() < 1e-9);
        assert_eq!(r.nodes[0].served_remote_gbs, 0.0);
    }

    /// Table II: even allocation (2,2,2,2) -> 35 GFLOPS/node, 140 total.
    #[test]
    fn table_2_even_allocation() {
        let m = paper_model_machine();
        let a = ThreadAssignment::uniform_per_node(&m, &[2, 2, 2, 2]);
        let r = solve(&m, &paper_apps(), &a).unwrap();

        for app in 0..3 {
            let g = r.group(app, NodeId(1)).unwrap();
            assert!(
                (g.granted_gbs - 5.0).abs() < 1e-9,
                "4 baseline + 1 remainder"
            );
            assert!((g.gflops - 2.5).abs() < 1e-9);
        }
        let comp = r.group(3, NodeId(1)).unwrap();
        assert!((comp.granted_gbs - 1.0).abs() < 1e-9);
        assert!((comp.gflops - 10.0).abs() < 1e-9);

        assert!((r.nodes[2].gflops - 35.0).abs() < 1e-9);
        assert!((r.total_gflops() - 140.0).abs() < 1e-9);
    }

    /// Figure 2c: one whole NUMA node per application -> 128 total.
    #[test]
    fn figure_2c_node_per_app() {
        let m = paper_model_machine();
        let a = ThreadAssignment::node_per_app(&m, 4).unwrap();
        let r = solve(&m, &paper_apps(), &a).unwrap();

        // Memory-bound nodes saturate at 32 GB/s -> 16 GFLOPS each.
        for app in 0..3 {
            assert!((r.app_gflops(app) - 16.0).abs() < 1e-9);
        }
        // Compute-bound node reaches peak 8 x 10 GFLOPS.
        assert!((r.app_gflops(3) - 80.0).abs() < 1e-9);
        assert!((r.total_gflops() - 128.0).abs() < 1e-9);
    }

    /// Figure 3: NUMA-bad application, even vs whole-node allocation.
    /// Even -> 138.75 (paper rounds to 138); whole-node -> 150.
    #[test]
    fn figure_3_numa_bad_reverses_ranking() {
        let m = paper_crossnode_machine();
        let apps = vec![
            AppSpec::numa_local("perf1", 0.5),
            AppSpec::numa_local("perf2", 0.5),
            AppSpec::numa_local("perf3", 0.5),
            AppSpec::numa_bad("bad", 1.0, NodeId(3)),
        ];

        let even = ThreadAssignment::uniform_per_node(&m, &[2, 2, 2, 2]);
        let r_even = solve(&m, &apps, &even).unwrap();
        assert!(
            (r_even.total_gflops() - 138.75).abs() < 1e-9,
            "even allocation, got {}",
            r_even.total_gflops()
        );

        // Whole-node allocation with the NUMA-bad app on its data node.
        let mut whole = ThreadAssignment::zero(&m, 4);
        for app in 0..3 {
            whole.set(app, NodeId(app), 8);
        }
        whole.set(3, NodeId(3), 8);
        let r_whole = solve(&m, &apps, &whole).unwrap();
        assert!(
            (r_whole.total_gflops() - 150.0).abs() < 1e-9,
            "whole-node allocation, got {}",
            r_whole.total_gflops()
        );

        // The point of the figure: the ranking reverses relative to Fig 2.
        assert!(r_whole.total_gflops() > r_even.total_gflops());
    }

    fn skylake_apps_local() -> Vec<AppSpec> {
        vec![
            AppSpec::numa_local("mem1", 1.0 / 32.0),
            AppSpec::numa_local("mem2", 1.0 / 32.0),
            AppSpec::numa_local("mem3", 1.0 / 32.0),
            AppSpec::numa_local("comp", 1.0),
        ]
    }

    /// Table III row 1 (uneven 1,1,1,17): model 23.20 GFLOPS.
    #[test]
    fn table_3_row_1_uneven() {
        let m = paper_skylake_machine();
        let a = ThreadAssignment::uniform_per_node(&m, &[1, 1, 1, 17]);
        let r = solve(&m, &skylake_apps_local(), &a).unwrap();
        assert!(
            (r.total_gflops() - 23.20).abs() < 5e-3,
            "got {}",
            r.total_gflops()
        );
        // Everyone reaches peak: 80 threads x 0.29.
        assert!((r.total_gflops() - 80.0 * 0.29).abs() < 1e-9);
    }

    /// Table III row 2 (even 5,5,5,5): model 18.12 GFLOPS. This is the
    /// scenario the paper calibrated against.
    #[test]
    fn table_3_row_2_even() {
        let m = paper_skylake_machine();
        let a = ThreadAssignment::uniform_per_node(&m, &[5, 5, 5, 5]);
        let r = solve(&m, &skylake_apps_local(), &a).unwrap();
        assert!(
            (r.total_gflops() - 18.12).abs() < 5e-3,
            "got {}",
            r.total_gflops()
        );
    }

    /// Table III row 3 (whole node per app): model 15.18 GFLOPS.
    #[test]
    fn table_3_row_3_per_node() {
        let m = paper_skylake_machine();
        let a = ThreadAssignment::node_per_app(&m, 4).unwrap();
        let r = solve(&m, &skylake_apps_local(), &a).unwrap();
        assert!(
            (r.total_gflops() - 15.18).abs() < 5e-3,
            "got {}",
            r.total_gflops()
        );
    }

    /// Table III row 4 (NUMA-bad, cross-node, even): model 13.98 GFLOPS.
    #[test]
    fn table_3_row_4_numa_bad_cross_node() {
        let m = paper_skylake_machine();
        let apps = vec![
            AppSpec::numa_local("mem1", 1.0 / 32.0),
            AppSpec::numa_local("mem2", 1.0 / 32.0),
            AppSpec::numa_local("mem3", 1.0 / 32.0),
            AppSpec::numa_bad("bad", 1.0 / 16.0, NodeId(0)),
        ];
        let a = ThreadAssignment::uniform_per_node(&m, &[5, 5, 5, 5]);
        let r = solve(&m, &apps, &a).unwrap();
        assert!(
            (r.total_gflops() - 13.98).abs() < 5e-3,
            "got {}",
            r.total_gflops()
        );
    }

    /// Table III row 5 (NUMA-bad on its own node, whole-node allocation):
    /// model 15.18 GFLOPS — identical to row 3 because the on-node bad app
    /// is not bandwidth-starved.
    #[test]
    fn table_3_row_5_numa_bad_on_node() {
        let m = paper_skylake_machine();
        let apps = vec![
            AppSpec::numa_local("mem1", 1.0 / 32.0),
            AppSpec::numa_local("mem2", 1.0 / 32.0),
            AppSpec::numa_local("mem3", 1.0 / 32.0),
            AppSpec::numa_bad("bad", 1.0 / 16.0, NodeId(3)),
        ];
        let a = ThreadAssignment::node_per_app(&m, 4).unwrap();
        let r = solve(&m, &apps, &a).unwrap();
        assert!(
            (r.total_gflops() - 15.18).abs() < 5e-3,
            "got {}",
            r.total_gflops()
        );
    }

    #[test]
    fn conservation_per_node() {
        let m = paper_skylake_machine();
        let apps = vec![
            AppSpec::numa_local("mem", 1.0 / 32.0),
            AppSpec::numa_bad("bad", 1.0 / 16.0, NodeId(0)),
        ];
        let a = ThreadAssignment::uniform_per_node(&m, &[10, 10]);
        let r = solve(&m, &apps, &a).unwrap();
        for n in &r.nodes {
            assert!(
                n.served_remote_gbs + n.served_local_gbs <= n.capacity_gbs + 1e-9,
                "node {:?} over capacity",
                n.node
            );
        }
        // Grants never exceed demands.
        for g in &r.groups {
            assert!(g.granted_gbs <= g.demand_gbs + 1e-9);
        }
    }

    #[test]
    fn app_count_mismatch_rejected() {
        let m = tiny();
        let apps = vec![AppSpec::numa_local("a", 1.0)];
        let a = ThreadAssignment::uniform_per_node(&m, &[1, 1]);
        assert!(matches!(
            solve(&m, &apps, &a),
            Err(ModelError::AppCountMismatch {
                specs: 1,
                assignment: 2
            })
        ));
    }

    #[test]
    fn empty_assignment_yields_zero() {
        let m = tiny();
        let apps = vec![AppSpec::numa_local("a", 1.0)];
        let a = ThreadAssignment::zero(&m, 1);
        let r = solve(&m, &apps, &a).unwrap();
        assert_eq!(r.total_gflops(), 0.0);
        assert!(r.groups.is_empty());
    }

    #[test]
    fn per_active_thread_baseline_option() {
        // With PerActiveThread, a lone memory-bound thread on a node gets
        // the whole node bandwidth in the baseline stage already.
        let m = paper_model_machine();
        let apps = vec![AppSpec::numa_local("mem", 0.5)];
        let a = ThreadAssignment::uniform_per_node(&m, &[1]);
        let opts = SolveOptions {
            baseline: BaselinePolicy::PerActiveThread,
        };
        let r = solve_with_options(&m, &apps, &a, opts).unwrap();
        // demand 20 GB/s < 32 GB/s baseline -> fully satisfied.
        let g = r.group(0, NodeId(0)).unwrap();
        assert!(g.granted_gbs >= g.demand_gbs - 1e-9);
        assert!((g.gflops - 10.0).abs() < 1e-9);
        // Default per-core baseline gives the same grant here via remainder.
        let r2 = solve(&m, &apps, &a).unwrap();
        assert!((r2.group(0, NodeId(0)).unwrap().granted_gbs - 20.0).abs() < 1e-9);
    }

    #[test]
    fn remote_grants_capped_by_link() {
        // One NUMA-bad app homed entirely on node 1, data on node 0.
        let m = paper_crossnode_machine(); // link 10 GB/s
        let apps = vec![AppSpec::numa_bad("bad", 1.0, NodeId(0))];
        let mut a = ThreadAssignment::zero(&m, 1);
        a.set(0, NodeId(1), 8); // 8 threads x 10 GB/s demand = 80 > link 10
        let r = solve(&m, &apps, &a).unwrap();
        let g = r.group(0, NodeId(1)).unwrap();
        // The 10 GB/s link is shared by 8 threads.
        assert!((g.granted_gbs - 10.0 / 8.0).abs() < 1e-9);
        assert!((r.nodes[0].served_remote_gbs - 10.0).abs() < 1e-9);
        assert_eq!(r.nodes[1].served_local_gbs, 0.0);
    }

    #[test]
    fn remote_scaled_when_capacity_exceeded() {
        // Three source nodes, each with link 10, targeting a node with only
        // 24 GB/s capacity: remote service must be scaled 24/30.
        let m = numa_topology::MachineBuilder::new()
            .symmetric_nodes(4, 8)
            .core_peak_gflops(10.0)
            .node_bandwidth_gbs(24.0)
            .uniform_link_gbs(10.0)
            .build()
            .unwrap();
        let apps = vec![AppSpec::numa_bad("bad", 0.5, NodeId(0))];
        let mut a = ThreadAssignment::zero(&m, 1);
        for n in 1..4 {
            a.set(0, NodeId(n), 8); // demand 8 x 20 = 160 per node >> link
        }
        let r = solve(&m, &apps, &a).unwrap();
        assert!((r.nodes[0].served_remote_gbs - 24.0).abs() < 1e-9);
        for n in 1..4 {
            let g = r.group(0, NodeId(n)).unwrap();
            assert!(
                (g.count as f64 * g.granted_gbs - 8.0).abs() < 1e-9,
                "10 * 24/30 per source node"
            );
        }
    }

    #[test]
    fn solver_is_deterministic() {
        let m = paper_skylake_machine();
        let apps = skylake_apps_local();
        let a = ThreadAssignment::uniform_per_node(&m, &[5, 5, 5, 5]);
        let r1 = solve(&m, &apps, &a).unwrap();
        let r2 = solve(&m, &apps, &a).unwrap();
        assert_eq!(r1, r2);
    }
}
