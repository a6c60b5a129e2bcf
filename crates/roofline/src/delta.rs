//! Incremental re-solving for local-search moves.
//!
//! A hill-climb or annealing move changes the thread counts of at most two
//! NUMA nodes. When every application keeps its data NUMA-local (the
//! [`DataPlacement::Local`] placement), the arbitration model is *separable
//! per node*: phase 1 serves no remote traffic, and the bandwidth each node
//! grants depends only on the threads homed there. [`DeltaSolver`] exploits
//! that: it caches the per-`(app, node)` GFLOPS contributions of a base
//! assignment and re-solves only the touched node columns for each probe,
//! turning an `O(apps × nodes²)` full solve into an `O(apps × touched)`
//! column update.
//!
//! Any non-local placement couples nodes through the link matrix, so the
//! solver detects that case up front ([`DeltaSolver::is_separable`]) and
//! transparently falls back to full solves — callers use one API either way.
//!
//! Determinism: the column update replays the exact local-arbitration
//! arithmetic of the full solve (same operand order, same accumulation
//! order), so probed totals are bit-identical to [`crate::solve_gflops`] on
//! the same candidate. Debug builds cross-check every probe against a full
//! solve.

use crate::solver::{arbitrate, SolveScratch};
use crate::{AppSpec, DataPlacement, Result, SolveOptions, ThreadAssignment};
use numa_topology::{Machine, NodeId};

/// Numerical slack, mirrored from the solver.
const EPS: f64 = 1e-12;

/// Incremental solver over a fixed `(machine, apps)` context.
///
/// Workflow: [`rebase`](DeltaSolver::rebase) on the incumbent assignment,
/// then for each candidate move call [`probe`](DeltaSolver::probe) with the
/// candidate and the list of touched nodes; if the move is accepted, call
/// [`commit`](DeltaSolver::commit) to fold the probed columns into the base.
/// A probe's candidate must differ from the base only on the touched nodes.
#[derive(Debug)]
pub struct DeltaSolver<'a> {
    machine: &'a Machine,
    apps: &'a [AppSpec],
    options: SolveOptions,
    separable: bool,
    peak: f64,
    /// Per-app local bandwidth demand of one thread, GB/s.
    demand: Vec<f64>,
    /// The committed assignment the cached columns describe.
    base: ThreadAssignment,
    has_base: bool,
    /// `contrib[app * nodes + node]`: GFLOPS contributed by `app`'s threads
    /// homed on `node` under the base assignment.
    contrib: Vec<f64>,
    /// Per-app GFLOPS totals of the base assignment.
    totals: Vec<f64>,
    /// Probe-side column buffer (same layout as `contrib`).
    side_contrib: Vec<f64>,
    /// Per-app totals of the last probe.
    side_totals: Vec<f64>,
    /// Per-app grant buffer for one column solve.
    col_grant: Vec<f64>,
    /// Deduplicated touched nodes of the last probe.
    touched_buf: Vec<usize>,
    /// `true` if the last probe was answered by a full solve.
    last_full: bool,
    scratch: SolveScratch,
}

impl<'a> DeltaSolver<'a> {
    /// Creates a solver with default [`SolveOptions`].
    pub fn new(machine: &'a Machine, apps: &'a [AppSpec]) -> Result<Self> {
        Self::with_options(machine, apps, SolveOptions::default())
    }

    /// Creates a solver with explicit options.
    pub(crate) fn with_options(
        machine: &'a Machine,
        apps: &'a [AppSpec],
        options: SolveOptions,
    ) -> Result<Self> {
        for app in apps {
            app.validate(machine)?;
        }
        let peak = machine.core_peak_gflops();
        let num_nodes = machine.num_nodes();
        let separable = apps
            .iter()
            .all(|a| matches!(a.placement, DataPlacement::Local));
        Ok(DeltaSolver {
            machine,
            apps,
            options,
            separable,
            peak,
            demand: apps.iter().map(|a| a.demand_per_thread_gbs(peak)).collect(),
            base: ThreadAssignment::zero(machine, apps.len()),
            has_base: false,
            contrib: vec![0.0; apps.len() * num_nodes],
            totals: vec![0.0; apps.len()],
            side_contrib: vec![0.0; apps.len() * num_nodes],
            side_totals: vec![0.0; apps.len()],
            col_grant: vec![0.0; apps.len()],
            touched_buf: Vec::with_capacity(2),
            last_full: false,
            scratch: SolveScratch::new(),
        })
    }

    /// `true` if every app is NUMA-local, enabling per-column probes.
    pub fn is_separable(&self) -> bool {
        self.separable
    }

    /// `true` once a base assignment has been established via
    /// [`rebase`](DeltaSolver::rebase) or [`commit`](DeltaSolver::commit).
    pub fn has_base(&self) -> bool {
        self.has_base
    }

    /// The committed base assignment (all zeros before the first
    /// [`rebase`](DeltaSolver::rebase)).
    pub fn base(&self) -> &ThreadAssignment {
        &self.base
    }

    /// `true` if `assignment` is the committed base, i.e. a
    /// [`rebase`](DeltaSolver::rebase) onto it would change nothing.
    pub fn is_base(&self, assignment: &ThreadAssignment) -> bool {
        self.has_base && self.base == *assignment
    }

    /// Full-solves `assignment` and makes it the new base. Returns the
    /// per-app GFLOPS totals. Rebasing onto the assignment that already is
    /// the committed base solves nothing: the cached columns and totals
    /// describe it, bit for bit (see the module docs on determinism).
    pub fn rebase(&mut self, assignment: &ThreadAssignment) -> Result<&[f64]> {
        if self.is_base(assignment) {
            return Ok(&self.totals);
        }
        arbitrate(
            self.machine,
            self.apps,
            assignment,
            self.options,
            &mut self.scratch,
        )?;
        self.totals.copy_from_slice(self.scratch.app_gflops());
        if self.separable {
            let num_nodes = self.machine.num_nodes();
            for node in 0..num_nodes {
                self.solve_column(assignment, node);
            }
            self.contrib.copy_from_slice(&self.side_contrib);
        }
        self.base.copy_from(assignment);
        self.has_base = true;
        self.last_full = false;
        self.touched_buf.clear();
        Ok(&self.totals)
    }

    /// Scores `candidate`, which must differ from the base only on the
    /// `touched` nodes, and returns its per-app GFLOPS totals. The base is
    /// left unchanged; call [`commit`](DeltaSolver::commit) to adopt the
    /// probed candidate.
    ///
    /// Non-separable contexts (or probes before any
    /// [`rebase`](DeltaSolver::rebase)) are answered by a full solve instead.
    pub fn probe(&mut self, candidate: &ThreadAssignment, touched: &[NodeId]) -> Result<&[f64]> {
        if !(self.separable && self.has_base) {
            return self.probe_full(candidate);
        }

        // An over-subscribed touched node must surface the same error a full
        // solve would report; delegate to it.
        for &t in touched {
            let mut total = 0usize;
            for a in 0..self.apps.len() {
                total += candidate.get(a, t);
            }
            if total > self.machine.node(t).num_cores() {
                return self.probe_full(candidate);
            }
        }

        #[cfg(debug_assertions)]
        self.debug_check_touched(candidate, touched);

        self.touched_buf.clear();
        for &t in touched {
            if !self.touched_buf.contains(&t.0) {
                self.touched_buf.push(t.0);
            }
        }
        let touched_nodes = std::mem::take(&mut self.touched_buf);
        for &t in &touched_nodes {
            self.solve_column(candidate, t);
        }

        let num_nodes = self.machine.num_nodes();
        for a in 0..self.apps.len() {
            let mut acc = 0.0f64;
            for node in 0..num_nodes {
                let idx = a * num_nodes + node;
                acc += if touched_nodes.contains(&node) {
                    self.side_contrib[idx]
                } else {
                    self.contrib[idx]
                };
            }
            self.side_totals[a] = acc;
        }
        self.touched_buf = touched_nodes;
        self.last_full = false;

        #[cfg(debug_assertions)]
        {
            arbitrate(
                self.machine,
                self.apps,
                candidate,
                self.options,
                &mut self.scratch,
            )
            .expect("delta probe accepted a candidate the full solve rejects");
            for (a, (&d, &f)) in self
                .side_totals
                .iter()
                .zip(self.scratch.app_gflops())
                .enumerate()
            {
                let tol = 1e-9 * f.abs().max(1.0);
                debug_assert!(
                    (d - f).abs() <= tol,
                    "delta solve diverged for app {a}: probed {d} vs full {f}"
                );
            }
        }

        Ok(&self.side_totals)
    }

    /// Adopts the last probed candidate as the new base. `candidate` must be
    /// the assignment passed to the immediately preceding successful
    /// [`probe`](DeltaSolver::probe).
    pub fn commit(&mut self, candidate: &ThreadAssignment) {
        if self.separable {
            let num_nodes = self.machine.num_nodes();
            if self.last_full {
                // The probe bypassed the columns (full-solve fallback), so
                // every cached column may be stale: rebuild them all.
                for t in 0..num_nodes {
                    self.solve_column(candidate, t);
                }
                self.contrib.copy_from_slice(&self.side_contrib);
            } else {
                for &t in &self.touched_buf {
                    for a in 0..self.apps.len() {
                        let idx = a * num_nodes + t;
                        self.contrib[idx] = self.side_contrib[idx];
                    }
                }
            }
        }
        self.totals.copy_from_slice(&self.side_totals);
        self.base.copy_from(candidate);
        self.has_base = true;
        self.last_full = false;
    }

    /// Answers a probe with a full solve (non-separable contexts, probes
    /// before a rebase, or invalid touched columns).
    fn probe_full(&mut self, candidate: &ThreadAssignment) -> Result<&[f64]> {
        arbitrate(
            self.machine,
            self.apps,
            candidate,
            self.options,
            &mut self.scratch,
        )?;
        self.side_totals.copy_from_slice(self.scratch.app_gflops());
        self.last_full = true;
        Ok(&self.side_totals)
    }

    /// Re-runs the local arbitration of node `t` for `candidate`, writing
    /// per-app contributions into `side_contrib`'s column `t`. Replays the
    /// solver's phase-2 math exactly: with every app NUMA-local, phase 1
    /// serves nothing, so `remaining` is the node's full bandwidth.
    fn solve_column(&mut self, candidate: &ThreadAssignment, t: usize) {
        let node = self.machine.node(NodeId(t));
        let remaining = node.bandwidth_gbs;
        let num_apps = self.apps.len();
        let num_nodes = self.machine.num_nodes();

        let mut thread_count = 0usize;
        for a in 0..num_apps {
            thread_count += candidate.get(a, NodeId(t));
        }
        let divisor = match self.options.baseline {
            crate::BaselinePolicy::PerCore => node.num_cores(),
            crate::BaselinePolicy::PerActiveThread => thread_count.max(1),
        };
        let baseline = remaining / divisor as f64;

        // Stage 2a: everyone gets min(demand, baseline).
        let mut used = 0.0f64;
        for a in 0..num_apps {
            let count = candidate.get(a, NodeId(t));
            if count == 0 {
                self.col_grant[a] = 0.0;
                continue;
            }
            let grant = self.demand[a].min(baseline);
            self.col_grant[a] = grant;
            used += count as f64 * grant;
        }

        // Stage 2b: split the remainder proportionally to unmet need.
        let rest = (remaining - used).max(0.0);
        let mut total_need = 0.0f64;
        for a in 0..num_apps {
            let count = candidate.get(a, NodeId(t));
            if count == 0 {
                continue;
            }
            total_need += count as f64 * (self.demand[a] - self.col_grant[a]).max(0.0);
        }
        if total_need > EPS && rest > EPS {
            let ratio = (rest / total_need).min(1.0);
            for a in 0..num_apps {
                let count = candidate.get(a, NodeId(t));
                if count == 0 {
                    continue;
                }
                let need = (self.demand[a] - self.col_grant[a]).max(0.0);
                self.col_grant[a] += ratio * need;
            }
        }

        for a in 0..num_apps {
            let idx = a * num_nodes + t;
            let count = candidate.get(a, NodeId(t));
            if count == 0 {
                self.side_contrib[idx] = 0.0;
            } else {
                let gflops = (self.apps[a].ai * self.col_grant[a]).min(self.peak);
                self.side_contrib[idx] = count as f64 * gflops;
            }
        }
    }

    /// Debug guard: the probe precondition says untouched columns match the
    /// base exactly.
    #[cfg(debug_assertions)]
    fn debug_check_touched(&self, candidate: &ThreadAssignment, touched: &[NodeId]) {
        for a in 0..self.apps.len() {
            for node in 0..self.machine.num_nodes() {
                if touched.iter().any(|t| t.0 == node) {
                    continue;
                }
                debug_assert_eq!(
                    candidate.get(a, NodeId(node)),
                    self.base.get(a, NodeId(node)),
                    "probe candidate differs from base on untouched node {node} (app {a})"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_gflops;
    use numa_topology::presets::{paper_crossnode_machine, paper_model_machine};

    fn paper_apps() -> Vec<AppSpec> {
        vec![
            AppSpec::numa_local("mem1", 0.5),
            AppSpec::numa_local("mem2", 0.5),
            AppSpec::numa_local("mem3", 0.5),
            AppSpec::numa_local("comp", 10.0),
        ]
    }

    #[test]
    fn probe_matches_full_solve_on_local_moves() {
        let m = paper_model_machine();
        let apps = paper_apps();
        let mut delta = DeltaSolver::new(&m, &apps).unwrap();
        assert!(delta.is_separable());

        // One core per node left free, so the move below fits on node 1.
        let base = ThreadAssignment::uniform_per_node(&m, &[2, 2, 2, 1]);
        let base_totals = delta.rebase(&base).unwrap().to_vec();
        let mut scratch = SolveScratch::new();
        let full = solve_gflops(&m, &apps, &base, SolveOptions::default(), &mut scratch).unwrap();
        assert_eq!(base_totals, full);

        // Move one comp thread from node 0 to node 1.
        let mut cand = base.clone();
        cand.set(3, NodeId(0), 0);
        cand.set(3, NodeId(1), 2);
        let probed = delta
            .probe(&cand, &[NodeId(0), NodeId(1)])
            .unwrap()
            .to_vec();
        let full = solve_gflops(&m, &apps, &cand, SolveOptions::default(), &mut scratch).unwrap();
        assert_eq!(probed, full, "probe must be bit-identical to a full solve");
    }

    #[test]
    fn commit_folds_probe_into_base() {
        let m = paper_model_machine();
        let apps = paper_apps();
        let mut delta = DeltaSolver::new(&m, &apps).unwrap();
        let base = ThreadAssignment::uniform_per_node(&m, &[1, 1, 1, 5]);
        delta.rebase(&base).unwrap();

        // Remove a mem1 thread from node 2, probe, commit, then probe a
        // second move on a different node against the new base.
        let mut cand = base.clone();
        cand.set(0, NodeId(2), 0);
        delta.probe(&cand, &[NodeId(2)]).unwrap();
        delta.commit(&cand);

        let mut cand2 = cand.clone();
        cand2.set(1, NodeId(3), 0);
        let probed = delta.probe(&cand2, &[NodeId(3)]).unwrap().to_vec();
        let mut scratch = SolveScratch::new();
        let full = solve_gflops(&m, &apps, &cand2, SolveOptions::default(), &mut scratch).unwrap();
        assert_eq!(probed, full);
    }

    #[test]
    fn rebase_onto_the_committed_base_keeps_its_totals() {
        let m = paper_model_machine();
        let apps = paper_apps();
        let mut delta = DeltaSolver::new(&m, &apps).unwrap();
        let base = ThreadAssignment::uniform_per_node(&m, &[1, 1, 1, 5]);
        assert!(!delta.is_base(&base), "no base before the first rebase");
        let solved = delta.rebase(&base).unwrap().to_vec();
        assert!(delta.is_base(&base));
        assert_eq!(delta.rebase(&base).unwrap(), solved);

        // A committed probe is the base too, and what the columns sum to
        // is what a full solve of it returns.
        let mut cand = base.clone();
        cand.set(3, NodeId(1), 4);
        delta.probe(&cand, &[NodeId(1)]).unwrap();
        delta.commit(&cand);
        assert!(delta.is_base(&cand) && !delta.is_base(&base));
        assert_eq!(delta.base(), &cand);
        let kept = delta.rebase(&cand).unwrap().to_vec();
        let mut scratch = SolveScratch::new();
        let full = solve_gflops(&m, &apps, &cand, SolveOptions::default(), &mut scratch).unwrap();
        assert_eq!(kept, full);
    }

    #[test]
    fn non_separable_context_falls_back_to_full_solves() {
        let m = paper_crossnode_machine();
        let apps = vec![
            AppSpec::numa_local("perf", 0.5),
            AppSpec::numa_bad("bad", 1.0, NodeId(3)),
        ];
        let mut delta = DeltaSolver::new(&m, &apps).unwrap();
        assert!(!delta.is_separable());

        let base = ThreadAssignment::uniform_per_node(&m, &[2, 2]);
        delta.rebase(&base).unwrap();
        let mut cand = base.clone();
        cand.set(1, NodeId(0), 3);
        let probed = delta.probe(&cand, &[NodeId(0)]).unwrap().to_vec();
        let mut scratch = SolveScratch::new();
        let full = solve_gflops(&m, &apps, &cand, SolveOptions::default(), &mut scratch).unwrap();
        assert_eq!(probed, full);
        delta.commit(&cand);
        assert_eq!(delta.totals, full);
    }

    #[test]
    fn oversubscribed_probe_errors_like_the_full_solve() {
        let m = paper_model_machine();
        let apps = paper_apps();
        let mut delta = DeltaSolver::new(&m, &apps).unwrap();
        let base = ThreadAssignment::uniform_per_node(&m, &[2, 2, 2, 2]);
        delta.rebase(&base).unwrap();
        let mut cand = base.clone();
        cand.set(3, NodeId(0), 9); // node 0 now holds 15 > 8 cores
        assert!(matches!(
            delta.probe(&cand, &[NodeId(0)]),
            Err(crate::ModelError::OverSubscribed { node: 0, .. })
        ));
    }
}
