//! Step-by-step computation traces replicating the paper's Tables I and II.
//!
//! Tables I and II of the paper walk through the model computation for one
//! NUMA node, row by row: per-thread demand, baseline, the proportional
//! remainder, and the resulting GFLOPS. [`solve_traced`] reproduces every
//! row, so the reproduction harness can print tables that correspond
//! line-for-line to the paper, and tests can assert each intermediate value
//! rather than only the bottom line.
//!
//! The trace covers the setting of those tables: a symmetric machine,
//! NUMA-local applications, and the same thread counts on every node
//! (the computation is then identical on all nodes and the paper shows it
//! once). Applications with identical AI and thread count are grouped into
//! *classes*, matching the paper's "memory-bound" / "compute-bound"
//! columns.

use crate::{solve, AppSpec, DataPlacement, ModelError, Result, SolveReport, ThreadAssignment};
use numa_topology::{Machine, NodeId};
use std::fmt;

/// The per-class column of a Table I/II-style trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassTrace {
    /// Names of the applications aggregated into this class.
    pub apps: Vec<String>,
    /// Row "arithmetic intensity (AI)".
    pub ai: f64,
    /// Row "number of instances".
    pub instances: usize,
    /// Row "threads per NUMA node".
    pub threads_per_node: usize,
    /// Row "peak memory bandwidth per thread (peak GFLOPS / AI)".
    pub peak_bw_per_thread: f64,
    /// Row "peak memory bandwidth per instance (per-thread * #threads)".
    pub peak_bw_per_instance: f64,
    /// Row "total memory bandwidth of all instances".
    pub total_bw_all_instances: f64,
    /// Row "allocated baseline per thread (min(peak, baseline))".
    pub allocated_baseline_per_thread: f64,
    /// Row "still required GB/s per thread (peak - allocated)".
    pub still_required_per_thread: f64,
    /// Row "remainder given to a thread".
    pub remainder_per_thread: f64,
    /// Row "total allocated to each thread (baseline + split remainder)".
    pub total_allocated_per_thread: f64,
    /// Row "GFLOPS per thread (allocated GB/s * AI)".
    pub gflops_per_thread: f64,
    /// Row "GFLOPS per application (#threads * per-thread)".
    pub gflops_per_app: f64,
}

/// A complete Table I/II-style trace for one NUMA node of a symmetric
/// machine, plus the machine-wide total.
#[derive(Debug, Clone, PartialEq)]
pub struct TableTrace {
    /// Machine name.
    pub machine: String,
    /// Application classes, in first-appearance order.
    pub classes: Vec<ClassTrace>,
    /// Row "total required bandwidth".
    pub total_required_bw: f64,
    /// Row "baseline GB/s per thread (total GB/s / #threads)" — the paper's
    /// label; the divisor is the node's core count.
    pub baseline_per_thread: f64,
    /// Row "allocated node GB/s" after the baseline stage.
    pub allocated_node_gbs: f64,
    /// Row "remaining node GB/s".
    pub remaining_node_gbs: f64,
    /// Row "still required GB/s" summed over all threads.
    pub still_required_total: f64,
    /// Row "total GFLOPS per node".
    pub gflops_per_node: f64,
    /// Row "total GFLOPS" (per-node x number of nodes).
    pub total_gflops: f64,
}

/// Runs the model on a symmetric machine with NUMA-local applications and
/// uniform per-node thread counts, returning both the ordinary
/// [`SolveReport`] and the [`TableTrace`] with every intermediate row of
/// the paper's tables.
///
/// `counts[a]` is the number of threads application `a` runs on *each*
/// node, exactly like the "threads per NUMA node" row.
pub fn solve_traced(
    machine: &Machine,
    apps: &[AppSpec],
    counts: &[usize],
) -> Result<(SolveReport, TableTrace)> {
    for app in apps {
        app.validate(machine)?;
        if app.placement != DataPlacement::Local {
            // The tables only cover NUMA-perfect codes; cross-node cases go
            // through the plain solver.
            return Err(ModelError::PlacementFractions);
        }
    }
    let assignment = ThreadAssignment::uniform_per_node(machine, counts);
    let report = solve(machine, apps, &assignment)?;

    let node = machine.node(NodeId(0));
    let peak = machine.core_peak_gflops();
    let capacity = node.bandwidth_gbs;
    let cores = node.num_cores() as f64;
    let baseline = capacity / cores;

    // Group apps into classes by (AI, threads-per-node).
    let mut classes: Vec<ClassTrace> = Vec::new();
    for (a, app) in apps.iter().enumerate() {
        let threads = counts[a];
        let demand = app.demand_per_thread_gbs(peak);
        let grant = report
            .group(a, NodeId(0))
            .map(|g| g.granted_gbs)
            .unwrap_or(0.0);
        let allocated_baseline = demand.min(baseline);
        let key = classes
            .iter()
            .position(|c| (c.ai - app.ai).abs() < 1e-12 && c.threads_per_node == threads);
        match key {
            Some(i) => {
                classes[i].apps.push(app.name.clone());
                classes[i].instances += 1;
                classes[i].total_bw_all_instances += demand * threads as f64;
            }
            None => {
                let gflops = (app.ai * grant).min(peak);
                classes.push(ClassTrace {
                    apps: vec![app.name.clone()],
                    ai: app.ai,
                    instances: 1,
                    threads_per_node: threads,
                    peak_bw_per_thread: demand,
                    peak_bw_per_instance: demand * threads as f64,
                    total_bw_all_instances: demand * threads as f64,
                    allocated_baseline_per_thread: allocated_baseline,
                    still_required_per_thread: (demand - allocated_baseline).max(0.0),
                    remainder_per_thread: grant - allocated_baseline,
                    total_allocated_per_thread: grant,
                    gflops_per_thread: gflops,
                    gflops_per_app: gflops * threads as f64,
                });
            }
        }
    }

    let total_required_bw: f64 = classes.iter().map(|c| c.total_bw_all_instances).sum();
    let allocated_node_gbs: f64 = classes
        .iter()
        .map(|c| (c.instances * c.threads_per_node) as f64 * c.allocated_baseline_per_thread)
        .sum();
    let remaining = capacity - allocated_node_gbs;
    let still_required: f64 = classes
        .iter()
        .map(|c| (c.instances * c.threads_per_node) as f64 * c.still_required_per_thread)
        .sum();
    let gflops_per_node: f64 = classes
        .iter()
        .map(|c| c.instances as f64 * c.gflops_per_app)
        .sum();

    let trace = TableTrace {
        machine: machine.name().to_string(),
        classes,
        total_required_bw,
        baseline_per_thread: baseline,
        allocated_node_gbs,
        remaining_node_gbs: remaining,
        still_required_total: still_required,
        gflops_per_node,
        total_gflops: gflops_per_node * machine.num_nodes() as f64,
    };
    Ok((report, trace))
}

impl fmt::Display for TableTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label_w = 46;
        let col_w = 16;
        let row = |f: &mut fmt::Formatter<'_>, label: &str, cells: Vec<String>| -> fmt::Result {
            write!(f, "{label:<label_w$}")?;
            for c in cells {
                write!(f, "{c:>col_w$}")?;
            }
            writeln!(f)
        };
        let num = |v: f64| {
            if (v - v.round()).abs() < 1e-9 {
                format!("{:.0}", v.round())
            } else {
                format!("{v:.2}")
            }
        };

        writeln!(f, "machine: {}", self.machine)?;
        row(
            f,
            "class",
            self.classes.iter().map(|c| c.apps.join("/")).collect(),
        )?;
        row(
            f,
            "arithmetic intensity (AI)",
            self.classes.iter().map(|c| num(c.ai)).collect(),
        )?;
        row(
            f,
            "number of instances",
            self.classes
                .iter()
                .map(|c| c.instances.to_string())
                .collect(),
        )?;
        row(
            f,
            "threads per NUMA node",
            self.classes
                .iter()
                .map(|c| c.threads_per_node.to_string())
                .collect(),
        )?;
        row(
            f,
            "peak memory bandwidth per thread",
            self.classes
                .iter()
                .map(|c| num(c.peak_bw_per_thread))
                .collect(),
        )?;
        row(
            f,
            "peak memory bandwidth per instance",
            self.classes
                .iter()
                .map(|c| num(c.peak_bw_per_instance))
                .collect(),
        )?;
        row(
            f,
            "total memory bandwidth of all instances",
            self.classes
                .iter()
                .map(|c| num(c.total_bw_all_instances))
                .collect(),
        )?;
        row(
            f,
            "total required bandwidth",
            vec![num(self.total_required_bw)],
        )?;
        row(
            f,
            "baseline GB/s per thread",
            vec![num(self.baseline_per_thread)],
        )?;
        row(
            f,
            "allocated baseline per thread",
            self.classes
                .iter()
                .map(|c| num(c.allocated_baseline_per_thread))
                .collect(),
        )?;
        row(f, "allocated node GB/s", vec![num(self.allocated_node_gbs)])?;
        row(f, "remaining node GB/s", vec![num(self.remaining_node_gbs)])?;
        row(
            f,
            "still required GB/s per thread",
            self.classes
                .iter()
                .map(|c| num(c.still_required_per_thread))
                .collect(),
        )?;
        row(
            f,
            "still required GB/s",
            vec![num(self.still_required_total)],
        )?;
        row(
            f,
            "remainder given to a thread",
            self.classes
                .iter()
                .map(|c| num(c.remainder_per_thread))
                .collect(),
        )?;
        row(
            f,
            "total allocated to each thread",
            self.classes
                .iter()
                .map(|c| num(c.total_allocated_per_thread))
                .collect(),
        )?;
        row(
            f,
            "GFLOPS per thread",
            self.classes
                .iter()
                .map(|c| num(c.gflops_per_thread))
                .collect(),
        )?;
        row(
            f,
            "GFLOPS per application",
            self.classes.iter().map(|c| num(c.gflops_per_app)).collect(),
        )?;
        row(f, "total GFLOPS per node", vec![num(self.gflops_per_node)])?;
        row(f, "total GFLOPS", vec![num(self.total_gflops)])?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::paper_model_machine;

    fn paper_apps() -> Vec<AppSpec> {
        vec![
            AppSpec::numa_local("mem1", 0.5),
            AppSpec::numa_local("mem2", 0.5),
            AppSpec::numa_local("mem3", 0.5),
            AppSpec::numa_local("comp", 10.0),
        ]
    }

    /// Every row of Table I.
    #[test]
    fn table_1_every_row() {
        let m = paper_model_machine();
        let (_, t) = solve_traced(&m, &paper_apps(), &[1, 1, 1, 5]).unwrap();
        assert_eq!(t.classes.len(), 2);
        let mem = &t.classes[0];
        let comp = &t.classes[1];

        assert_eq!(mem.instances, 3);
        assert_eq!(comp.instances, 1);
        assert_eq!(mem.threads_per_node, 1);
        assert_eq!(comp.threads_per_node, 5);
        assert!((mem.peak_bw_per_thread - 20.0).abs() < 1e-9, "10/0.5 = 20");
        assert!((comp.peak_bw_per_thread - 1.0).abs() < 1e-9, "10/10 = 1");
        assert!((mem.peak_bw_per_instance - 20.0).abs() < 1e-9);
        assert!((comp.peak_bw_per_instance - 5.0).abs() < 1e-9);
        assert!((mem.total_bw_all_instances - 60.0).abs() < 1e-9);
        assert!((comp.total_bw_all_instances - 5.0).abs() < 1e-9);
        assert!((t.total_required_bw - 65.0).abs() < 1e-9);
        assert!((t.baseline_per_thread - 4.0).abs() < 1e-9, "32/8 = 4");
        assert!((mem.allocated_baseline_per_thread - 4.0).abs() < 1e-9);
        assert!((comp.allocated_baseline_per_thread - 1.0).abs() < 1e-9);
        assert!(
            (t.allocated_node_gbs - 17.0).abs() < 1e-9,
            "3*1*4 + 1*5*1 = 17"
        );
        assert!((t.remaining_node_gbs - 15.0).abs() < 1e-9);
        assert!((mem.still_required_per_thread - 16.0).abs() < 1e-9);
        assert!((comp.still_required_per_thread - 0.0).abs() < 1e-9);
        assert!((t.still_required_total - 48.0).abs() < 1e-9, "3*1*16");
        assert!(
            (mem.remainder_per_thread - 5.0).abs() < 1e-9,
            "15/(3*1) = 5"
        );
        assert!((comp.remainder_per_thread - 0.0).abs() < 1e-9);
        assert!((mem.total_allocated_per_thread - 9.0).abs() < 1e-9);
        assert!((comp.total_allocated_per_thread - 1.0).abs() < 1e-9);
        assert!((mem.gflops_per_thread - 4.5).abs() < 1e-9);
        assert!((comp.gflops_per_thread - 10.0).abs() < 1e-9);
        assert!((mem.gflops_per_app - 4.5).abs() < 1e-9);
        assert!((comp.gflops_per_app - 50.0).abs() < 1e-9);
        assert!((t.gflops_per_node - 63.5).abs() < 1e-9);
        assert!((t.total_gflops - 254.0).abs() < 1e-9);
    }

    /// Every row of Table II.
    #[test]
    fn table_2_every_row() {
        let m = paper_model_machine();
        let (_, t) = solve_traced(&m, &paper_apps(), &[2, 2, 2, 2]).unwrap();
        let mem = &t.classes[0];
        let comp = &t.classes[1];

        assert!((mem.peak_bw_per_instance - 40.0).abs() < 1e-9);
        assert!((comp.peak_bw_per_instance - 2.0).abs() < 1e-9);
        assert!((mem.total_bw_all_instances - 120.0).abs() < 1e-9);
        assert!((t.total_required_bw - 122.0).abs() < 1e-9);
        assert!(
            (t.allocated_node_gbs - 26.0).abs() < 1e-9,
            "3*2*4 + 1*2*1 = 26"
        );
        assert!((t.remaining_node_gbs - 6.0).abs() < 1e-9);
        assert!((t.still_required_total - 96.0).abs() < 1e-9, "3*2*16");
        assert!((mem.remainder_per_thread - 1.0).abs() < 1e-9, "6/(3*2) = 1");
        assert!((mem.total_allocated_per_thread - 5.0).abs() < 1e-9);
        assert!((mem.gflops_per_thread - 2.5).abs() < 1e-9);
        assert!((mem.gflops_per_app - 5.0).abs() < 1e-9);
        assert!((comp.gflops_per_app - 20.0).abs() < 1e-9);
        assert!((t.gflops_per_node - 35.0).abs() < 1e-9);
        assert!((t.total_gflops - 140.0).abs() < 1e-9);
    }

    #[test]
    fn trace_and_report_agree() {
        let m = paper_model_machine();
        let (r, t) = solve_traced(&m, &paper_apps(), &[1, 1, 1, 5]).unwrap();
        assert!((r.total_gflops() - t.total_gflops).abs() < 1e-9);
    }

    #[test]
    fn display_renders_all_rows() {
        let m = paper_model_machine();
        let (_, t) = solve_traced(&m, &paper_apps(), &[1, 1, 1, 5]).unwrap();
        let s = t.to_string();
        for needle in [
            "arithmetic intensity",
            "threads per NUMA node",
            "baseline GB/s per thread",
            "remaining node GB/s",
            "total GFLOPS per node",
            "254",
            "63.5",
        ] {
            assert!(s.contains(needle), "missing row {needle:?} in:\n{s}");
        }
    }

    #[test]
    fn rejects_non_local_apps() {
        let m = paper_model_machine();
        let apps = vec![AppSpec::numa_bad("bad", 1.0, numa_topology::NodeId(0))];
        assert!(solve_traced(&m, &apps, &[1]).is_err());
    }
}
