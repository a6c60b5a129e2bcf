//! A parameter sweep over the model — the "what if" tooling an agent or a
//! person uses to understand a workload mix before committing cores.
//!
//! [`thread_sweep`] answers the question the paper's §II–III raise: how
//! does one application's GFLOPS (and the machine total) change as *its*
//! per-node thread count grows while the other applications hold still?
//! This is the "scaling is less than linear" curve that justifies
//! reallocating cores.

use crate::{solve, AppSpec, Result, ThreadAssignment};
use coop_telemetry::json_write;
use numa_topology::Machine;

/// One point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter's value at this point.
    pub x: f64,
    /// GFLOPS of the application under study.
    pub app_gflops: f64,
    /// Machine-wide GFLOPS.
    pub total_gflops: f64,
}

json_write!(SweepPoint: x, app_gflops, total_gflops);

/// Sweeps application `app`'s uniform per-node thread count from 0 up to
/// the spare capacity, holding the other applications at `others`
/// (their uniform per-node counts, with `others[app]` ignored).
pub fn thread_sweep(
    machine: &Machine,
    apps: &[AppSpec],
    app: usize,
    others: &[usize],
) -> Result<Vec<SweepPoint>> {
    let min_cores = machine.nodes().map(|n| n.num_cores()).min().unwrap_or(0);
    let occupied: usize = others
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != app)
        .map(|(_, &c)| c)
        .sum();
    let max_own = min_cores.saturating_sub(occupied);

    let mut out = Vec::with_capacity(max_own + 1);
    for own in 0..=max_own {
        let mut counts = others.to_vec();
        counts[app] = own;
        let assignment = ThreadAssignment::uniform_per_node(machine, &counts);
        let report = solve(machine, apps, &assignment)?;
        out.push(SweepPoint {
            x: own as f64,
            app_gflops: report.app_gflops(app),
            total_gflops: report.total_gflops(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::paper_model_machine;

    #[test]
    fn thread_sweep_is_monotone_but_sublinear_for_memory_bound() {
        let m = paper_model_machine();
        let apps = vec![AppSpec::numa_local("mem", 0.5)];
        let curve = thread_sweep(&m, &apps, 0, &[0]).unwrap();
        assert_eq!(curve.len(), 9); // 0..=8 threads per node
                                    // Monotone non-decreasing...
        for w in curve.windows(2) {
            assert!(w[1].app_gflops >= w[0].app_gflops - 1e-9);
        }
        // ...but saturating: the last step adds less than the first.
        let first_gain = curve[1].app_gflops - curve[0].app_gflops;
        let last_gain = curve[8].app_gflops - curve[7].app_gflops;
        assert!(
            last_gain < first_gain - 1e-9,
            "memory-bound scaling must flatten"
        );
        // Saturated at the bandwidth roof: 4 nodes * 32 GB/s * 0.5.
        assert!((curve[8].app_gflops - 64.0).abs() < 1e-9);
    }

    #[test]
    fn thread_sweep_is_linear_for_compute_bound() {
        let m = paper_model_machine();
        let apps = vec![AppSpec::numa_local("comp", 10.0)];
        let curve = thread_sweep(&m, &apps, 0, &[0]).unwrap();
        for (i, p) in curve.iter().enumerate() {
            // i threads/node * 4 nodes * 10 GFLOPS.
            assert!((p.app_gflops - (i as f64) * 40.0).abs() < 1e-9);
        }
    }

    #[test]
    fn thread_sweep_respects_other_apps_capacity() {
        let m = paper_model_machine();
        let apps = vec![AppSpec::numa_local("a", 0.5), AppSpec::numa_local("b", 0.5)];
        let curve = thread_sweep(&m, &apps, 0, &[0, 6]).unwrap();
        assert_eq!(curve.len(), 3); // 0, 1, 2 spare cores per node
    }
}
