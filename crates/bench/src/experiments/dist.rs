//! E-dist: §V — translating on-node speedup into overall speedup.
//!
//! A 16-node cluster where the on-node coordination layer achieved a mix
//! of local speedups (some nodes benefit a lot, some not at all — the
//! realistic outcome of co-allocating different application mixes per
//! node). The experiment sweeps the four combinations of synchronization
//! (tight barrier per iteration vs loose task bag) and work distribution
//! (static partition vs dynamic pool) and reports how much of the mean
//! local speedup survives.

use crate::report::{Row, Table};
use distsim::{simulate, Cluster, Distribution, Synchronization, Workload};

/// The heterogeneous local-speedup vector used by the experiment: mean
/// 1.15, but uneven — exactly the "more aggressive strategies" regime the
/// paper warns needs dynamic redistribution.
pub(crate) fn speedup_vector(ranks: usize) -> Vec<f64> {
    (0..ranks)
        .map(|i| match i % 4 {
            0 => 1.40,
            1 => 1.20,
            2 => 1.00,
            _ => 1.00,
        })
        .collect()
}

/// Runs the sweep and returns the summary table.
pub fn run(ranks: usize, units: usize, seed: u64) -> Table {
    let cluster = Cluster::uniform(ranks, 1.0).with_speedups(&speedup_vector(ranks));
    let mean = cluster.mean_speedup();

    let mut t = Table::new(
        &format!("Distributed translation on {ranks} ranks (mean local speedup {mean:.3})"),
        "overall speedup",
    );
    for (sync, sync_label) in [
        (Synchronization::Tight, "tight (barrier/iter)"),
        (Synchronization::Loose, "loose (task bag)"),
    ] {
        for (dist, dist_label) in [
            (Distribution::Static, "static"),
            (Distribution::Dynamic, "dynamic"),
        ] {
            let w = Workload::new(units, 1.0)
                .iterations(20)
                .sync(sync)
                .distribution(dist)
                .unit_variability(0.2);
            let r = simulate(&cluster, &w, seed);
            t.push(Row::new(
                &format!("{sync_label} + {dist_label}"),
                r.speedup_vs_uniform,
            ));
        }
    }
    t.push(Row::new("mean local speedup (upper bound)", mean));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loose_dynamic_translates_best_and_tight_static_worst() {
        let t = run(16, 6400, 42);
        let find = |label: &str| {
            t.rows
                .iter()
                .find(|r| r.label.starts_with(label))
                .unwrap()
                .measured
        };
        let tight_static = find("tight (barrier/iter) + static");
        let loose_dynamic = find("loose (task bag) + dynamic");
        let mean = find("mean local speedup");

        assert!(
            loose_dynamic > tight_static,
            "{loose_dynamic} vs {tight_static}"
        );
        // Loose+dynamic captures most of the available speedup...
        assert!(
            loose_dynamic > 1.0 + 0.7 * (mean - 1.0),
            "loose+dynamic {loose_dynamic}, mean {mean}"
        );
        // ...while tight+static is bounded by the *slowest* node (speedup
        // 1.0 in the vector), so it translates almost nothing.
        assert!(
            tight_static < 1.0 + 0.3 * (mean - 1.0),
            "tight+static should translate little: {tight_static}"
        );
        // Nothing exceeds the mean local speedup by more than scheduling
        // noise.
        for r in &t.rows {
            assert!(r.measured <= mean * 1.05, "{}: {}", r.label, r.measured);
        }
    }
}
