//! # distsim
//!
//! A simulator for §V of the paper ("Distributed environment"): how does a
//! *local*, per-node speedup — obtained by dynamic CPU-core allocation
//! between cooperating components — translate into *overall* speedup of an
//! MPI-style distributed application?
//!
//! The paper's qualitative claims, which this crate makes quantitative:
//!
//! * With **static work allocation**, "we should attempt to provide some
//!   speedup on all nodes, favoring stability over maximal performance" —
//!   a barrier-synchronized code is dragged down to its slowest node, so
//!   variance in local speedup is poison.
//! * With **dynamic work redistribution** "we might be able to use more
//!   aggressive strategies".
//! * "If the code requires a barrier after every iteration, the benefit of
//!   speeding up the iteration body on some of the nodes is rather
//!   limited. If the synchronization is loose ... most of the local
//!   speedup should translate to overall speedup."
//!
//! The model: a [`Cluster`] of ranks, each with a base execution rate and
//! a local speedup factor (what the on-node agent achieved); a
//! [`Workload`] of work units, either pre-partitioned ([`Distribution::Static`])
//! or pulled from a shared pool ([`Distribution::Dynamic`]); and either a
//! barrier after every iteration ([`Synchronization::Tight`]) or one big
//! bag of independent units ([`Synchronization::Loose`]) — "many big data
//! applications behave this way".
//!
//! ## Example
//!
//! ```
//! use distsim::{Cluster, Distribution, Synchronization, Workload, simulate};
//!
//! let cluster = Cluster::uniform(8, 1.0).with_speedups(&[1.3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
//! let tight = Workload::new(800, 1.0).iterations(10)
//!     .sync(Synchronization::Tight)
//!     .distribution(Distribution::Static);
//! let r = simulate(&cluster, &tight, 0);
//! // One fast node in a barrier-synchronized static code: no benefit.
//! assert!(r.speedup_vs_uniform < 1.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

use coop_alloc::rng::StdRng;
use coop_telemetry::json_struct;

/// A cluster of compute nodes (MPI ranks, one per node).
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Base execution rate of each rank, work units per second, before any
    /// local speedup.
    pub base_rates: Vec<f64>,
    /// Local speedup factor per rank (1.0 = no co-allocation benefit).
    pub speedups: Vec<f64>,
}

impl Cluster {
    /// `ranks` identical nodes at `rate` units/second, speedup 1.
    pub fn uniform(ranks: usize, rate: f64) -> Self {
        Cluster {
            base_rates: vec![rate; ranks],
            speedups: vec![1.0; ranks],
        }
    }

    /// Sets per-rank speedups (length must match).
    pub fn with_speedups(mut self, speedups: &[f64]) -> Self {
        assert_eq!(
            speedups.len(),
            self.base_rates.len(),
            "one speedup per rank"
        );
        self.speedups = speedups.to_vec();
        self
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.base_rates.len()
    }

    /// Effective rate of rank `i`.
    pub fn rate(&self, i: usize) -> f64 {
        self.base_rates[i] * self.speedups[i]
    }

    /// Mean local speedup across ranks.
    pub fn mean_speedup(&self) -> f64 {
        self.speedups.iter().sum::<f64>() / self.speedups.len() as f64
    }
}

/// How work units are assigned to ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Pre-partitioned evenly by unit index (the usual static MPI
    /// decomposition).
    Static,
    /// Ranks pull the next unit from a shared pool when they finish one
    /// (work stealing / master-worker).
    Dynamic,
}

/// How ranks synchronize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Synchronization {
    /// A barrier after every iteration; each iteration contains
    /// `units / iterations` units.
    Tight,
    /// No barriers: one big bag of independent units.
    Loose,
}

/// A distributed workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Total number of work units.
    pub units: usize,
    /// Mean cost of one unit, seconds at rate 1.
    pub unit_work: f64,
    /// Number of barrier-delimited iterations (only for `Tight`).
    pub iterations_count: usize,
    /// Synchronization style.
    pub sync: Synchronization,
    /// Distribution style.
    pub dist: Distribution,
    /// Coefficient of variation of per-unit cost (0 = uniform units).
    pub unit_cv: f64,
    /// Fractional per-unit overhead of *dynamic* distribution (the
    /// master-worker round trip / steal cost). 0 = free; 0.05 means every
    /// dynamically-pulled unit costs 5% extra. Static distribution never
    /// pays it.
    pub dynamic_overhead: f64,
}

impl Workload {
    /// A loose/static workload of `units` units costing `unit_work` each.
    pub fn new(units: usize, unit_work: f64) -> Self {
        Workload {
            units,
            unit_work,
            iterations_count: 1,
            sync: Synchronization::Loose,
            dist: Distribution::Static,
            unit_cv: 0.0,
            dynamic_overhead: 0.0,
        }
    }

    /// Sets the iteration count (tight synchronization granularity).
    pub fn iterations(mut self, n: usize) -> Self {
        self.iterations_count = n.max(1);
        self
    }

    /// Sets the synchronization style.
    pub fn sync(mut self, sync: Synchronization) -> Self {
        self.sync = sync;
        self
    }

    /// Sets the distribution style.
    pub fn distribution(mut self, dist: Distribution) -> Self {
        self.dist = dist;
        self
    }

    /// Sets per-unit cost variability.
    pub fn unit_variability(mut self, cv: f64) -> Self {
        self.unit_cv = cv;
        self
    }

    /// Sets the per-unit overhead of dynamic distribution.
    pub fn with_dynamic_overhead(mut self, overhead: f64) -> Self {
        self.dynamic_overhead = overhead;
        self
    }
}

/// Result of a distributed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DistReport {
    /// Wall-clock makespan, seconds.
    pub makespan_s: f64,
    /// Makespan of the same workload on the same cluster with all local
    /// speedups forced to 1 (the "no co-allocation" baseline).
    pub baseline_s: f64,
    /// `baseline / makespan` — the overall speedup delivered.
    pub speedup_vs_uniform: f64,
    /// Mean local speedup of the cluster (what the on-node layer claims).
    pub mean_local_speedup: f64,
    /// How much of the local speedup survived:
    /// `(overall - 1) / (mean_local - 1)`; 1.0 = perfect translation,
    /// 0.0 = none. `NaN` when mean local speedup is exactly 1.
    pub translation_efficiency: f64,
    /// Per-rank busy time, seconds (for load-balance inspection).
    pub rank_busy_s: Vec<f64>,
}

json_struct!(DistReport: makespan_s, baseline_s, speedup_vs_uniform, mean_local_speedup,
    translation_efficiency, rank_busy_s);

/// Simulates the workload on the cluster. Deterministic per `seed` (the
/// seed only matters when `unit_cv > 0`).
pub fn simulate(cluster: &Cluster, workload: &Workload, seed: u64) -> DistReport {
    let makespan = run(cluster, workload, seed, false);
    let baseline = run(cluster, workload, seed, true);
    let mean_local = cluster.mean_speedup();
    let overall = baseline.0 / makespan.0;
    DistReport {
        makespan_s: makespan.0,
        baseline_s: baseline.0,
        speedup_vs_uniform: overall,
        mean_local_speedup: mean_local,
        translation_efficiency: (overall - 1.0) / (mean_local - 1.0),
        rank_busy_s: makespan.1,
    }
}

/// Returns (makespan, per-rank busy time).
fn run(cluster: &Cluster, workload: &Workload, seed: u64, force_uniform: bool) -> (f64, Vec<f64>) {
    let ranks = cluster.ranks();
    let rate = |i: usize| {
        if force_uniform {
            cluster.base_rates[i]
        } else {
            cluster.rate(i)
        }
    };

    // Generate per-unit costs (deterministic; shared by both runs).
    let mut rng = StdRng::seed_from_u64(seed);
    let costs: Vec<f64> = (0..workload.units)
        .map(|_| {
            if workload.unit_cv > 0.0 {
                let f: f64 = 1.0 + workload.unit_cv * (rng.gen::<f64>() * 2.0 - 1.0);
                workload.unit_work * f.max(0.05)
            } else {
                workload.unit_work
            }
        })
        .collect();

    let iterations = match workload.sync {
        Synchronization::Tight => workload.iterations_count,
        Synchronization::Loose => 1,
    };
    let per_iter = workload.units / iterations;
    let mut busy = vec![0.0f64; ranks];
    let mut makespan = 0.0f64;

    for iter in 0..iterations {
        let lo = iter * per_iter;
        let hi = if iter + 1 == iterations {
            workload.units
        } else {
            lo + per_iter
        };
        let slice = &costs[lo..hi];

        let iter_time = match workload.dist {
            Distribution::Static => {
                // Contiguous even partition by index.
                let mut worst = 0.0f64;
                let per_rank = slice.len() / ranks;
                let extra = slice.len() % ranks;
                let mut idx = 0;
                for (r, b) in busy.iter_mut().enumerate() {
                    let take = per_rank + usize::from(r < extra);
                    let work: f64 = slice[idx..idx + take].iter().sum();
                    idx += take;
                    let t = work / rate(r);
                    *b += t;
                    worst = worst.max(t);
                }
                worst
            }
            Distribution::Dynamic => {
                let overhead = 1.0 + workload.dynamic_overhead;
                // Greedy list scheduling: each rank pulls the next unit
                // when free. Simulated with per-rank clocks.
                let mut clock = vec![0.0f64; ranks];
                for &cost in slice {
                    // Next free rank.
                    let r = (0..ranks)
                        .min_by(|&a, &b| clock[a].partial_cmp(&clock[b]).unwrap())
                        .unwrap();
                    let t = cost * overhead / rate(r);
                    clock[r] += t;
                    busy[r] += t;
                }
                clock.iter().fold(0.0f64, |m, &c| m.max(c))
            }
        };
        makespan += iter_time;
    }
    (makespan, busy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_fast_cluster(ranks: usize, s: f64) -> Cluster {
        let mut speedups = vec![1.0; ranks];
        speedups[0] = s;
        Cluster::uniform(ranks, 1.0).with_speedups(&speedups)
    }

    #[test]
    fn uniform_cluster_trivial_translation() {
        // All ranks sped up equally: any style translates fully.
        let c = Cluster::uniform(4, 1.0).with_speedups(&[1.25; 4]);
        for sync in [Synchronization::Tight, Synchronization::Loose] {
            for dist in [Distribution::Static, Distribution::Dynamic] {
                let w = Workload::new(400, 1.0)
                    .iterations(10)
                    .sync(sync)
                    .distribution(dist);
                let r = simulate(&c, &w, 1);
                assert!(
                    (r.speedup_vs_uniform - 1.25).abs() < 1e-9,
                    "{sync:?}/{dist:?}: {}",
                    r.speedup_vs_uniform
                );
                assert!((r.translation_efficiency - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tight_static_wastes_single_node_speedup() {
        // Barrier + static: one fast node finishes its share early and
        // waits — zero overall speedup.
        let c = one_fast_cluster(8, 1.5);
        let w = Workload::new(800, 1.0)
            .iterations(10)
            .sync(Synchronization::Tight)
            .distribution(Distribution::Static);
        let r = simulate(&c, &w, 1);
        assert!((r.speedup_vs_uniform - 1.0).abs() < 1e-9);
        assert!(r.translation_efficiency.abs() < 1e-9);
    }

    #[test]
    fn loose_dynamic_translates_most_speedup() {
        // No barriers + work pool: total rate rises from 8 to 8.5; overall
        // speedup should approach 8.5/8 = 1.0625 (granularity permitting).
        let c = one_fast_cluster(8, 1.5);
        let w = Workload::new(4000, 1.0)
            .sync(Synchronization::Loose)
            .distribution(Distribution::Dynamic);
        let r = simulate(&c, &w, 1);
        let ideal = 8.5 / 8.0;
        assert!(
            r.speedup_vs_uniform > 1.0 + 0.8 * (ideal - 1.0),
            "loose/dynamic should capture most of the rate gain: {}",
            r.speedup_vs_uniform
        );
    }

    #[test]
    fn ranking_matches_paper_claims() {
        // For a cluster with heterogeneous speedups:
        // loose/dynamic >= tight/dynamic >= tight/static.
        let c = Cluster::uniform(6, 1.0).with_speedups(&[1.5, 1.4, 1.0, 1.0, 1.0, 1.1]);
        let mk = |sync, dist| {
            let w = Workload::new(1200, 1.0)
                .iterations(8)
                .sync(sync)
                .distribution(dist);
            simulate(&c, &w, 3).speedup_vs_uniform
        };
        let loose_dyn = mk(Synchronization::Loose, Distribution::Dynamic);
        let tight_dyn = mk(Synchronization::Tight, Distribution::Dynamic);
        let tight_static = mk(Synchronization::Tight, Distribution::Static);
        assert!(loose_dyn >= tight_dyn - 1e-9, "{loose_dyn} vs {tight_dyn}");
        assert!(
            tight_dyn >= tight_static - 1e-9,
            "{tight_dyn} vs {tight_static}"
        );
        assert!(loose_dyn > tight_static + 1e-3);
    }

    #[test]
    fn dynamic_absorbs_unit_variability() {
        // With variable unit costs, dynamic distribution beats static even
        // on a uniform cluster (classic load balancing).
        let c = Cluster::uniform(4, 1.0);
        let w_static = Workload::new(400, 1.0).unit_variability(0.9);
        let w_dynamic = Workload::new(400, 1.0)
            .unit_variability(0.9)
            .distribution(Distribution::Dynamic);
        let ms = run(&c, &w_static, 5, false).0;
        let md = run(&c, &w_dynamic, 5, false).0;
        assert!(md <= ms + 1e-9, "dynamic {md} vs static {ms}");
    }

    #[test]
    fn busy_times_account_for_all_work() {
        let c = one_fast_cluster(3, 2.0);
        let w = Workload::new(300, 1.0).distribution(Distribution::Dynamic);
        let r = simulate(&c, &w, 7);
        // Total work = sum over ranks of busy * rate.
        let total: f64 = r
            .rank_busy_s
            .iter()
            .enumerate()
            .map(|(i, &b)| b * c.rate(i))
            .sum();
        assert!((total - 300.0).abs() < 1e-6, "work conservation: {total}");
        assert!(r.makespan_s <= r.baseline_s);
    }

    #[test]
    fn determinism_per_seed() {
        let c = one_fast_cluster(4, 1.3);
        let w = Workload::new(200, 1.0)
            .unit_variability(0.5)
            .distribution(Distribution::Dynamic);
        assert_eq!(simulate(&c, &w, 9), simulate(&c, &w, 9));
        assert!(simulate(&c, &w, 9) != simulate(&c, &w, 10));
    }

    #[test]
    fn json_roundtrip() {
        use coop_telemetry::json::{self, FromJson, ToJson};
        let c = one_fast_cluster(2, 1.2);
        let w = Workload::new(10, 1.0);
        let r = simulate(&c, &w, 0);
        let json = r.to_value().write();
        let back = DistReport::from_value(&json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}

#[cfg(test)]
mod overhead_tests {
    use super::*;

    /// Dynamic distribution pays its overhead; with a big enough overhead
    /// and no imbalance to fix, static wins.
    #[test]
    fn dynamic_overhead_flips_the_tradeoff() {
        let c = Cluster::uniform(4, 1.0);
        let base = Workload::new(400, 1.0);
        let dyn_free = base.clone().distribution(Distribution::Dynamic);
        let dyn_costly = base
            .clone()
            .distribution(Distribution::Dynamic)
            .with_dynamic_overhead(0.10);
        let r_static = simulate(&c, &base, 1);
        let r_free = simulate(&c, &dyn_free, 1);
        let r_costly = simulate(&c, &dyn_costly, 1);
        // Uniform units, uniform cluster: free dynamic == static.
        assert!((r_free.makespan_s - r_static.makespan_s).abs() < 1e-9);
        // Costly dynamic is strictly slower than static here.
        assert!(r_costly.makespan_s > r_static.makespan_s * 1.05);
    }

    /// With enough imbalance, dynamic wins even while paying overhead.
    #[test]
    fn imbalance_can_justify_the_overhead() {
        let mut speedups = vec![1.0; 8];
        speedups[0] = 2.0; // one much faster node
        let c = Cluster::uniform(8, 1.0).with_speedups(&speedups);
        let stat = Workload::new(1600, 1.0);
        let dynamic = Workload::new(1600, 1.0)
            .distribution(Distribution::Dynamic)
            .with_dynamic_overhead(0.02);
        let r_static = simulate(&c, &stat, 2);
        let r_dynamic = simulate(&c, &dynamic, 2);
        assert!(
            r_dynamic.makespan_s < r_static.makespan_s,
            "dynamic {:.2}s vs static {:.2}s",
            r_dynamic.makespan_s,
            r_static.makespan_s
        );
    }
}
