//! Property tests for the distributed-translation simulator, on the seeded
//! case runner.

use coop_alloc::cases::{check, Gen};
use distsim::{simulate, Cluster, Distribution, Synchronization, Workload};

const CASES: usize = 64;

fn arb_cluster(g: &mut Gen) -> Cluster {
    let speedups = g.vec(2..12, |g| g.range(1.0..2.0));
    Cluster::uniform(speedups.len(), 1.0).with_speedups(&speedups)
}

/// Overall speedup never exceeds the *maximum* local speedup, and
/// never falls below 1 minus numerical noise (co-allocation never
/// hurts in this model).
#[test]
fn speedup_is_bounded() {
    check(1, CASES, |g| {
        let cluster = arb_cluster(g);
        let units = g.range(100..1000usize);
        let (sync_tight, dynamic) = (g.bool(0.5), g.bool(0.5));
        let cv = g.range(0.0..0.8);
        let seed = g.range(0..1000u64);
        let w = Workload::new(units, 1.0)
            .iterations(8)
            .sync(if sync_tight {
                Synchronization::Tight
            } else {
                Synchronization::Loose
            })
            .distribution(if dynamic {
                Distribution::Dynamic
            } else {
                Distribution::Static
            })
            .unit_variability(cv);
        let r = simulate(&cluster, &w, seed);
        let max_local = cluster.speedups.iter().fold(1.0f64, |m, &s| m.max(s));
        assert!(
            r.speedup_vs_uniform <= max_local * (1.0 + 1e-9),
            "speedup {} exceeds max local {}",
            r.speedup_vs_uniform,
            max_local
        );
        assert!(
            r.speedup_vs_uniform >= 1.0 - 1e-9,
            "co-allocation hurt: {}",
            r.speedup_vs_uniform
        );
        assert!(r.makespan_s > 0.0 && r.baseline_s > 0.0);
    });
}

/// Work conservation: busy time x rate sums to the total work, for
/// both distribution styles (without dynamic overhead).
#[test]
fn work_is_conserved() {
    check(2, CASES, |g| {
        let cluster = arb_cluster(g);
        let units = g.range(100..600usize);
        let dynamic = g.bool(0.5);
        let cv = g.range(0.0..0.5);
        let seed = g.range(0..100u64);
        let w = Workload::new(units, 1.0)
            .distribution(if dynamic {
                Distribution::Dynamic
            } else {
                Distribution::Static
            })
            .unit_variability(cv);
        let r = simulate(&cluster, &w, seed);
        let done: f64 = r
            .rank_busy_s
            .iter()
            .enumerate()
            .map(|(i, &b)| b * cluster.rate(i))
            .sum();
        // Expected total work: sum of the generated unit costs. With cv=0
        // it is exactly `units`; with cv>0 it is within cv of that.
        assert!(done > units as f64 * (1.0 - cv) - 1e-6);
        assert!(done < units as f64 * (1.0 + cv) + 1e-6);
    });
}

/// The makespan is never better than the perfect-balance lower bound
/// (total work / total rate).
#[test]
fn makespan_respects_lower_bound() {
    check(3, CASES, |g| {
        let cluster = arb_cluster(g);
        let units = g.range(100..600usize);
        let dynamic = g.bool(0.5);
        let seed = g.range(0..100u64);
        let w = Workload::new(units, 1.0).distribution(if dynamic {
            Distribution::Dynamic
        } else {
            Distribution::Static
        });
        let r = simulate(&cluster, &w, seed);
        let total_rate: f64 = (0..cluster.ranks()).map(|i| cluster.rate(i)).sum();
        let bound = units as f64 / total_rate;
        assert!(
            r.makespan_s >= bound - 1e-9,
            "makespan {} below the physics bound {}",
            r.makespan_s,
            bound
        );
    });
}

/// More iterations (tighter synchronization) never helps a static
/// uniform-unit workload, provided the units divide exactly (with
/// indivisible remainders, a tiny iteration can happen to skip a slow
/// rank entirely and "win" — a rounding artifact, not a barrier
/// benefit, so we exclude it from the property).
#[test]
fn barriers_never_help() {
    check(4, CASES, |g| {
        let cluster = arb_cluster(g);
        let mult = g.range(5..40usize);
        let iterations = 10;
        let units = mult * cluster.ranks() * iterations;
        let loose = Workload::new(units, 1.0).sync(Synchronization::Loose);
        let tight = Workload::new(units, 1.0)
            .iterations(iterations)
            .sync(Synchronization::Tight);
        let r_loose = simulate(&cluster, &loose, 1);
        let r_tight = simulate(&cluster, &tight, 1);
        assert!(r_tight.makespan_s >= r_loose.makespan_s - 1e-9);
    });
}

/// Dynamic overhead is monotone: more overhead, never faster.
#[test]
fn dynamic_overhead_is_monotone() {
    check(5, CASES, |g| {
        let cluster = arb_cluster(g);
        let units = g.range(100..400usize);
        let (o1, extra) = (g.range(0.0..0.2), g.range(0.0..0.2));
        let w1 = Workload::new(units, 1.0)
            .distribution(Distribution::Dynamic)
            .with_dynamic_overhead(o1);
        let w2 = Workload::new(units, 1.0)
            .distribution(Distribution::Dynamic)
            .with_dynamic_overhead(o1 + extra);
        let r1 = simulate(&cluster, &w1, 3);
        let r2 = simulate(&cluster, &w2, 3);
        assert!(r2.makespan_s >= r1.makespan_s - 1e-9);
    });
}
