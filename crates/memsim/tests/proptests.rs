//! Property tests on the seeded case runner: the simulator agrees with the analytic model when
//! effects are off, effects only ever reduce throughput, and a run past its budget is refused.

use coop_alloc::cases::check;
use memsim::{EffectModel, SimApp, SimConfig, Simulation};
use numa_topology::MachineBuilder;
use roofline_numa::{solve, AppSpec, ThreadAssignment};

const CASES: usize = 32;

fn machine(nodes: usize, cores: usize, bw: f64, link: f64) -> numa_topology::Machine {
    MachineBuilder::new()
        .symmetric_nodes(nodes, cores)
        .core_peak_gflops(10.0)
        .node_bandwidth_gbs(bw)
        .uniform_link_gbs(link)
        .build()
        .unwrap()
}

/// Ideal simulator == analytic model, for random NUMA-local scenarios.
#[test]
fn ideal_sim_matches_model_local() {
    check(1, CASES, |g| {
        let (nodes, cores) = (g.range(2..4usize), g.range(1..7usize));
        let ais = g.vec(1..4, |g| g.range(0.05..32.0));
        let counts = g.vec(1..4, |g| g.range(0..3usize));
        let n_apps = ais.len().min(counts.len());
        let m = machine(nodes, cores, 32.0, 8.0);
        let sim_apps: Vec<SimApp> = ais[..n_apps]
            .iter()
            .enumerate()
            .map(|(i, &ai)| SimApp::numa_local(&format!("a{i}"), ai))
            .collect();
        let model_apps: Vec<AppSpec> = sim_apps.iter().map(|a| a.spec.clone()).collect();
        let mut per_app = counts[..n_apps].to_vec();
        // Clamp to capacity.
        while per_app.iter().sum::<usize>() > cores {
            let i = per_app.iter().position(|&c| c > 0).unwrap();
            per_app[i] -= 1;
        }
        let assignment = ThreadAssignment::uniform_per_node(&m, &per_app);
        let sim = Simulation::new(SimConfig::new(m.clone()).with_effects(EffectModel::ideal()));
        let r = sim.run(&sim_apps, &assignment, 0.01).unwrap();
        let model = solve(&m, &model_apps, &assignment).unwrap();
        assert!(
            (r.total_gflops() - model.total_gflops()).abs() < 1e-6,
            "sim {} vs model {}",
            r.total_gflops(),
            model.total_gflops()
        );
        for a in 0..n_apps {
            assert!((r.app_gflops(a) - model.app_gflops(a)).abs() < 1e-6);
        }
    });
}

/// Ideal simulator == analytic model with a NUMA-bad application in the
/// mix (exercises the remote path).
#[test]
fn ideal_sim_matches_model_cross_node() {
    check(2, CASES, |g| {
        let cores = g.range(1..7usize);
        let (ai_local, ai_bad) = (g.range(0.05..8.0), g.range(0.05..8.0));
        let bad_node = g.range(0..3usize);
        let (c1, c2) = (g.range(0..3usize), g.range(0..3usize));
        let m = machine(3, cores, 32.0, 6.0);
        let sim_apps = vec![
            SimApp::numa_local("loc", ai_local),
            SimApp::numa_bad("bad", ai_bad, numa_topology::NodeId(bad_node)),
        ];
        let model_apps: Vec<AppSpec> = sim_apps.iter().map(|a| a.spec.clone()).collect();
        let mut per_app = vec![c1, c2];
        while per_app.iter().sum::<usize>() > cores {
            let i = per_app.iter().position(|&c| c > 0).unwrap();
            per_app[i] -= 1;
        }
        let assignment = ThreadAssignment::uniform_per_node(&m, &per_app);
        let sim = Simulation::new(SimConfig::new(m.clone()).with_effects(EffectModel::ideal()));
        let r = sim.run(&sim_apps, &assignment, 0.01).unwrap();
        let model = solve(&m, &model_apps, &assignment).unwrap();
        assert!(
            (r.total_gflops() - model.total_gflops()).abs() < 1e-6,
            "sim {} vs model {}",
            r.total_gflops(),
            model.total_gflops()
        );
    });
}

/// With effects enabled, throughput never exceeds the ideal run
/// (effects are pure losses, up to jitter which we disable here).
#[test]
fn effects_never_gain() {
    check(3, CASES, |g| {
        let cores = g.range(1..7usize);
        let ai = g.range(0.05..8.0);
        let count = g.range(1..4usize);
        let count = count.min(cores);
        let m = machine(2, cores, 32.0, 6.0);
        let apps = vec![SimApp::numa_bad("b", ai, numa_topology::NodeId(0))];
        let assignment = ThreadAssignment::uniform_per_node(&m, &[count]);
        let ideal = Simulation::new(SimConfig::new(m.clone()).with_effects(EffectModel::ideal()))
            .run(&apps, &assignment, 0.01)
            .unwrap();
        let mut lossy_effects = EffectModel::skylake_like();
        lossy_effects.jitter = 0.0; // keep the comparison deterministic
        let lossy = Simulation::new(SimConfig::new(m.clone()).with_effects(lossy_effects))
            .run(&apps, &assignment, 0.01)
            .unwrap();
        assert!(
            lossy.total_gflops() <= ideal.total_gflops() + 1e-9,
            "lossy {} > ideal {}",
            lossy.total_gflops(),
            ideal.total_gflops()
        );
    });
}

/// Node bandwidth conservation holds in the simulator for any scenario:
/// average served GB/s never exceeds nominal capacity.
#[test]
fn served_bandwidth_conserved() {
    check(4, CASES, |g| {
        let cores = g.range(1..7usize);
        let ai = g.range(0.02..8.0);
        let count = g.range(1..4usize);
        let seed = g.range(0..100u64);
        let count = count.min(cores);
        let m = machine(2, cores, 20.0, 5.0);
        let apps = vec![
            SimApp::numa_local("l", ai),
            SimApp::numa_bad("b", ai, numa_topology::NodeId(1)),
        ];
        let per = count.min(cores / 2).max(if cores >= 2 { 1 } else { 0 });
        if per == 0 || 2 * per > cores {
            return;
        }
        let assignment = ThreadAssignment::uniform_per_node(&m, &[per, per]);
        let r = Simulation::new(SimConfig::new(m.clone()).with_seed(seed))
            .run(&apps, &assignment, 0.02)
            .unwrap();
        for (n, &gbs) in r.node_avg_gbs.iter().enumerate() {
            let cap = m.node(numa_topology::NodeId(n)).bandwidth_gbs;
            // Jitter can push instantaneous demand slightly over; allow 2%.
            assert!(gbs <= cap * 1.02, "node {n}: {gbs} > {cap}");
        }
    });
}

/// The run budget: scenarios drawn within every bound are accepted, and
/// the same scenario pushed one past any one bound is refused with
/// `SimError::OverBudget` by the run, before a thread is laid out or a step
/// taken, and a matrix or app list past one already as the file is read —
/// never with a panic.
#[test]
fn scenario_budget_accepts_within_and_refuses_one_past() {
    use memsim::{
        scenario, ActivityPattern, SimError, MAX_APPS, MAX_EDGES, MAX_STEPS, MAX_THREADS,
    };
    check(2, CASES, |g| {
        let mut s = scenario::template();
        s.effects.allow_oversubscription = true;
        let (apps, nodes) = (s.apps.len(), s.machine.num_nodes());
        let cell = MAX_THREADS / (apps * nodes);
        for row in &mut s.assignments[0].threads {
            row.iter_mut().for_each(|n| *n = g.range(0..cell + 1));
        }
        // Steps at the template's 1 ms quantum, and bursts well inside the
        // edge budget for that duration.
        s.duration_s = 1e-3 * MAX_STEPS * g.range(1e-3..0.999);
        let edges_per_app = MAX_EDGES / apps as f64 / 2.0 - 2.0;
        s.apps[0].activity = ActivityPattern::Bursts {
            period_s: s.duration_s / edges_per_app * g.range(1.0..4.0),
            duty: 0.5,
            phase_s: 0.0,
        };
        assert_eq!(s.validate(), Ok(()));

        let past = g.range(0..4usize);
        match past {
            0 => {
                let total: usize = s.assignments[0].threads.iter().flatten().sum();
                s.assignments[0].threads[0][0] += MAX_THREADS + 1 - total;
            }
            1 => {
                let app = s.apps[3].clone();
                s.apps.resize(MAX_APPS + 1, app);
            }
            2 => s.duration_s = 1e-3 * (MAX_STEPS + 1.0),
            _ => {
                s.apps[0].activity = ActivityPattern::Bursts {
                    period_s: s.duration_s / MAX_EDGES,
                    duty: 0.5,
                    phase_s: 0.0,
                }
            }
        }
        // The duration is the run's: a supervised run simulates its own.
        match s.validate() {
            Err(SimError::OverBudget(..)) => assert!(past < 2),
            Ok(()) => assert!(past >= 2),
            e => panic!("{e:?}"),
        }
        let assignment = ThreadAssignment::from_matrix(s.assignments[0].threads.clone());
        let sim =
            Simulation::new(SimConfig::new(s.machine.clone()).with_effects(s.effects.clone()));
        assert!(matches!(
            sim.run(&s.apps, &assignment, s.duration_s),
            Err(SimError::OverBudget(..))
        ));
    });
}
