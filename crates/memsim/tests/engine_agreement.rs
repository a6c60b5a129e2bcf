//! Cross-engine agreement: the time-sliced and discrete-event simulator
//! cores are two integrators over the same physics, so on scenarios whose
//! schedule and activity edges land on quantum boundaries (and with the
//! ideal effect model, which has no per-quantum jitter) they must agree on
//! throughput to float rounding — and the event engine must produce an
//! exactly predictable, byte-reproducible event log.
//!
//! Edge times are written as `k as f64 * QUANTUM_S` so they compare
//! bitwise-equal to the slice engine's `step as f64 * dt` quantum starts;
//! the exact-count test additionally restricts `k` to powers of two so
//! the event engine's float↔tick round-trip is exact and cannot schedule
//! a spurious one-nanosecond repeat edge.

use coop_alloc::cases::check;
use memsim::{
    run_chaos_scenario_on, run_chaos_scenario_threaded, run_supervised, ActivityPattern, ChaosPlan,
    EffectModel, EngineKind, NamedAssignment, Perturbation, Scenario, ShardPlan, SimApp, SimConfig,
    SimResult, Simulation, SupervisorConfig, TelemetryHub,
};
use numa_topology::MachineBuilder;
use roofline_numa::ThreadAssignment;
use std::sync::Arc;

const CASES: usize = 24;

/// The default slice quantum; all edge times are multiples of this.
const QUANTUM_S: f64 = 1e-3;

fn machine(nodes: usize, cores: usize, bw: f64, link: f64) -> numa_topology::Machine {
    MachineBuilder::new()
        .symmetric_nodes(nodes, cores)
        .core_peak_gflops(10.0)
        .node_bandwidth_gbs(bw)
        .uniform_link_gbs(link)
        .build()
        .unwrap()
}

/// Relative agreement at 1e-6, with an absolute floor for near-zero values.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Two apps (one always-on, one windowed), one mid-run assignment switch:
/// the shared fixture for the exact-count and determinism tests. Window
/// and switch edges sit at power-of-two quantum multiples.
fn window_fixture() -> (
    numa_topology::Machine,
    Vec<SimApp>,
    Vec<(f64, ThreadAssignment)>,
) {
    let m = machine(2, 4, 32.0, 8.0);
    let apps = vec![
        SimApp::numa_local("steady", 0.5),
        SimApp::numa_local("windowed", 0.5).with_activity(ActivityPattern::Window {
            start_s: 2.0 * QUANTUM_S,
            end_s: 4.0 * QUANTUM_S,
        }),
    ];
    let a = ThreadAssignment::uniform_per_node(&m, &[2, 1]);
    let b = ThreadAssignment::uniform_per_node(&m, &[1, 2]);
    let schedule = vec![(0.0, a), (8.0 * QUANTUM_S, b)];
    (m, apps, schedule)
}

/// One switch strictly inside the run ⇒ exactly one "assignment" event;
/// a window with both edges strictly inside ⇒ exactly two "activity"
/// events; and the engines agree on every app's throughput.
#[test]
fn window_and_switch_produce_exact_event_log() {
    let (m, apps, schedule) = window_fixture();
    let duration = 16.0 * QUANTUM_S;
    let sim = Simulation::new(SimConfig::new(m).with_effects(EffectModel::ideal()));

    let slice = sim.run_dynamic(&apps, &schedule, duration).unwrap();
    let (event, log) = sim.run_logged(&apps, &schedule, duration).unwrap();

    assert_eq!(log.count_of("assignment"), 1, "one mid-run switch");
    assert_eq!(log.count_of("activity"), 2, "window on + off edges");
    assert_eq!(log.len(), 3, "no other events exist in this scenario");

    assert!(
        close(slice.total_gflops(), event.total_gflops()),
        "total: slice {} vs event {}",
        slice.total_gflops(),
        event.total_gflops()
    );
    for i in 0..apps.len() {
        assert!(
            close(slice.app_gflops(i), event.app_gflops(i)),
            "app {i}: slice {} vs event {}",
            slice.app_gflops(i),
            event.app_gflops(i)
        );
    }
}

/// Same seed ⇒ byte-identical event log; a different seed changes the
/// serialized log (the seed is part of it, and reorders equal-time pops).
#[test]
fn same_seed_means_byte_identical_event_log() {
    let (m, apps, schedule) = window_fixture();
    let duration = 16.0 * QUANTUM_S;
    let run = |seed: u64| {
        let sim = Simulation::new(
            SimConfig::new(m.clone())
                .with_effects(EffectModel::ideal())
                .with_seed(seed),
        );
        let (_, log) = sim.run_logged(&apps, &schedule, duration).unwrap();
        log.to_bytes()
    };
    let first = run(42);
    assert_eq!(first, run(42), "same seed must replay byte-identically");
    assert_ne!(first, run(43), "the seed is part of the log identity");
}

/// A kill/revive chaos plan with reclaim produces identical outage
/// segments and matching throughput on both engines.
#[test]
fn chaos_plan_agrees_across_engines() {
    let scenario = Scenario {
        name: "chaos-agreement".into(),
        machine: machine(2, 4, 32.0, 8.0),
        apps: vec![SimApp::numa_local("a", 0.5), SimApp::numa_local("b", 0.25)],
        assignments: vec![NamedAssignment {
            name: "even".into(),
            threads: vec![vec![1, 1], vec![1, 1]],
        }],
        duration_s: 16.0 * QUANTUM_S,
        effects: EffectModel::ideal(),
        seed: 7,
    };
    let plan = ChaosPlan::kill_revive(1, 4.0 * QUANTUM_S, 8.0 * QUANTUM_S).with_reclaim(true);

    let slice = run_chaos_scenario_on(&scenario, &plan, None, EngineKind::Slice).unwrap();
    let event = run_chaos_scenario_on(&scenario, &plan, None, EngineKind::Event).unwrap();

    assert_eq!(
        slice.segments, event.segments,
        "outage segmentation is derived from the plan, not the engine"
    );
    assert!(
        close(slice.result.total_gflops(), event.result.total_gflops()),
        "total: slice {} vs event {}",
        slice.result.total_gflops(),
        event.result.total_gflops()
    );
    for i in 0..scenario.apps.len() {
        assert!(
            close(slice.result.app_gflops(i), event.result.app_gflops(i)),
            "app {i}: slice {} vs event {}",
            slice.result.app_gflops(i),
            event.result.app_gflops(i)
        );
    }
}

/// A supervised run with a `RunawayTask` perturbation books the same
/// ticks on both engines: same perturbed flags, same alarm counts, and
/// residuals that agree series-by-series.
#[test]
fn runaway_task_supervised_agreement() {
    let scenario = Scenario {
        name: "runaway-agreement".into(),
        machine: machine(2, 2, 32.0, 8.0),
        apps: vec![
            SimApp::numa_local("a", 1.0 / 32.0),
            SimApp::numa_local("b", 1.0 / 32.0),
        ],
        assignments: vec![NamedAssignment {
            name: "even".into(),
            threads: vec![vec![1, 1], vec![1, 1]],
        }],
        duration_s: 0.2,
        effects: EffectModel::ideal(),
        seed: 7,
    };
    let config = |engine: EngineKind| SupervisorConfig {
        perturbations: vec![Perturbation::RunawayTask { at_s: 0.04, app: 1 }],
        engine,
        ..SupervisorConfig::default()
    };

    let slice = run_supervised(
        &scenario,
        &config(EngineKind::Slice),
        Arc::new(TelemetryHub::new()),
    )
    .unwrap();
    let event = run_supervised(
        &scenario,
        &config(EngineKind::Event),
        Arc::new(TelemetryHub::new()),
    )
    .unwrap();

    assert!(
        slice.ticks.iter().any(|t| t.perturbed),
        "the runaway must land inside the run"
    );
    assert_eq!(slice.ticks.len(), event.ticks.len());
    for (ts, te) in slice.ticks.iter().zip(&event.ticks) {
        assert_eq!(ts.perturbed, te.perturbed, "tick {}", ts.tick);
        assert_eq!(ts.alarms, te.alarms, "tick {}", ts.tick);
        assert_eq!(ts.residuals.len(), te.residuals.len(), "tick {}", ts.tick);
        for (rs, re) in ts.residuals.iter().zip(&te.residuals) {
            assert_eq!(rs.series, re.series, "tick {}", ts.tick);
            assert!(
                close(rs.predicted, re.predicted),
                "tick {} {}: predicted slice {} vs event {}",
                ts.tick,
                rs.series,
                rs.predicted,
                re.predicted
            );
            assert!(
                close(rs.measured, re.measured),
                "tick {} {}: measured slice {} vs event {}",
                ts.tick,
                rs.series,
                rs.measured,
                re.measured
            );
        }
    }
}

/// The parallel event engine's contract is *bit*-identity, not agreement
/// to tolerance: same event-log bytes, same banked floats, at any shard
/// count. These tests run the window+switch fixture, a chaos plan, and
/// explicit (deliberately lopsided) shard plans through 1/2/8 workers.
mod parallel_determinism {
    use super::*;

    fn event_config(m: &numa_topology::Machine, threads: usize) -> SimConfig {
        // Default (non-ideal) effects on purpose: the jitter RNG draws are
        // part of the sequential order the parallel engine must reproduce.
        SimConfig::new(m.clone())
            .with_seed(42)
            .with_engine(EngineKind::Event)
            .with_sim_threads(threads)
    }

    #[test]
    fn window_fixture_is_byte_identical_at_1_2_and_8_threads() {
        let (m, apps, schedule) = window_fixture();
        let duration = 16.0 * QUANTUM_S;
        let run = |threads: usize| {
            Simulation::new(event_config(&m, threads))
                .run_logged(&apps, &schedule, duration)
                .unwrap()
        };
        let (seq, seq_log) = run(1);
        for threads in [2usize, 8] {
            let (par, par_log) = run(threads);
            assert_eq!(
                seq_log.to_bytes(),
                par_log.to_bytes(),
                "{threads} threads: event log diverged"
            );
            assert_eq!(
                seq.total_gflops().to_bits(),
                par.total_gflops().to_bits(),
                "{threads} threads: totals diverged"
            );
            for i in 0..apps.len() {
                assert_eq!(
                    seq.app_gflops(i).to_bits(),
                    par.app_gflops(i).to_bits(),
                    "{threads} threads: app {i} diverged"
                );
            }
        }
    }

    #[test]
    fn chaos_plan_is_bit_identical_at_1_2_and_8_threads() {
        let scenario = Scenario {
            name: "chaos-parallel".into(),
            machine: machine(2, 4, 32.0, 8.0),
            apps: vec![SimApp::numa_local("a", 0.5), SimApp::numa_local("b", 0.25)],
            assignments: vec![NamedAssignment {
                name: "even".into(),
                threads: vec![vec![1, 1], vec![1, 1]],
            }],
            duration_s: 16.0 * QUANTUM_S,
            effects: EffectModel::ideal(),
            seed: 7,
        };
        let plan = ChaosPlan::kill_revive(1, 4.0 * QUANTUM_S, 8.0 * QUANTUM_S).with_reclaim(true);
        let seq = run_chaos_scenario_on(&scenario, &plan, None, EngineKind::Event).unwrap();
        for threads in [2usize, 8] {
            let par =
                run_chaos_scenario_threaded(&scenario, &plan, None, EngineKind::Event, threads)
                    .unwrap();
            assert_eq!(seq.segments, par.segments);
            assert_eq!(
                seq.result.total_gflops().to_bits(),
                par.result.total_gflops().to_bits(),
                "{threads} threads"
            );
            for i in 0..scenario.apps.len() {
                assert_eq!(
                    seq.result.app_gflops(i).to_bits(),
                    par.result.app_gflops(i).to_bits(),
                    "{threads} threads, app {i}"
                );
            }
        }
    }

    /// Shard boundaries are a performance knob, not a semantic one: even
    /// deliberately lopsided plans (all apps on one shard, all nodes on
    /// another; empty shards) replay the sequential engine byte-for-byte.
    #[test]
    fn explicit_lopsided_shard_plans_do_not_change_the_log() {
        let (m, apps, schedule) = window_fixture();
        let duration = 16.0 * QUANTUM_S;
        let (seq, seq_log) = Simulation::new(event_config(&m, 1))
            .run_logged(&apps, &schedule, duration)
            .unwrap();
        let plans = [
            ShardPlan {
                app_bounds: vec![0, 2, 2],
                node_bounds: vec![0, 0, 2],
            },
            ShardPlan {
                app_bounds: vec![0, 0, 2],
                node_bounds: vec![0, 1, 2],
            },
            ShardPlan {
                app_bounds: vec![0, 1, 2],
                node_bounds: vec![0, 2, 2],
            },
            ShardPlan {
                app_bounds: vec![0, 1, 1, 2],
                node_bounds: vec![0, 1, 2, 2],
            },
        ];
        for plan in &plans {
            let (par, par_log) = Simulation::new(event_config(&m, plan.num_shards()))
                .run_logged_with_plan(&apps, &schedule, duration, plan)
                .unwrap();
            assert_eq!(seq_log.to_bytes(), par_log.to_bytes(), "{plan:?}");
            assert_eq!(
                seq.total_gflops().to_bits(),
                par.total_gflops().to_bits(),
                "{plan:?}"
            );
        }
    }

    /// Every float a run reports, as bits.
    fn result_bits(r: &SimResult) -> Vec<u64> {
        let mut floats = vec![r.duration_s];
        for app in &r.apps {
            floats.push(app.gflop_done);
            floats.extend(&app.times_s);
            floats.extend(&app.gflops_series);
        }
        floats.extend(&r.node_avg_gbs);
        floats.extend(&r.node_utilization);
        floats.iter().map(|f| f.to_bits()).collect()
    }

    /// Remote traffic crosses shards: a thread's grant toward a node is
    /// computed by the shard owning the node and folded by the shard owning
    /// the thread. Eight apps on four nodes — each half holding a
    /// NUMA-bad app, a spread app (one with zero fractions), local apps,
    /// and an activity pattern — with two assignment switches that change
    /// the thread count (so the demand columns change shape under the
    /// workers) and leave one app with no threads.
    #[test]
    fn mixed_placements_are_bit_identical_at_any_sharding() {
        use numa_topology::NodeId;
        let m = machine(4, 4, 32.0, 8.0);
        let half = |tag: &str, bad_on: usize, fractions: Vec<f64>, activity: ActivityPattern| {
            vec![
                SimApp::numa_local(&format!("local{tag}"), 0.5),
                SimApp::numa_bad(&format!("bad{tag}"), 1.0 / 16.0, NodeId(bad_on)),
                SimApp::spread(&format!("spread{tag}"), 0.25, fractions),
                SimApp::numa_local(&format!("bursty{tag}"), 1.0 / 32.0).with_activity(activity),
            ]
        };
        let mut apps = half(
            "A",
            0,
            vec![0.25; 4],
            ActivityPattern::Window {
                start_s: 2.0 * QUANTUM_S,
                end_s: 10.0 * QUANTUM_S,
            },
        );
        apps.extend(half(
            "B",
            3,
            vec![0.5, 0.0, 0.0, 0.5],
            ActivityPattern::Bursts {
                period_s: 4.0 * QUANTUM_S,
                duty: 0.5,
                phase_s: QUANTUM_S,
            },
        ));
        let schedule = vec![
            // 16 threads, every node full.
            (
                0.0,
                ThreadAssignment::uniform_per_node(&m, &[1, 0, 1, 0, 0, 1, 0, 1]),
            ),
            // 32 threads: over-subscribed, every app present.
            (
                6.0 * QUANTUM_S,
                ThreadAssignment::uniform_per_node(&m, &[1; 8]),
            ),
            // 13 threads, unevenly placed; "spreadA" has none.
            (
                12.0 * QUANTUM_S,
                ThreadAssignment::from_matrix(vec![
                    vec![2, 0, 0, 0],
                    vec![0, 1, 1, 0],
                    vec![0, 0, 0, 0],
                    vec![0, 0, 1, 1],
                    vec![0, 1, 0, 0],
                    vec![1, 1, 0, 0],
                    vec![0, 0, 1, 1],
                    vec![1, 0, 0, 1],
                ]),
            ),
        ];
        let duration = 16.0 * QUANTUM_S;

        let (seq, seq_log) = Simulation::new(event_config(&m, 1))
            .run_logged(&apps, &schedule, duration)
            .unwrap();
        assert_eq!(seq_log.count_of("assignment"), 2);
        assert!(
            seq.node_avg_gbs.iter().all(|&g| g > 0.0) && seq.apps[1].gflop_done > 0.0,
            "every controller serves traffic and the NUMA-bad app makes progress"
        );
        let check = |what: &str, (par, par_log): (SimResult, memsim::EventLog)| {
            assert_eq!(seq_log, par_log, "{what}: event log diverged");
            assert_eq!(seq_log.to_bytes(), par_log.to_bytes(), "{what}");
            assert_eq!(
                result_bits(&seq),
                result_bits(&par),
                "{what}: floats diverged"
            );
        };
        for threads in [2usize, 8] {
            check(
                &format!("{threads} threads"),
                Simulation::new(event_config(&m, threads))
                    .run_logged(&apps, &schedule, duration)
                    .unwrap(),
            );
        }
        let plans = [
            // All threads on one shard, all nodes on the other.
            ShardPlan {
                app_bounds: vec![0, 8, 8],
                node_bounds: vec![0, 0, 4],
            },
            // Lopsided both ways, with an empty middle shard.
            ShardPlan {
                app_bounds: vec![0, 1, 1, 8],
                node_bounds: vec![0, 3, 3, 4],
            },
            // Shard boundaries that split each half's remote pairs.
            ShardPlan {
                app_bounds: vec![0, 2, 5, 8],
                node_bounds: vec![0, 1, 2, 4],
            },
        ];
        for plan in &plans {
            check(
                &format!("{plan:?}"),
                Simulation::new(event_config(&m, plan.num_shards()))
                    .run_logged_with_plan(&apps, &schedule, duration, plan)
                    .unwrap(),
            );
        }
    }

    #[test]
    fn malformed_shard_plans_are_rejected() {
        let (m, apps, schedule) = window_fixture();
        let bad = ShardPlan {
            app_bounds: vec![0, 1],
            node_bounds: vec![0, 1], // does not span the 2-node machine
        };
        let err = Simulation::new(event_config(&m, 1))
            .run_logged_with_plan(&apps, &schedule, 16.0 * QUANTUM_S, &bad)
            .unwrap_err();
        assert!(format!("{err}").contains("bad shard plan"), "{err}");
    }
}

/// Random machines, arithmetic intensities, thread counts, one
/// quantum-aligned assignment switch and one quantum-aligned activity
/// window: slice and event totals and per-app shares agree.
#[test]
fn engines_agree_on_random_dynamic_schedules() {
    check(1, CASES, |g| {
        let (nodes, cores) = (g.range(2..4usize), g.range(2..7usize));
        let ais = g.vec(2..4, |g| g.range(0.05..32.0));
        let counts_a = g.vec(2..4, |g| g.range(0..3usize));
        let counts_b = g.vec(2..4, |g| g.range(0..3usize));
        let switch_ms = g.range(1..19usize);
        let (win_start_ms, win_len_ms) = (g.range(0..10usize), g.range(1..10usize));
        let n_apps = ais.len().min(counts_a.len()).min(counts_b.len());
        let m = machine(nodes, cores, 32.0, 8.0);
        let apps: Vec<SimApp> = ais[..n_apps]
            .iter()
            .enumerate()
            .map(|(i, &ai)| {
                let app = SimApp::numa_local(&format!("a{i}"), ai);
                if i == 0 {
                    // Exercise activity edges alongside the switch.
                    app.with_activity(ActivityPattern::Window {
                        start_s: win_start_ms as f64 * QUANTUM_S,
                        end_s: (win_start_ms + win_len_ms) as f64 * QUANTUM_S,
                    })
                } else {
                    app
                }
            })
            .collect();
        // Clamp per-node thread counts to capacity, keeping >= 1 thread.
        let clamp = |mut v: Vec<usize>| {
            while v.iter().sum::<usize>() > cores {
                let i = v.iter().position(|&c| c > 0).unwrap();
                v[i] -= 1;
            }
            if v.iter().all(|&c| c == 0) {
                v[0] = 1;
            }
            v
        };
        let a = ThreadAssignment::uniform_per_node(&m, &clamp(counts_a[..n_apps].to_vec()));
        let b = ThreadAssignment::uniform_per_node(&m, &clamp(counts_b[..n_apps].to_vec()));
        let schedule = vec![(0.0, a), (switch_ms as f64 * QUANTUM_S, b)];
        let duration = 0.02;

        let slice = Simulation::new(SimConfig::new(m.clone()).with_effects(EffectModel::ideal()))
            .run_dynamic(&apps, &schedule, duration)
            .unwrap();
        let event = Simulation::new(
            SimConfig::new(m.clone())
                .with_effects(EffectModel::ideal())
                .with_engine(EngineKind::Event),
        )
        .run_dynamic(&apps, &schedule, duration)
        .unwrap();

        assert!(
            close(slice.total_gflops(), event.total_gflops()),
            "total: slice {} vs event {}",
            slice.total_gflops(),
            event.total_gflops()
        );
        for i in 0..n_apps {
            assert!(
                close(slice.app_gflops(i), event.app_gflops(i)),
                "app {i}: slice {} vs event {}",
                slice.app_gflops(i),
                event.app_gflops(i)
            );
        }
    });
}

/// Random schedules through the *parallel* event engine: at any thread
/// count the event log is byte-identical and the banked floats are
/// bit-identical to the single-threaded run (default effects, so the
/// jitter RNG order is exercised too).
#[test]
fn parallel_event_engine_replays_random_schedules_bit_identically() {
    check(2, CASES, |g| {
        let (nodes, cores) = (g.range(2..4usize), g.range(2..7usize));
        let ais = g.vec(2..4, |g| g.range(0.05..32.0));
        let counts_a = g.vec(2..4, |g| g.range(0..3usize));
        let counts_b = g.vec(2..4, |g| g.range(0..3usize));
        let switch_ms = g.range(1..19usize);
        let (win_start_ms, win_len_ms) = (g.range(0..10usize), g.range(1..10usize));
        let threads = g.range(2..9usize);
        let n_apps = ais.len().min(counts_a.len()).min(counts_b.len());
        let m = machine(nodes, cores, 32.0, 8.0);
        let apps: Vec<SimApp> = ais[..n_apps]
            .iter()
            .enumerate()
            .map(|(i, &ai)| {
                let app = SimApp::numa_local(&format!("a{i}"), ai);
                if i == 0 {
                    app.with_activity(ActivityPattern::Window {
                        start_s: win_start_ms as f64 * QUANTUM_S,
                        end_s: (win_start_ms + win_len_ms) as f64 * QUANTUM_S,
                    })
                } else {
                    app
                }
            })
            .collect();
        let clamp = |mut v: Vec<usize>| {
            while v.iter().sum::<usize>() > cores {
                let i = v.iter().position(|&c| c > 0).unwrap();
                v[i] -= 1;
            }
            if v.iter().all(|&c| c == 0) {
                v[0] = 1;
            }
            v
        };
        let a = ThreadAssignment::uniform_per_node(&m, &clamp(counts_a[..n_apps].to_vec()));
        let b = ThreadAssignment::uniform_per_node(&m, &clamp(counts_b[..n_apps].to_vec()));
        let schedule = vec![(0.0, a), (switch_ms as f64 * QUANTUM_S, b)];
        let duration = 0.02;

        let run = |sim_threads: usize| {
            Simulation::new(
                SimConfig::new(m.clone())
                    .with_seed(42)
                    .with_engine(EngineKind::Event)
                    .with_sim_threads(sim_threads),
            )
            .run_dynamic(&apps, &schedule, duration)
            .unwrap()
        };
        let run_logged = |sim_threads: usize| {
            Simulation::new(
                SimConfig::new(m.clone())
                    .with_seed(42)
                    .with_engine(EngineKind::Event)
                    .with_sim_threads(sim_threads),
            )
            .run_logged(&apps, &schedule, duration)
            .unwrap()
        };

        let seq = run(1);
        let par = run(threads);
        assert_eq!(
            seq.total_gflops().to_bits(),
            par.total_gflops().to_bits(),
            "{} threads: totals diverged ({} vs {})",
            threads,
            seq.total_gflops(),
            par.total_gflops()
        );
        for i in 0..n_apps {
            assert_eq!(
                seq.app_gflops(i).to_bits(),
                par.app_gflops(i).to_bits(),
                "{} threads: app {} diverged",
                threads,
                i
            );
        }
        let (_, seq_log) = run_logged(1);
        let (_, par_log) = run_logged(threads);
        assert_eq!(seq_log.to_bytes(), par_log.to_bytes());
    });
}
