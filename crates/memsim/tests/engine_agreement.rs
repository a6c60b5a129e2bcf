//! Cross-engine agreement: the quantum grid and the event heap are two ways
//! of cutting the same loop over the same physics, and activity is
//! classified per segment at its midpoint, never from the heap's state. So
//! with the ideal effect model (no jitter) the two must agree on
//! throughput to float rounding wherever the edges lie — an edge the heap
//! skips costs the event cuts a whole segment and the grid at most a
//! quantum, which is how the grid caught `next_edge` skipping burst ends —
//! and the event cuts must produce an exactly predictable,
//! byte-reproducible event log.
//!
//! The exact-count test restricts its edges to power-of-two multiples of
//! the quantum so the float↔tick round-trip is exact.

use coop_alloc::cases::check;
use memsim::{
    run_chaos_scenario_on, run_supervised, ActivityPattern, ChaosPlan, EffectModel, EngineKind,
    EventEdge, NamedAssignment, Perturbation, Scenario, SimApp, SimConfig, SimResult, Simulation,
    SupervisorConfig, TelemetryHub,
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

    assert_eq!(log.count_of(EventEdge::Assignment), 1, "one mid-run switch");
    assert_eq!(
        log.count_of(EventEdge::Activity),
        2,
        "window on + off edges"
    );
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

/// Relative agreement at 1e-9: float rounding and nothing else.
fn tight(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Runs one fixture with both cut sources and holds every app to [`tight`].
fn assert_engines_agree(
    m: &numa_topology::Machine,
    apps: &[SimApp],
    schedule: &[(f64, ThreadAssignment)],
    duration_s: f64,
) {
    let run = |engine: EngineKind| {
        let config = SimConfig::new(m.clone())
            .with_effects(EffectModel::ideal())
            .with_engine(engine);
        Simulation::new(config)
            .run_dynamic(apps, schedule, duration_s)
            .unwrap()
    };
    let (slice, event) = (run(EngineKind::Slice), run(EngineKind::Event));
    assert!(
        tight(slice.total_gflops(), event.total_gflops()),
        "total over {duration_s} s: slice {} vs event {}",
        slice.total_gflops(),
        event.total_gflops()
    );
    for (i, app) in apps.iter().enumerate() {
        assert!(
            tight(slice.app_gflops(i), event.app_gflops(i)),
            "app {i} ({:?}) over {duration_s} s: slice {} vs event {}",
            app.activity,
            slice.app_gflops(i),
            event.app_gflops(i)
        );
    }
}

/// A burst pattern on its own — no neighbour whose edges cut the same
/// ticks — whose residue lands on a period start: at 6c06162 `next_edge`
/// jumped a whole period there, the event cuts never saw the burst end and
/// banked 20 % more than the grid (0.696 vs 0.580 GFLOP on this shape).
#[test]
fn a_lone_burst_pattern_agrees_across_engines() {
    let m = machine(2, 4, 32.0, 8.0);
    let apps = vec![
        SimApp::numa_local("steady", 0.5),
        SimApp::numa_local("bursty", 0.5).with_activity(ActivityPattern::Bursts {
            period_s: 0.02,
            duty: 0.5,
            phase_s: 0.004,
        }),
    ];
    let schedule = [(0.0, ThreadAssignment::uniform_per_node(&m, &[2, 2]))];
    assert_engines_agree(&m, &apps, &schedule, 0.1);
}

/// ROADMAP 4(a)'s receipt: the shape of coopbench's 100 × 8 oracle fleet,
/// its 16 phase groups left at `period / 16` instead of snapped to the
/// quantum, so every burst edge of the 1 s run (15.625 ms apart) and half
/// those of the 4 s run (62.5 ms) fall inside a quantum.
#[test]
fn the_unsnapped_fleet_agrees_at_one_and_four_seconds() {
    let (tenants, nodes) = (100, 8);
    let m = machine(nodes, tenants / nodes + 3, 80.0, 12.0);
    let mut striped = vec![vec![0usize; nodes]; tenants];
    for (i, row) in striped.iter_mut().enumerate() {
        row[i % nodes] = 1;
    }
    let schedule = [(0.0, ThreadAssignment::from_matrix(striped))];
    for duration_s in [1.0, 4.0] {
        let period_s = duration_s / 4.0;
        let apps: Vec<SimApp> = (0..tenants)
            .map(|i| {
                let ai = if i % 3 == 0 { 1.0 } else { 1.0 / 32.0 };
                SimApp::numa_local(&format!("t{i}"), ai).with_activity(ActivityPattern::Bursts {
                    period_s,
                    duty: 0.5,
                    phase_s: period_s * (i * 7 % 16) as f64 / 16.0,
                })
            })
            .collect();
        assert_engines_agree(&m, &apps, &schedule, duration_s);
    }
}

/// FNV-1a (64 bit).
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Eight apps on four nodes — each half holding a NUMA-bad app, a spread
/// app (one with zero fractions), local apps, and an activity pattern —
/// with two assignment switches that change the thread count (so the
/// demand columns change shape mid-run), one of them over-subscribed, the
/// last leaving one app with no threads; and the run's duration.
fn mixed_placements() -> (
    numa_topology::Machine,
    Vec<SimApp>,
    Vec<(f64, ThreadAssignment)>,
    f64,
) {
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
    (m, apps, schedule, 16.0 * QUANTUM_S)
}

/// The FNV-1a digest of every float of `result` — duration, then per app
/// its work, the run's sample times and its sample rates, then per node its
/// average bandwidth and utilization — and how many floats that is.
fn float_digest(result: &SimResult) -> (u64, usize) {
    let mut floats = vec![result.duration_s];
    for app in &result.apps {
        floats.push(app.gflop_done);
        floats.extend(&result.times_s);
        floats.extend(&app.gflops_series);
    }
    floats.extend(&result.node_avg_gbs);
    floats.extend(&result.node_utilization);
    let digest = fnv1a(floats.iter().flat_map(|f| f.to_bits().to_le_bytes()));
    (digest, floats.len())
}

/// The exact test of the event loop on remote traffic: [`mixed_placements`]
/// under the default (jittered) effects. The event log's bytes and every
/// float of the result are pinned by FNV-1a digests. They were taken at
/// commit 685ff2c, where a second implementation of the loop (the
/// since-deleted sharded engine) was held equal to this run at 2 and 8
/// threads and under three lopsided partitions, and taken again when
/// `next_edge` stopped repeating an edge 1 ns later: the log is 685ff2c's
/// less its two twins (11 000 001 and 15 000 001 ns; 15 segments then, 13
/// now), and the floats are what 6c06162's event loop gives with that fix
/// alone (the twins drew jitter), taken again with jitter drawn per (seed,
/// thread, segment) alone.
#[test]
fn mixed_placements_replay_the_pinned_log_and_floats() {
    let (m, apps, schedule, duration) = mixed_placements();
    let (result, log) = Simulation::new(
        SimConfig::new(m)
            .with_seed(42)
            .with_engine(EngineKind::Event),
    )
    .run_logged(&apps, &schedule, duration)
    .unwrap();
    assert_eq!(log.count_of(EventEdge::Assignment), 2);
    assert!(
        result.node_avg_gbs.iter().all(|&g| g > 0.0) && result.apps[1].gflop_done > 0.0,
        "every controller serves traffic and the NUMA-bad app makes progress"
    );
    assert_eq!(
        fnv1a(log.to_bytes().into_iter()),
        0x133c_11ed_ab52_beda,
        "event log: {log:?}"
    );
    let (digest, floats) = float_digest(&result);
    assert_eq!(
        digest, 0xba66_21ae_0aa0_0674,
        "the {floats} floats of the result"
    );
}

/// The same run cut by the quantum grid as well: sixteen quanta of
/// jittered arbitration, sampled every ten quanta and at the end, so each
/// sample is a window's banked work over its length (`banked / window_s`)
/// rather than one segment's rate. Every float of the result is pinned by
/// an FNV-1a digest taken at commit cbda849, when each window still
/// appended to two vectors per app, and again with jitter drawn per (seed,
/// thread, segment) alone.
#[test]
fn mixed_placements_replay_the_pinned_floats_on_the_grid() {
    let (m, apps, schedule, duration) = mixed_placements();
    let result = Simulation::new(
        SimConfig::new(m)
            .with_seed(42)
            .with_engine(EngineKind::Slice),
    )
    .run_dynamic(&apps, &schedule, duration)
    .unwrap();
    assert!(
        result.times_s.len() == 2 && result.apps.iter().all(|a| a.gflops_series.len() == 2),
        "two sample windows: ten quanta, then six"
    );
    let (digest, floats) = float_digest(&result);
    assert_eq!(
        digest, 0xe8c7_29f2_f1fd_e7de,
        "the {floats} floats of the result"
    );
}

/// Random machines, arithmetic intensities and thread counts; every app
/// always on, windowed or bursting with whole-millisecond lengths and
/// phase; one assignment switch drawn in half milliseconds, so on the
/// quantum grid or in the middle of a quantum: slice and event per-app
/// throughput agree.
#[test]
fn engines_agree_on_random_dynamic_schedules() {
    check(1, CASES, |g| {
        let (nodes, cores) = (g.range(2..4usize), g.range(2..7usize));
        let ais = g.vec(2..4, |g| g.range(0.05..32.0));
        let counts_a = g.vec(2..4, |g| g.range(0..3usize));
        let counts_b = g.vec(2..4, |g| g.range(0..3usize));
        let switch_half_ms = g.range(2..38usize);
        let n_apps = ais.len().min(counts_a.len()).min(counts_b.len());
        let m = machine(nodes, cores, 32.0, 8.0);
        let ms = |n: usize| n as f64 * QUANTUM_S;
        let apps: Vec<SimApp> = ais[..n_apps]
            .iter()
            .enumerate()
            .map(|(i, &ai)| {
                let (a, b, c) = (
                    g.range(0..10usize),
                    g.range(1..10usize),
                    g.range(1..10usize),
                );
                let activity = match g.range(0..3usize) {
                    0 => ActivityPattern::AlwaysOn,
                    1 => ActivityPattern::Window {
                        start_s: ms(a),
                        end_s: ms(a + b),
                    },
                    _ => ActivityPattern::Bursts {
                        period_s: ms(b + c),
                        duty: b as f64 / (b + c) as f64,
                        phase_s: ms(a),
                    },
                };
                SimApp::numa_local(&format!("a{i}"), ai).with_activity(activity)
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
        let schedule = [(0.0, a), (ms(switch_half_ms) / 2.0, b)];
        assert_engines_agree(&m, &apps, &schedule, 0.02);
    });
}
