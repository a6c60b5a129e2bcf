//! The two producers of a run's schedule cells agree. The chaos runner
//! writes each segment's non-zero cells straight from the survivors (the
//! fair split of the machine among them, or the base rows' cells of the
//! live apps); `Simulation::run_dynamic` converts a dense schedule into
//! cells once, as the run starts. Over seeded small scenarios and plans —
//! reclamation on and off, event and quantum-grid cuts, with and without a
//! telemetry hub — a chaos run equals `run_dynamic` over the schedule it
//! materialises, bit for bit, and that schedule is the survivors' rows the
//! runner always executed. A base assignment that is over-subscribed, past
//! the thread budget, of the wrong app count or misshapen is refused with
//! the same error by both.

use coop_alloc::cases::{check, Gen};
use coop_alloc::strategies::fair_share_among;
use memsim::{
    run_chaos_scenario_on, AppOutage, ChaosPlan, EffectModel, EngineKind, NamedAssignment,
    Scenario, SimApp, SimConfig, SimError, SimResult, Simulation, TelemetryHub, MAX_THREADS,
};
use numa_topology::{MachineBuilder, NodeId};
use roofline_numa::{ModelError, ThreadAssignment};
use std::sync::Arc;

/// Every float of a result, as bits, with its shape.
fn bits(r: &SimResult) -> Vec<u64> {
    let series = r.apps.iter().flat_map(|a| {
        let floats = r.times_s.iter().chain(&a.gflops_series);
        std::iter::once(a.gflop_done).chain(floats.copied())
    });
    let floats = [r.duration_s, r.total_gflops()].into_iter().chain(series);
    let floats = floats.chain(r.node_avg_gbs.iter().chain(&r.node_utilization).copied());
    floats.map(f64::to_bits).collect()
}

/// A machine of 2–4 nodes of 1–8 cores, 3–9 apps (NUMA-local or spread
/// over two nodes, some bursting) and a base assignment dealing each node's
/// cores out at random, over 50 ms.
fn scenario(g: &mut Gen) -> Scenario {
    let sizes = g.vec(2..5, |g| g.range(1..9usize));
    let machine = sizes
        .iter()
        .fold(MachineBuilder::new(), |b, &cores| {
            b.add_node(cores, g.range(8.0..40.0), 16.0)
        })
        .core_peak_gflops(10.0)
        .uniform_link_gbs(6.0)
        .build()
        .unwrap();
    let num_apps = g.range(3..10usize);
    let apps = (0..num_apps)
        .map(|i| {
            let ai = *g.pick(&[1.0 / 32.0, 0.25, 1.0]);
            let app = if g.bool(0.3) {
                let mut fractions = vec![0.0; sizes.len()];
                fractions[..2].copy_from_slice(&[0.5, 0.5]);
                SimApp::spread(&format!("s{i}"), ai, fractions)
            } else {
                SimApp::numa_local(&format!("a{i}"), ai)
            };
            if g.bool(0.3) {
                app.with_activity(memsim::ActivityPattern::Bursts {
                    period_s: 0.02,
                    duty: 0.5,
                    phase_s: g.range(0.0..0.02),
                })
            } else {
                app
            }
        })
        .collect();
    let mut threads = vec![vec![0; sizes.len()]; num_apps];
    for (node, &cores) in sizes.iter().enumerate() {
        let mut free = cores;
        for row in &mut threads {
            row[node] = g.range(0..=free);
            free -= row[node];
        }
    }
    Scenario {
        name: "producers".into(),
        machine,
        apps,
        assignments: vec![NamedAssignment {
            name: "base".into(),
            threads,
        }],
        duration_s: 0.05,
        effects: if g.bool(0.5) {
            EffectModel::skylake_like()
        } else {
            EffectModel::ideal()
        },
        seed: g.range(0..u64::MAX),
    }
}

/// One to five outages, some never revived, some at t = 0 or sharing an
/// edge, then one of four shapes the draw forces on one app: two
/// overlapping outages, an outage that never revives, one from t = 0, and
/// two whose edges fall at and after the end of the run.
fn plan(g: &mut Gen, num_apps: usize) -> ChaosPlan {
    let edge = |g: &mut Gen| f64::from(g.range(0..10u32)) * 0.005;
    let mut outages = g.vec(1..6, |g| {
        let down_at_s = edge(g);
        AppOutage {
            app: g.range(0..num_apps),
            down_at_s,
            up_at_s: g.bool(0.7).then(|| down_at_s + 0.005 + edge(g)),
        }
    });
    let app = g.range(0..num_apps);
    let outage = |down_at_s, up_at_s| AppOutage {
        app,
        down_at_s,
        up_at_s,
    };
    outages.extend(match g.range(0..4u32) {
        0 => vec![outage(0.01, Some(0.03)), outage(0.02, Some(0.04))],
        1 => vec![outage(0.015, None)],
        2 => vec![outage(0.0, Some(0.02))],
        _ => vec![outage(0.03, Some(0.05)), outage(0.05, Some(0.06))],
    });
    ChaosPlan {
        outages,
        reclaim: true,
    }
}

/// The simulator a chaos run of `scenario` builds.
fn simulation(
    scenario: &Scenario,
    engine: EngineKind,
    hub: Option<Arc<TelemetryHub>>,
) -> Simulation {
    let sim = Simulation::new(
        SimConfig::new(scenario.machine.clone())
            .with_effects(scenario.effects.clone())
            .with_seed(scenario.seed)
            .with_engine(engine),
    );
    match hub {
        Some(hub) => sim.with_telemetry(hub),
        None => sim,
    }
}

/// The rows a segment with `live` flags ran before its cells were written
/// directly: the survivors' fair share, or the base rows of the live apps.
fn survivors_rows(scenario: &Scenario, reclaim: bool, live: &[bool]) -> ThreadAssignment {
    if reclaim && live.contains(&true) {
        return fair_share_among(&scenario.machine, live).unwrap();
    }
    let mut rows = ThreadAssignment::zero(&scenario.machine, live.len());
    if !reclaim {
        for (app, base) in scenario.assignments[0].threads.iter().enumerate() {
            if live[app] {
                rows.row_mut(app).copy_from_slice(base);
            }
        }
    }
    rows
}

#[test]
fn a_chaos_run_is_its_materialised_schedule_run_dense() {
    check(54, 24, |g| {
        let scenario = scenario(g);
        let plan = plan(g, scenario.apps.len());
        for reclaim in [true, false] {
            let plan = plan.clone().with_reclaim(reclaim);
            for engine in [EngineKind::Event, EngineKind::Slice] {
                for hub in [false, true] {
                    let hub = hub.then(|| Arc::new(TelemetryHub::new()));
                    let sim = simulation(&scenario, engine, hub.clone());
                    let out = run_chaos_scenario_on(&scenario, &plan, hub, engine).unwrap();
                    let schedule = out.schedule(&scenario);
                    assert_eq!(schedule.len(), out.segments.len());
                    for ((t, rows), (start_s, live)) in schedule.iter().zip(&out.segments) {
                        assert_eq!(t.to_bits(), start_s.to_bits());
                        assert_eq!(*rows, survivors_rows(&scenario, reclaim, live), "{live:?}");
                    }
                    let dense = sim
                        .run_dynamic(&scenario.apps, &schedule, scenario.duration_s)
                        .unwrap();
                    let what = format!("reclaim {reclaim}, {engine}");
                    assert_eq!(bits(&out.result), bits(&dense), "{what}");
                }
            }
        }
    });
}

/// The runner sweeps the plan's edges once; its oracle reads the whole
/// plan at each segment's start. The segments start at 0 and at every
/// distinct down/up time before the end, ascending, and each segment's
/// live flags are `ChaosPlan::live_at` its start.
#[test]
fn the_outage_sweep_is_its_plan_read_at_every_segment() {
    check(55, 64, |g| {
        let scenario = scenario(g);
        let num_apps = scenario.apps.len();
        let plan = plan(g, num_apps);
        let mut edges = vec![0.0];
        for o in &plan.outages {
            edges.push(o.down_at_s);
            edges.extend(o.up_at_s);
        }
        edges.retain(|&t| t < scenario.duration_s);
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        for reclaim in [true, false] {
            let plan = plan.clone().with_reclaim(reclaim);
            let out = run_chaos_scenario_on(&scenario, &plan, None, EngineKind::Event).unwrap();
            let starts: Vec<f64> = out.segments.iter().map(|&(t, _)| t).collect();
            assert_eq!(starts, edges, "{plan:?}");
            for (start_s, live) in &out.segments {
                assert_eq!(
                    *live,
                    plan.live_at(num_apps, *start_s),
                    "at {start_s}: {plan:?}"
                );
            }
        }
    });
}

#[test]
fn both_producers_refuse_a_bad_entry_with_the_same_error() {
    // `tiny()`: two nodes of two cores.
    let machine = numa_topology::presets::tiny();
    let apps = vec![
        SimApp::numa_local("a", 1.0 / 32.0),
        SimApp::numa_local("b", 1.0),
    ];
    let over = SimError::OverSubscriptionDisabled { node: 1 };
    let shape = |app, actual| {
        SimError::Model(ModelError::AssignmentShape {
            app,
            expected: 2,
            actual,
        })
    };
    let cases: [(Vec<Vec<usize>>, bool, Option<SimError>); 7] = [
        (vec![vec![1, 2], vec![1, 1]], false, Some(over)),
        (vec![vec![1, 2], vec![1, 1]], true, None),
        (
            vec![vec![MAX_THREADS, 0], vec![0, 1]],
            true,
            Some(SimError::OverBudget(
                "threads",
                (MAX_THREADS + 1) as f64,
                MAX_THREADS as f64,
            )),
        ),
        (
            vec![vec![1, 1]],
            false,
            Some(SimError::Model(ModelError::AppCountMismatch {
                specs: 2,
                assignment: 1,
            })),
        ),
        (vec![vec![1, 1, 1], vec![1, 1, 1]], false, Some(shape(0, 3))),
        (vec![vec![1, 1], vec![1]], false, Some(shape(1, 1))),
        (vec![vec![1], vec![1, 1]], true, Some(shape(0, 1))),
    ];
    for (threads, allow_oversubscription, want) in cases {
        let mut effects = EffectModel::ideal();
        effects.allow_oversubscription = allow_oversubscription;
        let scenario = Scenario {
            name: "bad".into(),
            machine: machine.clone(),
            apps: apps.clone(),
            assignments: vec![NamedAssignment {
                name: "base".into(),
                threads: threads.clone(),
            }],
            duration_s: 0.1,
            effects,
            seed: 7,
        };
        let plan = ChaosPlan::kill_revive(1, 0.03, 0.06).with_reclaim(false);
        for engine in [EngineKind::Event, EngineKind::Slice] {
            let chaos = run_chaos_scenario_on(&scenario, &plan, None, engine);
            // The dense schedule of the same segments: the base rows with
            // the dead app's row zeroed, however misshapen.
            let entry = |dead: bool| {
                let mut rows = threads.clone();
                if dead {
                    rows.iter_mut().skip(1).take(1).for_each(|row| row.fill(0));
                }
                ThreadAssignment::from_matrix(rows)
            };
            let schedule = [
                (0.0, entry(false)),
                (0.03, entry(true)),
                (0.06, entry(false)),
            ];
            let dense = simulation(&scenario, engine, None).run_dynamic(
                &scenario.apps,
                &schedule,
                scenario.duration_s,
            );
            let what = format!("{threads:?}, over-subscription {allow_oversubscription}, {engine}");
            assert_eq!(chaos.as_ref().err(), dense.as_ref().err(), "{what}");
            assert_eq!(chaos.as_ref().err(), want.as_ref(), "{what}");
            if let (Ok(chaos), Ok(dense)) = (chaos, dense) {
                assert_eq!(bits(&chaos.result), bits(&dense), "{what}");
                let node_0 = chaos.schedule(&scenario)[1].1.get(0, NodeId(0));
                assert_eq!(node_0, threads[0][0], "{what}");
            }
        }
    }
}
