//! The `memsim` runs whose allocator work `BENCH_work.json` records, each
//! with the name of its cell: a supervised decision tick of the
//! `ctl_paper` shape, an outage run of the `fleet_outages` shape and a
//! bursting run of the `fleet_diurnal` shape (`fleets/mod.rs`), and what
//! each pays besides its ticks or segments. The counts do not depend on
//! the host. The budget tests and the recorder include
//! this file next to `counting/mod.rs` and `fleets/mod.rs`.

#![allow(dead_code)] // each test that includes this module uses a part of it

use super::counting::{cost_of, Cost};
use super::fleets::{machine, outage_fleet, striped, tenant, waves, waves_of, DURATION_S, WAVES};
use coop_telemetry::TelemetryHub;
use memsim::{
    run_chaos_scenario_on, run_supervised, ActivityPattern, ChaosPlan, EffectModel, EngineKind,
    SimApp, SimConfig, Simulation, SupervisorConfig,
};
use roofline_numa::ThreadAssignment;
use std::sync::Arc;

/// The two run lengths a steady tick's cost is the difference of, so that
/// what a run sets up once cancels.
const SHORT_TICKS: u64 = 250;
const LONG_TICKS: u64 = 500;

/// What one supervised run of the `ctl_paper` shape — the Table III
/// template, skylake-like effects, 20 ms ticks, no perturbation — of
/// `ticks` decision ticks asks of the allocator, set-up and tear-down
/// included.
fn supervised_run(ticks: u64, reoptimize: bool, engine: EngineKind) -> Cost {
    let mut scenario = memsim::scenario::template();
    scenario.effects = EffectModel::skylake_like();
    let config = SupervisorConfig {
        decision_period_s: 0.02,
        duration_s: ticks as f64 * 0.02,
        reoptimize,
        engine,
        ..SupervisorConfig::default()
    };
    let hub = Arc::new(TelemetryHub::new());
    let (result, cost) = cost_of(|| run_supervised(&scenario, &config, hub));
    let result = result.expect("the template run succeeds");
    assert_eq!(result.ticks.len() as u64, ticks);
    cost
}

/// A steady supervised tick's cells: `[(name, value)]` of its allocator
/// calls and bytes.
pub fn ctl_paper_tick(reoptimize: bool, engine: EngineKind) -> [(String, f64); 2] {
    let short = supervised_run(SHORT_TICKS, reoptimize, engine);
    let long = supervised_run(LONG_TICKS, reoptimize, engine);
    let per_tick =
        |long: u64, short: u64| (long - short) as f64 / (LONG_TICKS - SHORT_TICKS) as f64;
    let mode = if reoptimize { "reoptimize" } else { "fixed" };
    let name = |what: &str| format!("ctl_paper.tick.{mode}.{engine}.{what}");
    [
        (name("calls"), per_tick(long.calls, short.calls)),
        (name("bytes"), per_tick(long.bytes, short.bytes)),
    ]
}

/// What a re-optimizing event-cut `ctl_paper` run pays besides its ticks:
/// a short run less as many steady ticks.
pub fn ctl_paper_setup() -> [(String, f64); 2] {
    let short = supervised_run(SHORT_TICKS, true, EngineKind::Event);
    let long = supervised_run(LONG_TICKS, true, EngineKind::Event);
    setup_cells("ctl_paper", short, long)
}

/// One `run_chaos_scenario_on` of the outage fleet under `plan`: its
/// allocator work and segments, two per wave and one more.
fn outage_run(plan: ChaosPlan) -> (Cost, usize) {
    let scenario = outage_fleet();
    let (out, cost) = cost_of(|| run_chaos_scenario_on(&scenario, &plan, None, EngineKind::Event));
    let out = out.expect("the outage run succeeds");
    assert!(out.result.total_gflops() > 0.0);
    (cost, out.segments.len())
}

/// One `run_chaos_scenario_on` of the outage fleet: 256 tenants on 16
/// nodes, 16 waves of 20, reclamation on — 33 segments. Its cells are the
/// run's allocator calls and its segments.
pub fn fleet_outages_run() -> [(String, f64); 2] {
    let (cost, segments) = outage_run(waves());
    assert_eq!(segments, 2 * WAVES + 1);
    [
        ("fleet_outages.run.calls".into(), cost.calls as f64),
        ("fleet_outages.run.segments".into(), segments as f64),
    ]
}

/// What an outage run pays besides its segments: the run under its first
/// eight waves (17 segments) less what the next eight add (16 more).
pub fn fleet_outages_setup() -> [(String, f64); 2] {
    let ((short, segments), (long, _)) = (outage_run(waves_of(WAVES / 2)), outage_run(waves()));
    assert_eq!(segments, WAVES + 1);
    setup_cells("fleet_outages", short, long)
}

/// `{workload}.setup.{calls,bytes}`: twice the short run less the long
/// one, which adds as many segments again.
fn setup_cells(workload: &str, short: Cost, long: Cost) -> [(String, f64); 2] {
    let setup = |short: u64, long: u64| (2 * short) as f64 - long as f64;
    [
        (
            format!("{workload}.setup.calls"),
            setup(short.calls, long.calls),
        ),
        (
            format!("{workload}.setup.bytes"),
            setup(short.bytes, long.bytes),
        ),
    ]
}

/// The bursting fleet: 1 000 tenants on 64 nodes.
const BURSTING_TENANTS: usize = 1000;
const BURSTING_NODES: usize = 64;

/// One `run_logged` of the bursting fleet for `duration_s`: tenants
/// bursting at a 50 % duty with a period of a quarter of `DURATION_S`, in
/// 16 phase groups. Its allocator work, result and event log.
fn bursting_run(duration_s: f64) -> (Cost, memsim::SimResult, memsim::EventLog) {
    let period_s = DURATION_S / 4.0;
    let apps: Vec<SimApp> = (0..BURSTING_TENANTS)
        .map(|i| {
            tenant(i).with_activity(ActivityPattern::Bursts {
                period_s,
                duty: 0.5,
                phase_s: period_s * (i * 7 % 16) as f64 / 16.0,
            })
        })
        .collect();
    let sim = Simulation::new(
        SimConfig::new(machine(BURSTING_TENANTS, BURSTING_NODES))
            .with_effects(EffectModel::ideal())
            .with_seed(42),
    );
    let striped = ThreadAssignment::from_matrix(striped(BURSTING_TENANTS, BURSTING_NODES));
    let schedule = [(0.0, striped)];
    let (out, cost) = cost_of(|| sim.run_logged(&apps, &schedule, duration_s));
    let (result, log) = out.expect("the bursting run succeeds");
    assert!(result.total_gflops() > 0.0);
    (cost, result, log)
}

/// One `run_logged` of the bursting fleet over `DURATION_S`: about 7 900
/// events in 64 segments. Its cells are the run's allocator calls per
/// tenant, its segments, its events and the heap's wake-ups: what a
/// segment costs is the claim, the cut count what it is multiplied by, and
/// a wake-up serves every tenant of a phase group.
pub fn fleet_diurnal_run() -> [(String, f64); 4] {
    let (cost, _, log) = bursting_run(DURATION_S);
    assert!(log.len() > 4 * BURSTING_TENANTS);
    println!(
        "a 1000 x 64 bursting run: {} events, {} segments, {} allocator calls",
        log.len(),
        log.segments,
        cost.calls
    );
    [
        (
            "fleet_diurnal.run.calls_per_tenant".into(),
            cost.calls as f64 / BURSTING_TENANTS as f64,
        ),
        ("fleet_diurnal.run.segments".into(), log.segments as f64),
        ("fleet_diurnal.run.events".into(), log.len() as f64),
        ("fleet_diurnal.run.wakeups".into(), log.wakeups as f64),
    ]
}

/// What a bursting run pays besides its segments: a run of half the
/// length less what the other half adds (as many segments again).
pub fn fleet_diurnal_setup() -> [(String, f64); 2] {
    let (short, _, short_log) = bursting_run(DURATION_S / 2.0);
    let (long, _, long_log) = bursting_run(DURATION_S);
    assert_eq!(2 * short_log.segments, long_log.segments);
    setup_cells("fleet_diurnal", short, long)
}
