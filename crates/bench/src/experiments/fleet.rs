//! E-fleet: the fleet-scale scenario sweep behind `BENCH_fleet.json`.
//!
//! Three scenario families, each at fleet scale (hundreds to thousands of
//! tenant runtimes over 8–256 NUMA nodes), run on both execution engines:
//!
//! * **churn** — tenants arrive and depart in cohorts: 10% of the fleet is
//!   only active inside a cohort-aligned [`memsim::ActivityPattern::Window`],
//!   the rest always on.
//! * **diurnal** — every tenant follows a duty cycle
//!   ([`memsim::ActivityPattern::Bursts`]) drawn from 16 phase groups, so
//!   load swings like a day/night curve and edges coincide within a group.
//! * **outages** — correlated failures: contiguous 10% blocks of the fleet
//!   die and revive together in waves (a [`memsim::ChaosPlan`] with
//!   reclamation on).
//!
//! Every cell measures the slice engine (with and without arbitration
//! scratch reuse — the honest before/after column for the
//! allocation-hoisting work), the event engine, the slice-vs-event speedup
//! and events/sec, and cross-checks that both engines bank the same work
//! (ideal effects, so the comparison is exact up to float accumulation).

use coop_telemetry::json_write;
use memsim::{
    run_chaos_scenario_on, run_chaos_scenario_threaded, ActivityPattern, AppOutage, ChaosPlan,
    EffectModel, EngineKind, Scenario, SimApp, SimConfig, Simulation,
};
use numa_topology::{Machine, MachineBuilder};
use roofline_numa::ThreadAssignment;
use std::time::Instant;

/// The slice engine's quantum; every scenario edge below is snapped onto
/// this grid so the two engines agree exactly (see docs/performance.md).
const QUANTUM_S: f64 = 1e-3;

/// Snaps a time onto the quantum grid in the exact float form
/// (`k as f64 * QUANTUM_S`) the slice engine computes its step times in,
/// so a snapped schedule edge compares bitwise-equal to its quantum start
/// and both engines switch assignments at the same instant. (A decimal
/// like `4.0 * 0.3` can land one float ulp above the grid point, which
/// would make the per-quantum schedule scan apply it a full quantum late.)
fn snap(t_s: f64) -> f64 {
    (t_s / QUANTUM_S).round() * QUANTUM_S
}

/// One point of the sweep: how many tenant runtimes over how many nodes,
/// simulated for how long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetScale {
    /// Number of tenant runtimes (one simulated thread each).
    pub runtimes: usize,
    /// Number of NUMA nodes in the fleet machine.
    pub nodes: usize,
    /// Simulated duration, seconds.
    pub duration_s: f64,
}

impl FleetScale {
    /// The default duration for a scale: 4 simulated seconds, shortened to
    /// 1 for the 5k-runtime cell (the slice engine's cost per quantum grows
    /// with `runtimes × nodes`).
    pub fn with_default_duration(runtimes: usize, nodes: usize) -> Self {
        FleetScale {
            runtimes,
            nodes,
            duration_s: if runtimes >= 5000 { 1.0 } else { 4.0 },
        }
    }
}

/// The scenario families of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetScenario {
    /// Tenant churn: cohort-aligned arrival/departure windows.
    Churn,
    /// Diurnal load: phase-grouped duty cycles.
    Diurnal,
    /// Correlated outages: contiguous blocks dying and reviving in waves.
    Outages,
}

impl FleetScenario {
    /// All families, sweep order.
    pub fn all() -> [FleetScenario; 3] {
        [
            FleetScenario::Churn,
            FleetScenario::Diurnal,
            FleetScenario::Outages,
        ]
    }

    /// Stable lowercase name (JSON column / env-var spelling).
    pub fn as_str(&self) -> &'static str {
        match self {
            FleetScenario::Churn => "churn",
            FleetScenario::Diurnal => "diurnal",
            FleetScenario::Outages => "outages",
        }
    }

    /// Parses the lowercase spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "churn" => Some(FleetScenario::Churn),
            "diurnal" => Some(FleetScenario::Diurnal),
            "outages" => Some(FleetScenario::Outages),
            _ => None,
        }
    }
}

/// One measured cell of the sweep (a row of `BENCH_fleet.json`).
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// Scenario family name.
    pub scenario: String,
    /// Tenant runtimes simulated.
    pub runtimes: usize,
    /// NUMA nodes simulated.
    pub nodes: usize,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Slice-engine wall time, milliseconds.
    pub slice_ms: f64,
    /// Event-engine wall time, milliseconds.
    pub event_ms: f64,
    /// `slice_ms / event_ms`.
    pub speedup: f64,
    /// Parallel event engine at 2 worker shards, milliseconds; `None` when
    /// skipped by the sim-threads cap.
    pub par2_ms: Option<f64>,
    /// Parallel event engine at 8 worker shards, milliseconds; `None` when
    /// skipped by the sim-threads cap.
    pub par8_ms: Option<f64>,
    /// `event_ms / par2_ms` — parallel speedup over the sequential event
    /// engine at 2 shards.
    pub par2_speedup: Option<f64>,
    /// `event_ms / par8_ms` — parallel speedup at 8 shards.
    pub par8_speedup: Option<f64>,
    /// Events per wall-clock second at 2 shards.
    pub par2_events_per_sec: Option<f64>,
    /// Events per wall-clock second at 8 shards.
    pub par8_events_per_sec: Option<f64>,
    /// Max relative difference in banked GFLOP between the parallel runs
    /// and the sequential event run. Exactly 0.0 when bit-identical (the
    /// engine's contract); `None` when no parallel run was measured.
    pub par_gflops_rel_err: Option<f64>,
    /// Discrete events the event engine processed (activity/assignment
    /// edges; for outage cells, the number of schedule segments).
    pub events: usize,
    /// Constant-rate segments the event engine integrated (its arbitration
    /// count; the slice engine arbitrates `duration / quantum` times).
    pub segments: u64,
    /// Events processed per wall-clock second of the event-engine run.
    pub events_per_sec: f64,
    /// Relative difference in total banked GFLOP between the engines.
    pub gflops_rel_err: f64,
}

json_write!(FleetCell: scenario, runtimes, nodes, duration_s, slice_ms, event_ms, speedup,
    par2_ms, par8_ms, par2_speedup, par8_speedup, par2_events_per_sec, par8_events_per_sec,
    par_gflops_rel_err, events, segments, events_per_sec, gflops_rel_err);

/// The symmetric fleet machine for a sweep point: enough cores per node to
/// host the tenant population without over-subscription.
pub fn fleet_machine(nodes: usize, cores_per_node: usize) -> Machine {
    MachineBuilder::new()
        .name(&format!("fleet-{nodes}n"))
        .symmetric_nodes(nodes, cores_per_node)
        .core_peak_gflops(12.8)
        .node_bandwidth_gbs(80.0)
        .uniform_link_gbs(12.0)
        .build()
        .expect("fleet machine parameters are well-formed")
}

/// The tenant population for one scenario family. Alternates memory-bound
/// and compute-bound tenants; the family decides the activity patterns.
pub fn tenants(scenario: FleetScenario, runtimes: usize, duration_s: f64) -> Vec<SimApp> {
    // Cohort grid for churn windows: tenants arrive/depart in deploy
    // waves, so the distinct edge count stays bounded as the fleet grows.
    const COHORT_SLOTS: usize = 32;
    (0..runtimes)
        .map(|i| {
            let ai = if i % 2 == 0 { 1.0 / 32.0 } else { 1.0 };
            let app = SimApp::numa_local(&format!("t{i}"), ai);
            match scenario {
                FleetScenario::Churn => {
                    if i % 10 == 0 {
                        let slot = (i / 10) % (COHORT_SLOTS - 4);
                        let start_s =
                            snap(duration_s * (slot as f64 + 1.0) / COHORT_SLOTS as f64);
                        let end_s =
                            snap(duration_s * (slot as f64 + 4.0) / COHORT_SLOTS as f64);
                        app.with_activity(ActivityPattern::Window { start_s, end_s })
                    } else {
                        app
                    }
                }
                FleetScenario::Diurnal => {
                    // The default durations (4s / 1s) snap the period to an
                    // even quantum count, so the duty edges at half-period
                    // offsets stay on the grid too.
                    let period_s = snap(duration_s / 4.0);
                    let phase_s = snap(period_s * ((i % 16) as f64 / 16.0));
                    app.with_activity(ActivityPattern::Bursts {
                        period_s,
                        duty: 0.5,
                        phase_s,
                    })
                }
                FleetScenario::Outages => app,
            }
        })
        .collect()
}

/// One thread per tenant, striped across the nodes.
pub fn fleet_matrix(runtimes: usize, nodes: usize) -> Vec<Vec<usize>> {
    let mut matrix = vec![vec![0usize; nodes]; runtimes];
    for (i, row) in matrix.iter_mut().enumerate() {
        row[i % nodes] = 1;
    }
    matrix
}

/// The correlated-outage plan: four waves, each killing a contiguous 10%
/// block of the fleet for a tenth of the run.
pub fn outage_plan(runtimes: usize, duration_s: f64) -> ChaosPlan {
    let block = (runtimes / 10).max(1);
    let mut outages = Vec::new();
    for wave in 0..4usize {
        let down_at_s = snap(duration_s * (0.1 + 0.2 * wave as f64));
        let up_at_s = snap(down_at_s + duration_s * 0.1);
        let lo = (wave * block) % runtimes;
        for app in lo..(lo + block).min(runtimes) {
            outages.push(AppOutage {
                app,
                down_at_s,
                up_at_s: Some(up_at_s),
            });
        }
    }
    ChaosPlan { outages, reclaim: true }
}

/// Best-of-`repeats` wall time for one closure, in seconds.
fn time_best<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("at least one repeat"))
}

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(1.0)
}

/// The parallel shard counts a cell measures (subject to the cap).
pub const PAR_THREADS: [usize; 2] = [2, 8];

/// Runs one cell: times the slice engine and the event engine (sequential,
/// and parallel at the [`PAR_THREADS`] shard counts up to
/// `sim_threads_cap`), and cross-checks the banked work. Pass
/// `sim_threads_cap = 1` to skip the parallel runs entirely (e.g. on
/// single-core runners, where the extra wall time buys no information).
pub fn run_cell(
    scenario: FleetScenario,
    scale: &FleetScale,
    repeats: usize,
    sim_threads_cap: usize,
) -> FleetCell {
    let cores_per_node = scale.runtimes.div_ceil(scale.nodes) + 2;
    let machine = fleet_machine(scale.nodes, cores_per_node);
    let apps = tenants(scenario, scale.runtimes, scale.duration_s);
    let matrix = fleet_matrix(scale.runtimes, scale.nodes);

    let config = |engine: EngineKind| {
        SimConfig::new(machine.clone())
            .with_effects(EffectModel::ideal())
            .with_seed(42)
            .with_engine(engine)
    };

    type ParRuns = [Option<(f64, f64)>; 2];
    #[allow(clippy::type_complexity)]
    let (slice_s, event_s, par, events, segments, slice_gflops, event_gflops): (f64, f64, ParRuns, usize, u64, f64, f64) =
        if scenario == FleetScenario::Outages {
            let scn = Scenario {
                name: format!("fleet-outages-{}x{}", scale.runtimes, scale.nodes),
                machine: machine.clone(),
                apps: apps.clone(),
                assignments: vec![memsim::NamedAssignment {
                    name: "striped".into(),
                    threads: matrix.clone(),
                }],
                duration_s: scale.duration_s,
                effects: EffectModel::ideal(),
                seed: 42,
            };
            let plan = outage_plan(scale.runtimes, scale.duration_s);
            let (slice_s, slice_r) = time_best(repeats, || {
                run_chaos_scenario_on(&scn, &plan, None, EngineKind::Slice)
                    .expect("fleet outage scenario runs on the slice engine")
            });
            let (event_s, event_r) = time_best(repeats, || {
                run_chaos_scenario_on(&scn, &plan, None, EngineKind::Event)
                    .expect("fleet outage scenario runs on the event engine")
            });
            let par = PAR_THREADS.map(|threads| {
                (threads <= sim_threads_cap).then(|| {
                    let (s, r) = time_best(repeats, || {
                        run_chaos_scenario_threaded(&scn, &plan, None, EngineKind::Event, threads)
                            .expect("fleet outage scenario runs on the parallel event engine")
                    });
                    (s, r.result.total_gflops())
                })
            });
            let edges = slice_r.segments.len();
            (
                slice_s,
                event_s,
                par,
                edges,
                edges as u64,
                slice_r.result.total_gflops(),
                event_r.result.total_gflops(),
            )
        } else {
            let schedule = [(0.0, ThreadAssignment::from_matrix(matrix.clone()))];
            let (slice_s, slice_r) = time_best(repeats, || {
                Simulation::new(config(EngineKind::Slice))
                    .run_dynamic(&apps, &schedule, scale.duration_s)
                    .expect("fleet scenario runs on the slice engine")
            });
            let (event_s, (event_r, log)) = time_best(repeats, || {
                Simulation::new(config(EngineKind::Event))
                    .run_logged(&apps, &schedule, scale.duration_s)
                    .expect("fleet scenario runs on the event engine")
            });
            let par = PAR_THREADS.map(|threads| {
                (threads <= sim_threads_cap).then(|| {
                    let (s, (r, _log)) = time_best(repeats, || {
                        Simulation::new(config(EngineKind::Event).with_sim_threads(threads))
                            .run_logged(&apps, &schedule, scale.duration_s)
                            .expect("fleet scenario runs on the parallel event engine")
                    });
                    (s, r.total_gflops())
                })
            });
            (
                slice_s,
                event_s,
                par,
                log.len(),
                log.segments,
                slice_r.total_gflops(),
                event_r.total_gflops(),
            )
        };

    let par_gflops_rel_err = par
        .iter()
        .flatten()
        .map(|&(_, g)| rel_err(event_gflops, g))
        .fold(None, |m: Option<f64>, e| Some(m.map_or(e, |m| m.max(e))));
    FleetCell {
        scenario: scenario.as_str().to_string(),
        runtimes: scale.runtimes,
        nodes: scale.nodes,
        duration_s: scale.duration_s,
        slice_ms: slice_s * 1e3,
        event_ms: event_s * 1e3,
        speedup: slice_s / event_s,
        par2_ms: par[0].map(|(s, _)| s * 1e3),
        par8_ms: par[1].map(|(s, _)| s * 1e3),
        par2_speedup: par[0].map(|(s, _)| event_s / s),
        par8_speedup: par[1].map(|(s, _)| event_s / s),
        par2_events_per_sec: par[0].map(|(s, _)| events as f64 / s),
        par8_events_per_sec: par[1].map(|(s, _)| events as f64 / s),
        par_gflops_rel_err,
        events,
        segments,
        events_per_sec: events as f64 / event_s,
        gflops_rel_err: rel_err(slice_gflops, event_gflops),
    }
}

/// The sweep's scales: `FLEET_SCALES` (e.g. `100x8,1000x64`) if set,
/// otherwise 100×8 and 1k×64 — plus 5k×256 outside smoke mode.
pub fn scales_from_env(smoke: bool) -> Vec<FleetScale> {
    if let Ok(spec) = std::env::var("FLEET_SCALES") {
        let parsed: Vec<FleetScale> = spec
            .split(',')
            .filter_map(|cell| {
                let (r, n) = cell.trim().split_once('x')?;
                Some(FleetScale::with_default_duration(
                    r.trim().parse().ok()?,
                    n.trim().parse().ok()?,
                ))
            })
            .collect();
        if !parsed.is_empty() {
            return parsed;
        }
        eprintln!("FLEET_SCALES={spec:?} did not parse; using defaults");
    }
    let mut scales = vec![
        FleetScale::with_default_duration(100, 8),
        FleetScale::with_default_duration(1000, 64),
    ];
    if !smoke {
        scales.push(FleetScale::with_default_duration(5000, 256));
    }
    scales
}

/// The sweep's scenario families: `FLEET_SCENARIOS` (e.g. `churn,diurnal`)
/// if set, otherwise all three.
pub fn scenarios_from_env() -> Vec<FleetScenario> {
    if let Ok(spec) = std::env::var("FLEET_SCENARIOS") {
        let parsed: Vec<FleetScenario> =
            spec.split(',').filter_map(FleetScenario::parse).collect();
        if !parsed.is_empty() {
            return parsed;
        }
        eprintln!("FLEET_SCENARIOS={spec:?} did not parse; using defaults");
    }
    FleetScenario::all().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> FleetScale {
        FleetScale {
            runtimes: 40,
            nodes: 4,
            duration_s: 1.0,
        }
    }

    #[test]
    fn engines_agree_on_every_scenario_family() {
        for scenario in FleetScenario::all() {
            let cell = run_cell(scenario, &tiny_scale(), 1, 1);
            assert!(
                cell.gflops_rel_err < 1e-6,
                "{}: engines disagree by {}",
                cell.scenario,
                cell.gflops_rel_err
            );
            assert!(cell.events > 0, "{}: no events", cell.scenario);
            // The event engine arbitrates far fewer times than the slice
            // engine's 1000 quanta (that asymmetry is the whole point).
            assert!(
                cell.segments < 500,
                "{}: {} segments for 1000 quanta",
                cell.scenario,
                cell.segments
            );
            // Cap 1: no parallel cells measured, and the cell says so.
            assert!(cell.par2_ms.is_none() && cell.par8_ms.is_none());
            assert!(cell.par_gflops_rel_err.is_none());
        }
    }

    #[test]
    fn parallel_event_runs_bank_bit_identical_work() {
        for scenario in FleetScenario::all() {
            let cell = run_cell(scenario, &tiny_scale(), 1, 8);
            assert!(
                cell.par2_ms.is_some() && cell.par8_ms.is_some(),
                "{}: parallel cells must be measured under cap 8",
                cell.scenario
            );
            // Conservative sync is deterministic: the parallel engine banks
            // exactly the sequential engine's floats, not approximations.
            assert_eq!(
                cell.par_gflops_rel_err,
                Some(0.0),
                "{}: parallel engine diverged",
                cell.scenario
            );
        }
    }

    #[test]
    fn churn_edges_stay_cohort_bounded() {
        // Distinct churn edges must not grow with fleet size: cohorts cap
        // them at 2 × (COHORT_SLOTS - 4).
        let small = run_cell(FleetScenario::Churn, &tiny_scale(), 1, 1);
        let bigger = run_cell(
            FleetScenario::Churn,
            &FleetScale {
                runtimes: 400,
                nodes: 8,
                duration_s: 1.0,
            },
            1,
            1,
        );
        assert!(bigger.segments <= small.segments + 60);
    }

    #[test]
    fn env_parsers_round_trip() {
        for s in FleetScenario::all() {
            assert_eq!(FleetScenario::parse(s.as_str()), Some(s));
        }
        assert_eq!(FleetScenario::parse("nope"), None);
        let scale = FleetScale::with_default_duration(5000, 256);
        assert_eq!(scale.duration_s, 1.0);
        assert_eq!(FleetScale::with_default_duration(100, 8).duration_s, 4.0);
    }

    #[test]
    fn outage_plan_covers_four_waves() {
        let plan = outage_plan(100, 4.0);
        assert_eq!(plan.outages.len(), 40);
        assert!(plan.reclaim);
        let mut downs: Vec<f64> = plan.outages.iter().map(|o| o.down_at_s).collect();
        downs.dedup();
        assert_eq!(downs.len(), 4);
        for o in &plan.outages {
            assert!(o.up_at_s.unwrap() < 4.0);
        }
    }
}
