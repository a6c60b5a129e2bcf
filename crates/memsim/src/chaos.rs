//! Chaos scenarios: mid-run application failures in the simulator.
//!
//! The agent-side supervision layer (`coop-agent`'s `supervise` module)
//! evicts a dead runtime and redistributes its cores to the survivors.
//! This module provides the simulator-side counterpart so the *throughput*
//! effect of that reclamation can be studied deterministically: a
//! [`ChaosPlan`] lists [`AppOutage`]s (an application dies at one simulated
//! time and optionally revives at another), and [`run_chaos_scenario`]
//! compiles plan + scenario into a time-varying schedule — one entry per
//! segment, written as its non-zero cells, which is how the simulation
//! loop reads a schedule — and runs it. The runner sorts the plan's down
//! and up edges into one list and sweeps it once: a segment starts at 0 and
//! at each later edge before the end, and each app counts the outages in
//! force on it, live while there are none, however many overlap:
//!
//! * while an application is down it has no cells (it executes nothing),
//! * with [`ChaosPlan::reclaim`] enabled, every segment re-partitions the
//!   machine fairly among the *live* applications, so survivors absorb the
//!   freed cores: the segment's cells are the survivors' cells of the
//!   agent's fair-share fallback (`fair_share_among` over the live mask),
//!   one `coop_alloc::strategies::fair_split` per survivor count, whose
//!   `k`-th sharer is the segment's `k`-th survivor,
//! * without reclamation the survivors keep their original threads — the
//!   base rows' cells, taken once, of the live applications — and the dead
//!   application's cores simply idle.
//!
//! [`ChaosResult::schedule`] writes the executed schedule out as matrices
//! for a caller that reads them.
//!
//! Comparing the two runs quantifies what reclamation buys (tests assert
//! survivors complete strictly more work with it).

use crate::engine::{non_zero, Cell, Entries, SparseSchedule};
use crate::{EngineKind, Result, Scenario, SimConfig, SimError, SimResult, Simulation};
use coop_telemetry::TelemetryHub;
use roofline_numa::ThreadAssignment;
use std::sync::Arc;

/// One application failing (and possibly recovering) mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppOutage {
    /// Index of the application in the scenario's `apps`.
    pub app: usize,
    /// Simulated time at which the application dies, seconds.
    pub down_at_s: f64,
    /// Simulated time at which it revives; `None` means it stays dead.
    pub up_at_s: Option<f64>,
}

impl AppOutage {
    /// `true` while the outage is active at time `t_s`.
    pub(crate) fn is_down(&self, t_s: f64) -> bool {
        t_s >= self.down_at_s && self.up_at_s.is_none_or(|up| t_s < up)
    }
}

/// A set of outages plus the recovery policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosPlan {
    /// The outages to inject.
    pub outages: Vec<AppOutage>,
    /// When `true`, each segment fair-shares the machine among the live
    /// applications (the agent's reclamation rows; a supervised run takes
    /// them from its `coop_agent::Tenancy`); when `false`, the survivors
    /// keep their original rows and the dead application's cores idle.
    pub reclaim: bool,
}

impl ChaosPlan {
    /// A plan that kills `app` at `down_at_s` and revives it at `up_at_s`.
    pub fn kill_revive(app: usize, down_at_s: f64, up_at_s: f64) -> Self {
        ChaosPlan {
            outages: vec![AppOutage {
                app,
                down_at_s,
                up_at_s: Some(up_at_s),
            }],
            reclaim: true,
        }
    }

    /// Enables or disables reclamation (builder style).
    pub fn with_reclaim(mut self, reclaim: bool) -> Self {
        self.reclaim = reclaim;
        self
    }

    /// Which applications are live at time `t_s`.
    pub fn live_at(&self, num_apps: usize, t_s: f64) -> Vec<bool> {
        let mut live = vec![true; num_apps];
        for o in self.outages.iter().filter(|o| o.is_down(t_s)) {
            live[o.app] = false;
        }
        live
    }

    /// Validates outage targets and times against the scenario.
    pub(crate) fn validate(&self, scenario: &Scenario) -> Result<()> {
        for o in &self.outages {
            if o.app >= scenario.apps.len() {
                return Err(SimError::Calibration {
                    reason: format!(
                        "outage targets app {} but the scenario has {} apps",
                        o.app,
                        scenario.apps.len()
                    ),
                });
            }
            if !(o.down_at_s >= 0.0 && o.down_at_s.is_finite()) {
                return Err(SimError::BadTime {
                    reason: "outage down time must be non-negative and finite",
                });
            }
            if let Some(up) = o.up_at_s {
                if !(up > o.down_at_s && up.is_finite()) {
                    return Err(SimError::BadTime {
                        reason: "outage up time must come after its down time",
                    });
                }
            }
        }
        Ok(())
    }
}

/// The outcome of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// The underlying simulation result (per-app series span the whole
    /// run, outages included).
    pub result: SimResult,
    /// `(start_s, live_flags)` per schedule segment, ascending.
    pub segments: Vec<(f64, Vec<bool>)>,
    /// The schedule the run executed, one entry per entry of `segments`,
    /// as its non-zero cells.
    cells: SparseSchedule,
}

impl ChaosResult {
    /// `(start_s, assignment)` per segment: the schedule the run of
    /// `scenario` executed, one entry per entry of `segments`, each written
    /// out as a matrix.
    pub fn schedule(&self, scenario: &Scenario) -> Vec<(f64, ThreadAssignment)> {
        self.cells.to_dense(&scenario.machine, scenario.apps.len())
    }
}

/// Runs the first assignment of `scenario` under `plan` on the default
/// engine.
pub fn run_chaos_scenario(scenario: &Scenario, plan: &ChaosPlan) -> Result<ChaosResult> {
    run_chaos_scenario_on(scenario, plan, None, EngineKind::default())
}

/// The general chaos runner: optional telemetry hub (the simulator
/// publishes bandwidth tracks into it, and each outage edge appears as an
/// assignment-switch event on the shared timeline) plus an explicit
/// [`EngineKind`]. Outage edges compile to the same time-varying schedule
/// either way; the event engine turns each edge into one heap event instead
/// of being rediscovered by the per-quantum schedule scan.
pub fn run_chaos_scenario_on(
    scenario: &Scenario,
    plan: &ChaosPlan,
    hub: Option<Arc<TelemetryHub>>,
    engine: EngineKind,
) -> Result<ChaosResult> {
    scenario.validate()?;
    plan.validate(scenario)?;
    let (machine, num_apps) = (&scenario.machine, scenario.apps.len());
    let rows = scenario.assignments[0].threads.iter().map(Vec::as_slice);
    let base: Option<Vec<Cell>> = (!plan.reclaim).then(|| non_zero(rows).collect());

    // The outage flips as `(instant, app, ±1)`: the downs in plan order,
    // then the ups. A plan in time order is two sorted runs, which the
    // stable sort merges.
    let mut flips = Vec::with_capacity(2 * plan.outages.len());
    flips.extend(plan.outages.iter().map(|o| (o.down_at_s, o.app, 1)));
    let up = |o: &AppOutage| Some((o.up_at_s?, o.app, -1));
    flips.extend(plan.outages.iter().filter_map(up));
    flips.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut flips = flips.into_iter().peekable();
    // Per app, the outages in force: it is live while there are none.
    let mut down = vec![0i32; num_apps];
    // Per survivor count met, the fair split of the machine among that many
    // as `[position among the survivors, node, count]` cells.
    let mut splits: Vec<(usize, Vec<[u32; 3]>)> = Vec::new();

    let mut schedule = SparseSchedule::default();
    let mut survivors = Vec::with_capacity(num_apps);
    let mut segments = Vec::new();
    let mut t = 0.0;
    while t < scenario.duration_s {
        while let Some((_, app, step)) = flips.next_if(|f| f.0 <= t) {
            down[app] += step;
        }
        let live: Vec<bool> = down.iter().map(|&d| d == 0).collect();
        if let Some(base) = &base {
            let live_cells = base.iter().filter(|c| live[c.app as usize]);
            schedule.cells.extend(live_cells);
        } else if live.contains(&true) {
            survivors.clear();
            survivors.extend((0..num_apps as u32).filter(|&app| live[app as usize]));
            let sharers = survivors.len();
            if !splits.iter().any(|s| s.0 == sharers) {
                let mut split = Vec::with_capacity(machine.total_cores());
                coop_alloc::strategies::fair_split(machine, sharers, |pos, node, count| {
                    split.push([pos, node.0, count].map(|x| x as u32))
                })
                .expect("a survivor shares the machine");
                splits.push((sharers, split));
            }
            let (_, split) = splits.iter().find(|s| s.0 == sharers).expect("split above");
            let cell = |&[pos, node, count]: &[u32; 3]| {
                let (app, count) = (survivors[pos as usize], count as usize);
                Cell { app, node, count }
            };
            schedule.cells.extend(split.iter().map(cell));
        }
        // Everything down leaves the segment empty: a valid (if sad) one.
        schedule.end_entry(t);
        segments.push((t, live));
        t = flips.peek().map_or(f64::INFINITY, |f| f.0);
    }

    let mut sim = Simulation::new(
        SimConfig::new(machine.clone())
            .with_effects(scenario.effects.clone())
            .with_seed(scenario.seed)
            .with_engine(engine),
    );
    if let Some(hub) = hub {
        sim = sim.with_telemetry(hub);
    }
    let entries = Entries::Sparse(&schedule);
    let (result, _log) = sim.run_detailed(&scenario.apps, entries, scenario.duration_s, engine)?;
    Ok(ChaosResult {
        result,
        segments,
        cells: schedule,
    })
}

// Ignores its last argument: kept only for coopbench's `memsim.par2_*` probe
// (`benchmarks/src/workloads/fleet.rs`); goes with it in the next `benchmark` PR.
#[doc(hidden)]
pub fn run_chaos_scenario_threaded(
    scenario: &Scenario,
    plan: &ChaosPlan,
    hub: Option<Arc<TelemetryHub>>,
    engine: EngineKind,
    _sim_threads: usize,
) -> Result<ChaosResult> {
    run_chaos_scenario_on(scenario, plan, hub, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NamedAssignment;
    use crate::{EffectModel, SimApp};
    use numa_topology::presets::tiny;

    /// Two identical apps fair-sharing the tiny machine (1 thread per
    /// node each), ideal effects: fully deterministic throughput.
    fn two_app_scenario() -> Scenario {
        Scenario {
            name: "chaos-base".into(),
            machine: tiny(),
            apps: vec![
                SimApp::numa_local("a", 1.0 / 32.0),
                SimApp::numa_local("b", 1.0 / 32.0),
            ],
            assignments: vec![NamedAssignment {
                name: "even".into(),
                threads: vec![vec![1, 1], vec![1, 1]],
            }],
            duration_s: 0.1,
            effects: EffectModel::ideal(),
            seed: 7,
        }
    }

    #[test]
    fn reclamation_lets_the_survivor_absorb_the_freed_cores() {
        // Compute-bound apps: at the shared fixture's AI of 1/32 one
        // thread already saturates a `tiny()` node's 4 GB/s, so a second
        // thread on the node adds no throughput for reclamation to show.
        let scenario = Scenario {
            apps: vec![SimApp::numa_local("a", 1.0), SimApp::numa_local("b", 1.0)],
            ..two_app_scenario()
        };
        let kill_b = ChaosPlan {
            outages: vec![AppOutage {
                app: 1,
                down_at_s: 0.05,
                up_at_s: None,
            }],
            reclaim: false,
        };

        let idle = run_chaos_scenario(&scenario, &kill_b).unwrap();
        let reclaimed = run_chaos_scenario(&scenario, &kill_b.clone().with_reclaim(true)).unwrap();

        // The dead app stops either way.
        assert!(idle.result.app_gflops(1) < idle.result.total_gflops());
        // With reclamation the survivor takes over the whole machine for
        // the second half: strictly more work than when the cores idle.
        assert!(
            reclaimed.result.app_gflops(0) > idle.result.app_gflops(0) * 1.2,
            "reclaimed {} vs idle {}",
            reclaimed.result.app_gflops(0),
            idle.result.app_gflops(0)
        );
        assert!(reclaimed.result.total_gflops() > idle.result.total_gflops());
    }

    #[test]
    fn kill_revive_round_trips_through_three_segments() {
        let scenario = two_app_scenario();
        let plan = ChaosPlan::kill_revive(1, 0.03, 0.06);
        let r = run_chaos_scenario(&scenario, &plan).unwrap();
        assert_eq!(r.segments.len(), 3);
        assert_eq!(r.segments[0].1, vec![true, true]);
        assert_eq!(r.segments[1].1, vec![true, false]);
        assert_eq!(r.segments[2].1, vec![true, true]);
        // The revived app did real work before and after the outage.
        assert!(r.result.app_gflops(1) > 0.0);
        // The survivor out-executes the app that lost a third of the run.
        assert!(r.result.app_gflops(0) > r.result.app_gflops(1));
    }

    #[test]
    fn chaos_edges_show_up_as_reallocation_events() {
        let hub = Arc::new(TelemetryHub::new());
        let scenario = two_app_scenario();
        let plan = ChaosPlan::kill_revive(0, 0.03, 0.06);
        run_chaos_scenario_on(&scenario, &plan, Some(Arc::clone(&hub)), EngineKind::Slice).unwrap();
        let switches = hub
            .events()
            .iter()
            .filter(|e| e.cat == "scheduler" && e.name.starts_with("assignment"))
            .count();
        assert!(
            switches >= 2,
            "down and up edges must land on the timeline, saw {switches}"
        );
    }

    #[test]
    fn event_engine_agrees_with_slice_on_chaos() {
        let scenario = two_app_scenario();
        let plan = ChaosPlan::kill_revive(1, 0.03, 0.06);
        let slice = run_chaos_scenario_on(&scenario, &plan, None, EngineKind::Slice).unwrap();
        let event = run_chaos_scenario_on(&scenario, &plan, None, EngineKind::Event).unwrap();
        assert_eq!(slice.segments, event.segments);
        for a in 0..2 {
            let s = slice.result.app_gflops(a);
            let e = event.result.app_gflops(a);
            assert!(
                (s - e).abs() <= 1e-9 * s.max(1.0),
                "app {a}: slice {s} vs event {e}"
            );
        }
    }

    /// A base assignment that does not span the machine is refused with
    /// the scenario, before a segment is cut from it.
    #[test]
    fn a_misshapen_base_assignment_is_an_error() {
        let plan = ChaosPlan::kill_revive(1, 0.03, 0.06).with_reclaim(false);
        for threads in [
            vec![vec![1], vec![1]],
            vec![vec![1, 1, 1], vec![1, 1, 1]],
            vec![vec![1, 1], vec![1]],
        ] {
            let mut scenario = two_app_scenario();
            scenario.assignments[0].threads = threads;
            assert!(matches!(
                run_chaos_scenario(&scenario, &plan),
                Err(SimError::Model(
                    roofline_numa::ModelError::AssignmentShape { expected: 2, .. }
                ))
            ));
        }
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let scenario = two_app_scenario();
        let bad_app = ChaosPlan {
            outages: vec![AppOutage {
                app: 9,
                down_at_s: 0.01,
                up_at_s: None,
            }],
            reclaim: true,
        };
        assert!(bad_app.validate(&scenario).is_err());

        let bad_times = ChaosPlan {
            outages: vec![AppOutage {
                app: 0,
                down_at_s: 0.05,
                up_at_s: Some(0.02),
            }],
            reclaim: true,
        };
        assert!(bad_times.validate(&scenario).is_err());
    }
}
