//! Supervised simulation: the model-drift observatory's predict-then-measure
//! loop over the simulator.
//!
//! [`run_supervised`] runs a scenario's apps for a number of decision ticks
//! on its first assignment's rows or, under
//! [`reoptimize`](SupervisorConfig::reoptimize), on the rows the agent's
//! [`ModelGuided`] policy commands, applied through the agent's tenancy
//! step as [`coop_agent::Agent`] applies them. Per tick it
//!
//! 1. solves the analytic model on the scenario's *nominal* machine for
//!    the rows in force and opens a provenance record with the predicted
//!    per-app and per-node series ([`roofline_numa::SolveReport::to_prediction`]),
//! 2. simulates the tick on the *current* machine — the nominal one with
//!    every [`Perturbation`] whose `at_s` has passed applied — and
//! 3. back-fills the record with the measured series, which runs the
//!    residuals through the shared drift detector, updates the
//!    `coop_model_*` Prometheus metrics, and raises alarm events on the
//!    merged timeline.
//!
//! With no perturbations (and ideal effects) predicted and measured agree
//! and the detector stays quiet; degrade a node's bandwidth mid-run and the
//! `node/<n>/bandwidth_gbs` residuals go persistently negative until the
//! CUSUM alarm fires — the continuous analogue of the paper's one-shot
//! Table III model-vs-measurement comparison.

use crate::chaos::ChaosPlan;
use crate::engine::Entries;
use crate::event::{advance_time, EventRun};
use crate::{EngineKind, Result, Scenario, SimConfig, SimError, Simulation};
use coop_agent::control::row_of;
use coop_agent::policies::ModelGuided;
use coop_agent::{Policy, RuntimeStats, Tenancy};
use coop_telemetry::{
    ArgValue, Counter, DriftConfig, DriftReport, ModelObservatory, Prediction, ProvenanceRecord,
    Residual, SeriesKey, SeriesValue, TelemetryHub, TenantSample,
};
use numa_topology::{Machine, NodeId};
use roofline_numa::{solve, AppSpec, ThreadAssignment};
use std::sync::Arc;

/// A mid-run change the analytic model does not know about: a machine
/// degradation or a misbehaving tenant.
#[derive(Debug, Clone, PartialEq)]
pub enum Perturbation {
    /// A node's local memory bandwidth changes.
    NodeBandwidth {
        /// Simulated time at which the change takes effect, seconds.
        at_s: f64,
        /// The node whose local memory bandwidth changes.
        node: usize,
        /// Multiplier applied to the node's *nominal* bandwidth (e.g.
        /// `0.5` halves it). When several perturbations of the same node
        /// are active, the latest `at_s` wins.
        bandwidth_factor: f64,
    },
    /// One of `app`'s tasks wedges into an infinite loop at `at_s`: the
    /// watchdog flags it at the end of every tick it has set in by, so the
    /// app's runaway counter climbs once per wedged tick, as a live runtime
    /// that wedges a fresh task every tick does. The first flag raises a
    /// `runaway` timeline instant, bumps `coop_runaway_tasks_total` and
    /// snapshots any installed flight recorder; each flagged tick books a
    /// preemption and a tick of over-budget CPU against the app. The
    /// agent's rule contains it ([`coop_agent::control`]): from its second
    /// climbing tick — two after the onset — its row is clamped to its
    /// fair-share row among the live apps.
    RunawayTask {
        /// Simulated time at which the task wedges, seconds.
        at_s: f64,
        /// Index of the offending application in the scenario's `apps`.
        app: usize,
    },
}

impl Perturbation {
    /// Simulated time at which this perturbation takes effect, seconds.
    pub(crate) fn at_s(&self) -> f64 {
        match self {
            Perturbation::NodeBandwidth { at_s, .. } => *at_s,
            Perturbation::RunawayTask { at_s, .. } => *at_s,
        }
    }
}

/// Tuning for [`run_supervised`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Length of one decision tick (predict → simulate → measure), seconds.
    pub decision_period_s: f64,
    /// Total supervised duration, seconds.
    pub duration_s: f64,
    /// Machine changes the model does not know about.
    pub perturbations: Vec<Perturbation>,
    /// Drift-detector tuning shared by every series.
    pub drift: DriftConfig,
    /// Let the agent's [`ModelGuided`] policy, built on the scenario's
    /// nominal machine and apps, decide the rows instead of replaying the
    /// scenario's fixed assignment. Each tick it sees the live apps (by
    /// name) and the tick index, as under [`coop_agent::Agent`]: it
    /// searches cold when the live set changes and warm every `period`
    /// ticks, and its per-node commands are applied as the agent applies
    /// them. Each provenance record carries the policy's `search/*` inputs,
    /// the cost of its latest search.
    pub reoptimize: bool,
    /// Emit synthetic causal spans from each tick's simulation (see
    /// [`Simulation::with_tracing`]): every (app, tick) pair becomes a
    /// traced task in the runtime's hop schema, so a supervised fleet run
    /// assembles with the same [`coop_telemetry::TraceAssembler`] as a
    /// real runtime.
    pub tracing: bool,
    /// Application outages injected into the supervised run (an app is
    /// down for a whole tick iff the plan says it is down at the tick's
    /// start). Down apps leave the rows in force — the survivors fair-share
    /// the machine when the plan reclaims — and the prediction follows;
    /// their ledger epochs close (`outage`) and re-open (`revived`).
    pub chaos: Option<ChaosPlan>,
    /// Which simulator engine executes each decision tick (default
    /// [`EngineKind::Event`]). The event engine makes long fleet-scale
    /// supervised runs tractable; see `docs/performance.md`.
    pub engine: EngineKind,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            decision_period_s: 0.02,
            duration_s: 0.2,
            perturbations: Vec::new(),
            drift: DriftConfig::default(),
            reoptimize: false,
            tracing: false,
            chaos: None,
            engine: EngineKind::default(),
        }
    }
}

/// The most decision ticks one supervised run may have: a run keeps one
/// [`DecisionTick`] with its residual vector per tick.
const MAX_DECISION_TICKS: f64 = 1e6;

impl SupervisorConfig {
    /// Validates periods, the tick count and perturbation targets against
    /// `machine`.
    pub(crate) fn validate(&self, machine: &Machine) -> Result<()> {
        if !(self.decision_period_s > 0.0 && self.decision_period_s.is_finite()) {
            return Err(SimError::BadTime {
                reason: "decision period must be positive and finite",
            });
        }
        if !(self.duration_s > 0.0 && self.duration_s.is_finite()) {
            return Err(SimError::BadTime {
                reason: "supervised duration must be positive and finite",
            });
        }
        if self.duration_s / self.decision_period_s > MAX_DECISION_TICKS {
            return Err(SimError::BadTime {
                reason: "too many decision ticks (duration / decision period exceeds 1000000)",
            });
        }
        for p in &self.perturbations {
            if !(p.at_s() >= 0.0 && p.at_s().is_finite()) {
                return Err(SimError::BadTime {
                    reason: "perturbation time must be non-negative and finite",
                });
            }
            match p {
                Perturbation::NodeBandwidth {
                    node,
                    bandwidth_factor,
                    ..
                } => {
                    if *node >= machine.num_nodes() {
                        return Err(SimError::Calibration {
                            reason: format!(
                                "perturbation targets node {} but the machine has {} nodes",
                                node,
                                machine.num_nodes()
                            ),
                        });
                    }
                    if !(*bandwidth_factor > 0.0 && bandwidth_factor.is_finite()) {
                        return Err(SimError::Calibration {
                            reason: format!(
                                "perturbation of node {node} has non-positive bandwidth factor {bandwidth_factor}"
                            ),
                        });
                    }
                }
                // App bounds are scenario-dependent; checked by
                // `runaway_onsets` in `run_supervised`.
                Perturbation::RunawayTask { .. } => {}
            }
        }
        Ok(())
    }

    /// Earliest runaway onset per app, validated against `num_apps`.
    fn runaway_onsets(&self, num_apps: usize) -> Result<Vec<Option<f64>>> {
        let mut onsets: Vec<Option<f64>> = vec![None; num_apps];
        for p in &self.perturbations {
            if let Perturbation::RunawayTask { at_s, app } = p {
                if *app >= num_apps {
                    return Err(SimError::Calibration {
                        reason: format!(
                            "runaway perturbation targets app {app} but the scenario has {num_apps} apps"
                        ),
                    });
                }
                let slot = &mut onsets[*app];
                if slot.is_none_or(|prev| *at_s < prev) {
                    *slot = Some(*at_s);
                }
            }
        }
        Ok(onsets)
    }

    /// How many bandwidth perturbations are active at time `t_s`. Onsets
    /// only pass, so between two times with the same count
    /// [`machine_at`](SupervisorConfig::machine_at) returns the same machine.
    fn active_bandwidth_perturbations(&self, t_s: f64) -> usize {
        self.perturbations
            .iter()
            .filter(|p| matches!(p, Perturbation::NodeBandwidth { at_s, .. } if *at_s <= t_s))
            .count()
    }

    /// The nominal machine with every perturbation active at time `t_s`
    /// applied (latest-active-per-node wins).
    pub(crate) fn machine_at(&self, nominal: &Machine, t_s: f64) -> Result<Machine> {
        let mut factors: Vec<Option<(f64, f64)>> = vec![None; nominal.num_nodes()];
        for p in &self.perturbations {
            let Perturbation::NodeBandwidth {
                at_s,
                node,
                bandwidth_factor,
            } = p
            else {
                continue;
            };
            if *at_s <= t_s {
                let slot = &mut factors[*node];
                if slot.is_none_or(|(at, _)| *at_s >= at) {
                    *slot = Some((*at_s, *bandwidth_factor));
                }
            }
        }
        let mut machine = nominal.clone();
        for (node, slot) in factors.iter().enumerate() {
            if let Some((_, factor)) = slot {
                machine = machine
                    .with_scaled_node_bandwidth(NodeId(node), *factor)
                    .map_err(|e| SimError::Calibration {
                        reason: format!("applying perturbation to node {node}: {e}"),
                    })?;
            }
        }
        Ok(machine)
    }
}

/// One decision tick of a supervised run.
#[derive(Debug, Clone)]
pub struct DecisionTick {
    /// Tick index (0-based).
    pub tick: u64,
    /// Simulated start time of the tick, seconds.
    pub start_s: f64,
    /// Provenance-record id in the observatory's ledger.
    pub provenance: u64,
    /// `true` if a perturbation was active during this tick.
    pub perturbed: bool,
    /// Residuals computed when the tick's record was back-filled.
    pub residuals: Vec<Residual>,
    /// Number of drift alarms raised while closing this tick.
    pub alarms: usize,
}

/// The outcome of [`run_supervised`].
#[derive(Debug, Clone)]
pub struct SupervisedResult {
    /// One entry per decision tick, in order.
    pub ticks: Vec<DecisionTick>,
    /// The observatory holding the ledger, detector state, and metrics.
    pub observatory: Arc<ModelObservatory>,
}

impl SupervisedResult {
    /// The drift report accumulated over the run.
    pub fn report(&self) -> DriftReport {
        self.observatory.report()
    }

    /// The retained provenance records, oldest first. A run whose
    /// prediction does not change opens every record on the same one, and
    /// a record derives its residuals from it and what it measured:
    ///
    /// ```
    /// use memsim::{run_supervised, SupervisorConfig, TelemetryHub};
    /// use std::sync::Arc;
    ///
    /// let scenario = memsim::scenario::template();
    /// let hub = Arc::new(TelemetryHub::new());
    /// let run = run_supervised(&scenario, &SupervisorConfig::default(), hub)?;
    /// let records = run.records();
    /// assert!(Arc::ptr_eq(&records[0].prediction, &records[1].prediction));
    /// for (record, tick) in records.iter().zip(&run.ticks) {
    ///     assert_eq!(record.residuals().len(), record.prediction.series.len());
    ///     assert_eq!(record.residuals().len(), tick.residuals.len());
    /// }
    /// # Ok::<(), memsim::SimError>(())
    /// ```
    pub fn records(&self) -> Vec<ProvenanceRecord> {
        self.observatory.records()
    }

    /// Total drift alarms raised during the run.
    pub fn total_alarms(&self) -> usize {
        self.ticks.iter().map(|t| t.alarms).sum()
    }

    /// Index of the first tick that raised an alarm, if any.
    pub fn first_alarm_tick(&self) -> Option<u64> {
        self.ticks.iter().find(|t| t.alarms > 0).map(|t| t.tick)
    }
}

/// Runs `scenario` — its first assignment, or the policy's rows under
/// `reoptimize` — under model supervision, publishing provenance and drift
/// events into `hub` (see the module docs for the per-tick loop).
pub fn run_supervised(
    scenario: &Scenario,
    config: &SupervisorConfig,
    hub: Arc<TelemetryHub>,
) -> Result<SupervisedResult> {
    scenario.validate()?;
    config.validate(&scenario.machine)?;
    if let Some(plan) = &config.chaos {
        plan.validate(scenario)?;
    }
    let observatory = Arc::new(ModelObservatory::with_config(
        Arc::clone(&hub),
        config.drift.clone(),
        1024,
    ));
    let named = &scenario.assignments[0];
    let mut assignment = ThreadAssignment::from_matrix(named.threads.clone());
    let specs: Vec<AppSpec> = scenario.apps.iter().map(|a| a.spec.clone()).collect();

    // The model predicts from the nominal machine — the whole point is that
    // it does not know about bandwidth perturbations — for the rows in
    // force: the live apps' rows, reclaimed and contained. Every tick's
    // record shares this template, built again when those rows or the
    // policy's `search/*` inputs change.
    type SearchInputs = Option<[(&'static str, f64); 5]>;
    let template_for = |rows: &ThreadAssignment, search: SearchInputs| -> Result<Arc<Prediction>> {
        let mut template = solve(&scenario.machine, &specs, rows)?.to_prediction();
        template.assignment = format!("{} {:?}", named.name, rows.to_matrix()).into();
        let search = search.into_iter().flatten();
        template
            .inputs
            .extend(search.map(|(key, value)| (key.into(), value)));
        Ok(Arc::new(template))
    };
    let mut template = template_for(&assignment, None)?;
    let mut template_search: SearchInputs = None;
    let mut policy = config
        .reoptimize
        .then(|| ModelGuided::new(scenario.machine.clone(), specs.clone()));

    // Map simulated seconds onto the hub clock exactly like the engine's
    // own telemetry does, so provenance/alarm events interleave with the
    // simulator's bandwidth samples. The same anchor is handed to every
    // tick's simulation (`with_time_base`), so the whole supervised run
    // lives on one simulated clock — each per-tick simulation would
    // otherwise re-anchor to the wall time at which it happened to start.
    let base_us = hub.now_us();
    let ts = |t_s: f64| base_us + (t_s * 1e6) as u64;

    let ticks_total = (config.duration_s / config.decision_period_s).ceil() as u64;
    let mut ticks = Vec::with_capacity(ticks_total as usize);
    let num_apps = scenario.apps.len();
    // The apps are tenants of the agent's tenancy step: outage edges close
    // and re-open their ledger epochs, the survivors reclaim an outage's
    // cores, and a wedged app is contained. An app is down for the whole
    // tick iff the plan says it is down at the tick's start.
    let up = |i: usize, t_s: f64| {
        (config.chaos.iter().flat_map(|plan| &plan.outages)).all(|o| o.app != i || !o.is_down(t_s))
    };
    let mut tenancy = Tenancy::new(
        Some(&scenario.machine),
        scenario.effects.allow_oversubscription,
        "outage",
        "revived",
    );
    for (i, app) in scenario.apps.iter().enumerate() {
        tenancy.admit(&hub, &app.spec.name, !up(i, 0.0), ts(0.0));
    }
    tenancy.set_live(0..num_apps);
    // What the policy polls: the live apps' names, built again when the
    // live set changes.
    let live_stats = |live: &[bool]| -> Vec<RuntimeStats> {
        let apps = scenario.apps.iter().zip(live).filter(|(_, &up)| up);
        apps.map(|(app, _)| RuntimeStats {
            name: app.spec.name.clone(),
            ..RuntimeStats::default()
        })
        .collect()
    };
    let mut stats = live_stats(tenancy.live());
    let reclaims = config.chaos.as_ref().is_some_and(|plan| plan.reclaim);
    let mut books: Vec<TenantBook> = (0..num_apps).map(|_| TenantBook::default()).collect();
    let runaway_onsets = config.runaway_onsets(num_apps)?;
    // Hot-loop buffers: a steady tick allocates only what it leaves behind
    // (its measured series and residuals; its record shares the template,
    // its timeline events are packed). `assignment` holds each app's last
    // commanded row, `decided` those rows with the outages applied, the
    // schedule's the rows in force: `decided` with the contained rows
    // clamped in.
    let mut run = EventRun::default();
    let mut samples: Vec<TenantSample> = Vec::with_capacity(num_apps);
    let mut decided = assignment.clone();
    let mut schedule = [(0.0, assignment.clone())];
    let watchdog_track = runaway_onsets
        .iter()
        .any(Option::is_some)
        .then(|| hub.register_track("memsim-watchdog"));
    let series_names = SeriesNames::new(scenario);
    // The simulator of the current machine, with its hub series, serves
    // every tick until another bandwidth perturbation sets in.
    let simulator_at = |t_s: f64| -> Result<(bool, Simulation)> {
        let machine = config.machine_at(&scenario.machine, t_s)?;
        let perturbed = machine != scenario.machine;
        let mut sim = Simulation::new(
            SimConfig::new(machine)
                .with_effects(scenario.effects.clone())
                .with_engine(config.engine),
        )
        .with_telemetry(Arc::clone(&hub));
        if config.tracing {
            sim = sim.with_tracing();
        }
        Ok((perturbed, sim))
    };
    let mut active = config.active_bandwidth_perturbations(0.0);
    let (mut perturbed, mut sim) = simulator_at(0.0)?;
    // The command names the period (the last tick may be short) and the
    // machine: written again when either changes (NaN equals nothing).
    // Every record and provenance instant shares it and the source.
    let source: SeriesKey = "memsim-supervisor".into();
    let mut command: SeriesKey = "".into();
    let mut command_period = f64::NAN;
    for tick in 0..ticks_total {
        let start_s = tick as f64 * config.decision_period_s;
        let period = config.decision_period_s.min(config.duration_s - start_s);
        if period <= 0.0 {
            break;
        }
        let now_active = config.active_bandwidth_perturbations(start_s);
        if now_active != active {
            (perturbed, sim) = simulator_at(start_s)?;
            active = now_active;
            command_period = f64::NAN;
        }
        if period != command_period {
            command = format!("simulate {period:.4}s on {}", sim.config.machine.name()).into();
            command_period = period;
        }

        // A new life restarts its counters from zero, as a restarted
        // runtime's do.
        for (i, book) in books.iter_mut().enumerate() {
            let up = up(i, start_s);
            if tenancy.set_down(&hub, i, !up, ts(start_s)) && up {
                *book = TenantBook::default();
            }
        }
        let moved = tenancy.set_live((0..num_apps).filter(|&i| up(i, start_s)));

        // The policy decides over the live apps, as the agent's does; its
        // command for the k-th live app is that app's row.
        let mut issued = false;
        if let Some(policy) = policy.as_mut() {
            if moved {
                stats = live_stats(tenancy.live());
            }
            let live = (0..num_apps).filter(|&i| tenancy.live()[i]);
            for (i, cmd) in live.zip(policy.tick(&stats, tick)) {
                if let Some(row) = cmd.as_ref().and_then(row_of) {
                    assignment.row_mut(i).copy_from_slice(row);
                    issued = true;
                }
            }
        }

        // While an app is down the survivors split the machine fairly when
        // the live set changed, the policy was silent and the plan
        // reclaims, and keep their rows otherwise.
        let rebuild = moved || issued;
        if rebuild {
            let reclaim = reclaims && !issued && tenancy.live().contains(&false);
            decided = if let Some(fair) = tenancy.fair().filter(|_| reclaim) {
                fair.clone()
            } else if !tenancy.live().contains(&false) {
                assignment.clone()
            } else {
                let mut survivors = assignment.clone();
                for (i, &live) in tenancy.live().iter().enumerate() {
                    if !live {
                        survivors.row_mut(i).fill(0);
                    }
                }
                survivors
            };
        }
        let search = policy.as_ref().map(ModelGuided::search_inputs);
        let runaway = books.iter().map(|book| book.runaway).enumerate();
        if tenancy.contain(runaway, |i| decided.row(i).to_vec())
            || rebuild
            || search != template_search
        {
            let effective = &mut schedule[0].1;
            effective.clone_from(&decided);
            for (i, row) in tenancy.caps() {
                effective.row_mut(i).copy_from_slice(row);
            }
            template = template_for(effective, search)?;
            template_search = search;
        }
        let (effective, live) = (&schedule[0].1, tenancy.live());
        let rows = (0..num_apps).map(|i| (i, Some(effective.row(i))));
        tenancy.check(
            &hub,
            rows.filter(|(i, row)| live[*i] || row.is_some_and(|r| r.iter().any(|&t| t > 0))),
        );

        let id = observatory.open_decision_at(
            tick,
            Arc::clone(&source),
            Arc::clone(&command),
            Arc::clone(&template),
            ts(start_s),
        );

        sim.config.seed = scenario.seed.wrapping_add(tick);
        sim.time_base_us = Some(ts(start_s));
        // Only the run's totals are read: they are left in `run`, whose
        // buffers every tick reuses, so a steady-state tick allocates nothing.
        let (apps, cuts) = (&scenario.apps, sim.config.engine);
        let entries = Entries::Dense(&schedule);
        advance_time(&sim, apps, entries, period, cuts, &mut run, None)?;

        // The watchdog flags a wedge that has set in by the tick's end, once
        // per wedged tick. A life's first flag raises the `runaway` instant,
        // bumps `coop_runaway_tasks_total` and snapshots the flight recorder.
        for (i, onset) in runaway_onsets.iter().enumerate() {
            if !onset.is_some_and(|at_s| at_s <= start_s + period) || !live[i] {
                continue;
            }
            books[i].runaway += 1;
            if books[i].runaway > 1 {
                continue;
            }
            let name = scenario.apps[i].spec.name.as_str();
            let labels = [("runtime", name)];
            hub.registry()
                .counter("coop_runaway_tasks_total", &labels)
                .inc();
            if let Some(track) = watchdog_track {
                let args = vec![
                    ("runtime".to_string(), ArgValue::Str(name.to_string())),
                    ("tick".to_string(), ArgValue::U64(tick)),
                ];
                let at = ts(start_s + period);
                hub.record_instant_at(0, track, 0, "watchdog", "runaway", at, args);
            }
            if let Some(rec) = hub.flight_recorder() {
                let _ = rec.trigger_dump("runaway");
            }
        }

        let measured = series_names.measured(scenario, &run);
        let closed = observatory.close_decision_at(id, measured, ts(start_s + period));
        let now_us = ts(start_s + period);
        book_tenant_tick(
            &hub,
            scenario,
            &mut books,
            &schedule[0].1,
            live,
            &run,
            period,
            &mut samples,
        );
        let granted = (0..num_apps).filter(|&i| live[i]);
        let granted = granted.map(|i| (i, schedule[0].1.row(i).iter().sum()));
        tenancy.book(&hub, now_us, granted, &samples);

        ticks.push(DecisionTick {
            tick,
            start_s,
            provenance: id,
            // A contained runaway is as much a departure from the model's
            // view as a degraded node.
            perturbed: perturbed || tenancy.caps().next().is_some(),
            residuals: closed.residuals,
            alarms: closed.alarms,
        });
    }

    Ok(SupervisedResult { ticks, observatory })
}

/// Cumulative synthetic tenant counters for one simulated application's
/// life: one "task" is one MFLOP delivered, so a supervised run feeds a
/// ledger the sample shape a live runtime produces.
#[derive(Default)]
struct TenantBook {
    tasks: u64,
    uptime_us: u64,
    per_node: Vec<u64>,
    local: u64,
    remote: u64,
    preemptions: u64,
    overbudget_cpu_us: u64,
    /// Ticks this life ran wedged: the runtime's `tasks_runaway`.
    runaway: u64,
    /// The app's `coop_sched_local_pops_total` and remote
    /// `coop_sched_steals_total` series, resolved on first use.
    local_series: Option<Arc<Counter>>,
    remote_series: Option<Arc<Counter>>,
}

/// Books one supervised tick's samples of the live apps into `samples`
/// when a ledger is installed on `hub`.
///
/// The MFLOPs an app delivered are split across nodes proportionally to
/// its row; its most-loaded node is its home, and work placed on other
/// nodes is booked as cross-node steals — the same `coop_sched_*` counters
/// a real runtime's scheduler bumps, so ledger totals reconcile with a
/// registry scrape in both worlds. Down apps are not sampled: their
/// delivered share decays to zero exactly like an evicted runtime's.
#[allow(clippy::too_many_arguments)]
fn book_tenant_tick(
    hub: &TelemetryHub,
    scenario: &Scenario,
    books: &mut [TenantBook],
    effective: &ThreadAssignment,
    live: &[bool],
    run: &EventRun,
    period_s: f64,
    samples: &mut Vec<TenantSample>,
) {
    samples.clear();
    if hub.tenant_ledger().is_none() {
        return;
    }
    let registry = hub.registry();
    for (i, app) in scenario.apps.iter().enumerate().filter(|&(i, _)| live[i]) {
        let name = app.spec.name.as_str();
        let mflops = (run.app_gflops(i) * period_s * 1000.0).round() as u64;
        let row: Vec<u64> = effective.row(i).iter().map(|&t| t as u64).collect();
        let row_total: u64 = row.iter().sum();
        // Home node: the app's most-loaded node (lowest id wins ties).
        let home = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map_or(0, |(n, _)| n);
        let book = &mut books[i];
        book.per_node.resize(row.len(), 0);
        book.uptime_us += (period_s * 1e6) as u64;
        book.tasks += mflops;
        if book.runaway > 0 {
            // The wedged task burned its worker's whole tick past the budget
            // and was preempted once: what a live runtime's
            // `tasks_preempted` / `overbudget_cpu_us` book.
            book.preemptions += 1;
            book.overbudget_cpu_us += (period_s * 1e6) as u64;
        }
        let mut remote_delta = 0u64;
        if row_total > 0 && mflops > 0 {
            for (n, &t) in row.iter().enumerate().filter(|&(n, &t)| n != home && t > 0) {
                let share = mflops * t / row_total;
                book.per_node[n] += share;
                remote_delta += share;
            }
            // The home node takes the remainder: the split sums to `mflops`.
            book.per_node[home] += mflops - remote_delta;
        }
        let local_delta = mflops - remote_delta;
        book.local += local_delta;
        book.remote += remote_delta;
        if local_delta > 0 {
            let labels = [("runtime", name)];
            (book
                .local_series
                .get_or_insert_with(|| registry.counter("coop_sched_local_pops_total", &labels)))
            .add(local_delta);
        }
        if remote_delta > 0 {
            let labels = [("runtime", name), ("tier", "normal"), ("source", "remote")];
            (book
                .remote_series
                .get_or_insert_with(|| registry.counter("coop_sched_steals_total", &labels)))
            .add(remote_delta);
        }
        samples.push(TenantSample {
            tenant: name.to_string(),
            tasks_executed: book.tasks,
            uptime_us: book.uptime_us,
            per_node_tasks: book.per_node.clone(),
            running_per_node: row,
            local_pops: book.local,
            remote_steals: book.remote,
            preemptions: book.preemptions,
            overbudget_cpu_us: book.overbudget_cpu_us,
        });
    }
}

/// The names of the measured counterpart of
/// [`roofline_numa::SolveReport::to_prediction`] — per-app throughput and
/// bandwidth plus per-node served bandwidth — formatted once per run.
struct SeriesNames {
    /// Per app: `app/<name>/gflops`, `app/<name>/bandwidth_gbs`.
    apps: Vec<(SeriesKey, SeriesKey)>,
    /// Per node: `node/<n>/bandwidth_gbs`.
    nodes: Vec<SeriesKey>,
}

impl SeriesNames {
    fn new(scenario: &Scenario) -> Self {
        SeriesNames {
            apps: scenario
                .apps
                .iter()
                .map(|app| {
                    let name = &app.spec.name;
                    (
                        format!("app/{name}/gflops").into(),
                        format!("app/{name}/bandwidth_gbs").into(),
                    )
                })
                .collect(),
            nodes: (0..scenario.machine.num_nodes())
                .map(|n| format!("node/{n}/bandwidth_gbs").into())
                .collect(),
        }
    }

    /// One tick's measured series (keys shared), from the simulator's counters.
    fn measured(&self, scenario: &Scenario, run: &EventRun) -> Vec<SeriesValue> {
        let mut series = Vec::with_capacity(self.apps.len() * 2 + self.nodes.len());
        for (i, (app, (gflops_name, bandwidth_name))) in
            scenario.apps.iter().zip(&self.apps).enumerate()
        {
            let gflops = run.app_gflops(i);
            series.push(SeriesValue::new(gflops_name.clone(), gflops));
            // bandwidth = throughput / arithmetic intensity (GFLOPS over
            // FLOP/byte gives GB/s) — the same identity the model uses.
            series.push(SeriesValue::new(
                bandwidth_name.clone(),
                gflops / app.spec.ai,
            ));
        }
        for (name, &gbs) in self.nodes.iter().zip(&run.node_avg_gbs) {
            series.push(SeriesValue::new(name.clone(), gbs));
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::template;
    use crate::EffectModel;

    fn base_scenario() -> Scenario {
        let mut s = template();
        // Single assignment, ideal effects: the simulator matches the
        // analytic model exactly, so residuals are pure perturbation.
        s.assignments.truncate(1);
        s.effects = EffectModel::ideal();
        s
    }

    fn quiet_config() -> SupervisorConfig {
        SupervisorConfig {
            decision_period_s: 0.01,
            duration_s: 0.1,
            perturbations: Vec::new(),
            drift: DriftConfig::default(),
            reoptimize: false,
            tracing: false,
            chaos: None,
            engine: EngineKind::Slice,
        }
    }

    #[test]
    fn unperturbed_run_raises_no_alarm() {
        let hub = Arc::new(TelemetryHub::new());
        let result = run_supervised(&base_scenario(), &quiet_config(), Arc::clone(&hub)).unwrap();
        assert_eq!(result.ticks.len(), 10);
        assert_eq!(result.total_alarms(), 0);
        assert!(result.ticks.iter().all(|t| !t.perturbed));
        assert!(!hub.events().iter().any(|e| e.cat == "drift"));
        // Every record is closed with real residuals.
        for record in result.records() {
            assert!(record.is_closed());
            assert!(!record.residuals().is_empty());
        }
    }

    /// Satellite regression (simulated-vs-wall time): every decision tick
    /// builds a fresh `Simulation`, and before the explicit time-base
    /// anchor each one re-anchored its telemetry to the wall clock — so a
    /// 100ms supervised run's bandwidth samples all clustered within the
    /// few wall-milliseconds the loop took. With the fix, tick k's sample
    /// lands exactly `k * decision_period` after tick 0's.
    #[test]
    fn supervised_timeline_carries_simulated_time() {
        let hub = Arc::new(TelemetryHub::new());
        let result = run_supervised(&base_scenario(), &quiet_config(), Arc::clone(&hub)).unwrap();
        assert_eq!(result.ticks.len(), 10);
        // 10ms ticks at a 1ms quantum emit one bandwidth sample per node
        // per tick, at the tick's 5ms midpoint.
        let mut sample_ts: Vec<u64> = hub
            .events()
            .iter()
            .filter(|e| e.cat == "bandwidth")
            .map(|e| e.ts_us)
            .collect();
        sample_ts.sort_unstable();
        sample_ts.dedup();
        assert_eq!(sample_ts.len(), 10, "one distinct midpoint per tick");
        for w in sample_ts.windows(2) {
            assert_eq!(
                w[1] - w[0],
                10_000,
                "consecutive ticks' samples must sit exactly one decision period apart"
            );
        }
    }

    /// The supervisor routes through the event engine too: with ideal
    /// effects and no perturbation it matches the model just like the
    /// slice engine does (no drift alarms, identical tick accounting).
    #[test]
    fn supervised_event_engine_stays_quiet_and_books_ticks() {
        let mut config = quiet_config();
        config.engine = EngineKind::Event;
        let hub = Arc::new(TelemetryHub::new());
        let result = run_supervised(&base_scenario(), &config, hub).unwrap();
        assert_eq!(result.ticks.len(), 10);
        assert_eq!(result.total_alarms(), 0);
        for record in result.records() {
            assert!(record.is_closed());
            assert!(!record.residuals().is_empty());
        }
    }

    #[test]
    fn supervised_tracing_emits_assemblable_spans() {
        use coop_telemetry::{hop, TraceAssembler};

        let hub = Arc::new(TelemetryHub::new());
        let mut config = quiet_config();
        config.tracing = true;
        let scenario = base_scenario();
        let result = run_supervised(&scenario, &config, Arc::clone(&hub)).unwrap();

        // One synthetic task per (app, tick): the same assembler that
        // reconstructs real runtime steals reconstructs a supervised run.
        let asm = TraceAssembler::from_hub(&hub);
        assert_eq!(asm.len(), result.ticks.len() * scenario.apps.len());
        for t in asm.tasks() {
            assert!(t.completed(), "{:?}", t.name);
            assert!(!t.truncated);
            assert!(t.hop(hop::STARTED).is_some());
        }
        // Tracing off (the default) emits none.
        let hub2 = Arc::new(TelemetryHub::new());
        run_supervised(&scenario, &quiet_config(), Arc::clone(&hub2)).unwrap();
        assert!(TraceAssembler::from_hub(&hub2).is_empty());
    }

    #[test]
    fn step_change_is_detected_within_a_few_ticks() {
        let mut config = quiet_config();
        config.duration_s = 0.2;
        // The (1,1,1,17) allocation draws 32.77 of node 0's 100 GB/s, so
        // the step has to leave less than that to be felt at all.
        config.perturbations.push(Perturbation::NodeBandwidth {
            at_s: 0.1,
            node: 0,
            bandwidth_factor: 0.2,
        });
        let hub = Arc::new(TelemetryHub::new());
        let result = run_supervised(&base_scenario(), &config, hub).unwrap();
        assert!(
            result.total_alarms() > 0,
            "perturbation must raise an alarm"
        );
        let first = result.first_alarm_tick().unwrap();
        // The perturbation lands at tick 10; satellite requirement: the
        // detector fires within a handful of decision ticks, not at the
        // very end of the run.
        assert!(
            (10..=16).contains(&first),
            "first alarm at tick {first}, expected within 6 ticks of the step at tick 10"
        );
        // No alarm before the step.
        assert!(result.ticks[..10].iter().all(|t| t.alarms == 0));
    }

    #[test]
    fn perturbed_ticks_are_flagged_and_residuals_negative() {
        let mut config = quiet_config();
        config.perturbations.push(Perturbation::NodeBandwidth {
            at_s: 0.05,
            node: 1,
            bandwidth_factor: 0.2,
        });
        let hub = Arc::new(TelemetryHub::new());
        let scenario = base_scenario();
        let result = run_supervised(&scenario, &config, Arc::clone(&hub)).unwrap();
        assert!(result.ticks[..5].iter().all(|t| !t.perturbed));
        assert!(result.ticks[5..].iter().all(|t| t.perturbed));

        // The provenance record of a perturbed tick carries the prediction
        // and the back-filled measurement: the node under-delivers.
        let series = "node/1/bandwidth_gbs";
        let records = result.records();
        let record = records.last().unwrap();
        let residual = record.residual_for(series).unwrap();
        assert!(record.is_closed() && residual.predicted > 0.0 && residual.measured > 0.0);
        assert!(residual.relative < -0.05, "{residual:?}");
        assert_eq!(record.prediction.value(series), Some(residual.predicted));
        // The alarm reaches the shared timeline and the Prometheus scrape.
        assert!(hub.events().iter().any(|e| e.cat == "drift"));
        assert!(hub.events().iter().any(|e| e.cat == "provenance"));
        let prom = hub.registry().to_prometheus();
        let scraped: u64 = prom
            .lines()
            .filter(|l| l.starts_with("coop_model_drift_alarms{"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum();
        assert!(
            scraped > 0 && prom.contains("coop_model_residual{"),
            "{prom}"
        );
    }

    /// A record carries the cost of the policy's latest search. The
    /// template's apps are all NUMA-local, so tick 0 decides exactly: its
    /// records carry the columns the table kept and no solver work (the
    /// columns are kept in closed form), and from the first on-period
    /// tick on nothing at all — an exact decision is settled while the live
    /// set holds, so no warm climb runs.
    #[test]
    fn reoptimizing_run_records_search_cost_in_provenance() {
        let mut config = quiet_config();
        config.duration_s = 0.3;
        config.reoptimize = true;
        let hub = Arc::new(TelemetryHub::new());
        let result = run_supervised(&base_scenario(), &config, hub).unwrap();
        assert_eq!(result.ticks.len(), 30);
        let records = result.records();
        assert_eq!(records.len(), 30);
        let input = |r: &ProvenanceRecord, key: &str| -> f64 {
            let mut inputs = r.prediction.inputs.iter();
            let found = inputs.find(|(k, _)| &**k == key);
            found.map(|&(_, v)| v).expect("search inputs recorded")
        };
        // 4 apps on 20 cores: one column per served mask of one node shape.
        let columns = 15.0;
        for (tick, record) in records.iter().enumerate() {
            let [full, delta, hits, evaluations, warm] = [
                "search/full_solves",
                "search/delta_solves",
                "search/cache_hits",
                "search/evaluations",
                "search/warm_start",
            ]
            .map(|key| input(record, key));
            let want = if tick < 10 { columns } else { 0.0 };
            assert_eq!(
                [full, delta, hits, evaluations, warm],
                [0.0, 0.0, 0.0, want, 0.0],
                "tick {tick}"
            );
            assert_eq!(
                record.prediction.assignment, records[0].prediction.assignment,
                "tick {tick} left the exact decision's rows"
            );
        }
        // Determinism: the same config and scenario replays identically.
        let hub2 = Arc::new(TelemetryHub::new());
        let again = run_supervised(&base_scenario(), &config, hub2).unwrap();
        let a: Vec<SeriesKey> = records
            .iter()
            .map(|r| r.prediction.assignment.clone())
            .collect();
        let b: Vec<SeriesKey> = again
            .records()
            .iter()
            .map(|r| r.prediction.assignment.clone())
            .collect();
        assert_eq!(a, b);
    }

    /// The policy's score cache earns its keep on a NUMA-bad mix: there a
    /// column probe cannot score a move, so the warm re-search of tick 10
    /// revisits assignments through the cache, and records cache hits.
    /// (On an all-local mix, as above, it is never asked.)
    #[test]
    fn reoptimizing_numa_bad_run_hits_the_score_cache() {
        let mut scenario = base_scenario();
        scenario.apps[3] = crate::SimApp::numa_bad("bad", 1.0 / 16.0, NodeId(0));
        scenario.assignments[0].threads = coop_alloc::strategies::fair_share(&scenario.machine, 4)
            .unwrap()
            .to_matrix();
        let mut config = quiet_config();
        config.duration_s = 0.2;
        config.reoptimize = true;
        let result = run_supervised(&scenario, &config, Arc::new(TelemetryHub::new())).unwrap();
        let hits: Vec<f64> = result
            .records()
            .iter()
            .map(|r| {
                r.prediction
                    .inputs
                    .iter()
                    .find(|(k, _)| &**k == "search/cache_hits")
                    .map(|&(_, v)| v)
                    .expect("search counters recorded")
            })
            .collect();
        println!("cache hits per tick: {hits:?}");
        assert!(hits[10..].iter().all(|&h| h > 0.0));
    }

    /// FNV-1a over everything a supervised run decides and measures: per
    /// tick the perturbed flag, the alarm count and every residual's
    /// predicted/measured/relative bits, then every provenance record's
    /// assignment string.
    fn run_digest(result: &SupervisedResult) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for t in &result.ticks {
            eat(&[u8::from(t.perturbed), t.alarms as u8]);
            for r in &t.residuals {
                eat(r.series.as_bytes());
                eat(&r.predicted.to_bits().to_le_bytes());
                eat(&r.measured.to_bits().to_le_bytes());
                eat(&r.relative.to_bits().to_le_bytes());
            }
        }
        for record in result.records() {
            eat(record.prediction.assignment.as_bytes());
        }
        h
    }

    /// The `ctl_paper` shape — Table III template, skylake-like effects,
    /// event engine, 500 ticks of 20 ms, one bandwidth perturbation,
    /// re-optimizing — must decide and measure what it did when the policy
    /// began to decide it exactly. The model scores every row set that
    /// keeps all 80 threads at peak at 23.2 GFLOPS, as it does the
    /// template's (1,1,1,17); among those ties the exact decision takes the
    /// lexicographically smallest matrix, which puts the three memory-bound
    /// apps' threads on node 3 and node 2 runs `comp` alone. Those rows
    /// hold the whole run, and it measures bit for bit what a fixed run of
    /// them does. No node's bandwidth saturates, so the skylake-like effects
    /// deliver what the model predicts, and the perturbation (node 2 to
    /// 20 GB/s against the 5.8 GB/s `comp` draws there) leaves every tick
    /// within the detector's band: no tick alarms. Jitter is off so that no
    /// value depends on which `rand` is linked.
    #[test]
    fn reoptimizing_template_run_is_unchanged_over_500_ticks() {
        let mut scenario = template();
        scenario.assignments.truncate(1);
        scenario.effects = EffectModel {
            jitter: 0.0,
            ..EffectModel::skylake_like()
        };
        scenario.seed = 0x5eed;
        let config = SupervisorConfig {
            decision_period_s: 0.02,
            duration_s: 10.0,
            perturbations: vec![Perturbation::NodeBandwidth {
                at_s: 4.0,
                node: 2,
                bandwidth_factor: 0.2,
            }],
            reoptimize: true,
            engine: EngineKind::Event,
            ..SupervisorConfig::default()
        };
        let hub = Arc::new(TelemetryHub::new());
        let result = run_supervised(&scenario, &config, hub).unwrap();
        assert_eq!(result.ticks.len(), 500);
        let alarm_ticks: Vec<u64> = result
            .ticks
            .iter()
            .filter(|t| t.alarms > 0)
            .map(|t| t.tick)
            .collect();
        println!(
            "{} alarm ticks, digest {:#018x}",
            alarm_ticks.len(),
            run_digest(&result)
        );
        let records = result.records();
        assert_eq!(records.len(), 500);
        let rows = [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [20, 20, 20, 17]];
        let named = format!("uneven (1,1,1,17) {rows:?}");
        assert!(records.iter().all(|r| *r.prediction.assignment == named));
        // The perturbation lands at tick 200 and holds; nothing alarms.
        assert_eq!(result.ticks.iter().filter(|t| t.perturbed).count(), 300);
        assert!(alarm_ticks.is_empty());
        assert_eq!(run_digest(&result), 0xc4c6_663e_54ce_8e5d);
        // A fixed run of those rows measures the same, bit for bit.
        scenario.assignments[0].threads = rows.iter().map(|r| r.to_vec()).collect();
        let config = SupervisorConfig {
            reoptimize: false,
            ..config
        };
        let fixed = run_supervised(&scenario, &config, Arc::new(TelemetryHub::new())).unwrap();
        assert_eq!(run_digest(&fixed), run_digest(&result));
    }

    /// FNV-1a over what a supervised run exports: its provenance ledger as
    /// JSON, every hub timestamp taken from the first record's open (the
    /// hub's epoch is the wall clock), then its registry's Prometheus scrape.
    fn export_digest(result: &SupervisedResult) -> u64 {
        use coop_telemetry::json::{self, Value};
        let observatory = &result.observatory;
        let mut ledger = json::parse(&observatory.ledger().to_json()).unwrap();
        let Value::Array(records) = &mut ledger else {
            panic!("the ledger is an array")
        };
        let epoch = records[0]["opened_us"].as_u64().unwrap();
        for record in records.iter_mut() {
            for key in ["opened_us", "closed_us"] {
                let us = record[key].as_u64().unwrap();
                record.insert(key, Value::Int(i128::from(us - epoch)));
            }
        }
        let scrape = observatory.hub().registry().to_prometheus();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in ledger.write().bytes().chain(scrape.bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The run of `reoptimizing_template_run_is_unchanged_over_500_ticks`
    /// exports the ledger and the scrape it did when the policy began to
    /// decide it exactly, captured by this same test: the scrape of a fixed
    /// run of the policy's rows, and its ledger with the policy's `search/*`
    /// inputs on every record. Retaken once the table kept one column per
    /// served mask: only `search/evaluations` moved, 1 771 → 15.
    #[test]
    fn reoptimizing_template_run_exports_what_it_did() {
        let mut scenario = template();
        scenario.assignments.truncate(1);
        scenario.effects = EffectModel {
            jitter: 0.0,
            ..EffectModel::skylake_like()
        };
        scenario.seed = 0x5eed;
        let config = SupervisorConfig {
            decision_period_s: 0.02,
            duration_s: 10.0,
            perturbations: vec![Perturbation::NodeBandwidth {
                at_s: 4.0,
                node: 2,
                bandwidth_factor: 0.2,
            }],
            reoptimize: true,
            engine: EngineKind::Event,
            ..SupervisorConfig::default()
        };
        let result = run_supervised(&scenario, &config, Arc::new(TelemetryHub::new())).unwrap();
        let digest = export_digest(&result);
        println!("export digest {digest:#018x}");
        assert_eq!(digest, 0xc26f_cf61_aae9_eb43);
    }

    /// A re-optimizing Table III run, jitter on, on the quantum grid, with a
    /// tenant ledger: `mem1` is down from 0.1 s to 0.5 s (its cores
    /// reclaimed) and `comp` wedges at 0.31 s, so the run books outage
    /// epochs and contained ticks. Its ledger and scrape are pinned as
    /// captured by this same test once the prediction followed the rows in
    /// force and containment began on the second climbing runaway tick, and
    /// again once `fair_share` carried its left-over cores across nodes
    /// (the three survivors' reclaimed rows moved with it), and again once
    /// the policy decided the rows: its cold greedy over the live set at
    /// ticks 0, 5 and 25, `comp` contained from tick 17; and again once
    /// jitter was drawn per (seed, thread, segment), and again once the
    /// policy decided those live sets exactly, and again once the table
    /// kept one column per served mask (only `search/evaluations` moved).
    #[test]
    fn runaway_outage_run_exports_what_it_did() {
        use crate::chaos::{AppOutage, ChaosPlan};
        use coop_telemetry::TenantLedger;

        let mut scenario = template();
        scenario.assignments.truncate(1);
        scenario.effects = EffectModel::skylake_like();
        scenario.seed = 0x5eed;
        let config = SupervisorConfig {
            decision_period_s: 0.02,
            duration_s: 1.0,
            perturbations: vec![Perturbation::RunawayTask { at_s: 0.31, app: 3 }],
            reoptimize: true,
            chaos: Some(ChaosPlan {
                outages: vec![AppOutage {
                    app: 0,
                    down_at_s: 0.1,
                    up_at_s: Some(0.5),
                }],
                reclaim: true,
            }),
            engine: EngineKind::Slice,
            ..SupervisorConfig::default()
        };
        let hub = Arc::new(TelemetryHub::new());
        assert!(hub.install_tenant_ledger(Arc::new(TenantLedger::new())));
        let result = run_supervised(&scenario, &config, hub).unwrap();
        assert_eq!(result.ticks.len(), 50);
        assert!(result.ticks.iter().filter(|t| t.perturbed).count() > 10);
        let digest = export_digest(&result);
        println!("export digest {digest:#018x}");
        assert_eq!(digest, 0x6136_f2cf_d394_9cf4);
    }

    /// An outage's prediction is the model's for the rows in force: while
    /// `mem1` is down (its cores reclaimed by the three survivors) the
    /// template run (ideal effects: simulator and model agree to rounding)
    /// is predicted as well as with all four apps up, and no tick raises an
    /// alarm — none of them is perturbed.
    #[test]
    fn an_outage_is_predicted_for_the_rows_in_force() {
        let mut scenario = template();
        scenario.assignments.truncate(1);
        let config = SupervisorConfig {
            decision_period_s: 0.02,
            duration_s: 0.6,
            reoptimize: true,
            chaos: Some(ChaosPlan::kill_revive(0, 0.1, 0.3)),
            engine: EngineKind::Event,
            ..SupervisorConfig::default()
        };
        let result = run_supervised(&scenario, &config, Arc::new(TelemetryHub::new())).unwrap();
        assert_eq!(result.ticks.len(), 30);
        assert!(result.ticks.iter().all(|t| !t.perturbed && t.alarms == 0));
        // Per tick, the mean |relative error| of the running apps' GFLOPS.
        let err = |t: &DecisionTick| {
            let errs: Vec<f64> = t
                .residuals
                .iter()
                .filter(|r| r.series.ends_with("/gflops") && r.predicted > 0.0)
                .map(|r| r.relative.abs())
                .collect();
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let (outage, up): (Vec<&DecisionTick>, Vec<&DecisionTick>) = result
            .ticks
            .iter()
            .partition(|t| (0.1..0.3).contains(&(t.start_s + 1e-9)));
        assert_eq!(outage.len(), 10);
        let up_max = up.iter().map(|t| err(t)).fold(0.0, f64::max);
        assert!(up_max < 1e-12, "{up_max}");
        for t in outage {
            assert!(err(t) < 1e-12, "tick {}: {}", t.tick, err(t));
        }
    }

    #[test]
    fn supervised_chaos_run_books_tenant_accounting() {
        use crate::chaos::{AppOutage, ChaosPlan};
        use crate::scenario::NamedAssignment;
        use crate::SimApp;
        use coop_telemetry::{scheduler_locality, SloEngine, SloSpec, TenantLedger};
        use numa_topology::presets::tiny;

        let scenario = Scenario {
            name: "supervised-chaos".into(),
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
        };
        let mut config = quiet_config();
        config.chaos = Some(ChaosPlan {
            outages: vec![AppOutage {
                app: 1,
                down_at_s: 0.03,
                up_at_s: Some(0.07),
            }],
            reclaim: true,
        });

        let hub = Arc::new(TelemetryHub::new());
        let ledger = Arc::new(TenantLedger::new());
        assert!(hub.install_tenant_ledger(Arc::clone(&ledger)));
        let engine = Arc::new(SloEngine::new(vec![
            SloSpec::min_share("b", 0.25).with_windows(vec![2, 6])
        ]));
        assert!(hub.install_slo_engine(Arc::clone(&engine)));

        let result = run_supervised(&scenario, &config, Arc::clone(&hub)).unwrap();
        assert_eq!(result.ticks.len(), 10);

        let snap = ledger.snapshot();
        let a = snap.tenant("a").unwrap();
        let b = snap.tenant("b").unwrap();

        // Both apps delivered work and ended the run live; the victim's
        // outage shows as a closed "managed" epoch plus a "revived" one.
        assert!(a.tasks_total > 0 && b.tasks_total > 0);
        assert!(a.live && b.live);
        assert_eq!(b.epochs.len(), 2);
        assert_eq!(b.epochs[0].reason, "managed");
        assert!(b.epochs[0].closed_us.is_some());
        assert_eq!(b.epochs[1].reason, "revived");
        assert_eq!(a.epochs.len(), 1);

        // Ledger totals reconcile with the scheduler-counter view.
        for t in [a, b] {
            let (local, remote) = scheduler_locality(hub.registry(), &t.tenant);
            assert_eq!(t.local_pops, local, "{}", t.tenant);
            assert_eq!(t.remote_steals, remote, "{}", t.tenant);
            assert_eq!(
                t.tasks_total,
                t.local_pops + t.remote_steals,
                "every booked task is a pop or a steal"
            );
            assert!(t.cpu_us_per_node.iter().sum::<u64>() > 0);
        }

        // During the outage the survivor owned every window (share 1.0)
        // and was entitled to the whole reclaimed machine; with both
        // apps up it sits at ~0.5. Reclamation moves work across nodes,
        // so the survivor books cross-node steals.
        let peak = a
            .share_history
            .iter()
            .map(|(_, s)| *s)
            .fold(0.0f64, f64::max);
        assert!((peak - 1.0).abs() < 1e-9, "survivor peak share {peak}");
        assert!(a.remote_steals > 0, "reclaimed work crosses nodes");

        // The victim's min-share SLO burned while it was down.
        let report = engine.report();
        assert!(report[0].violations_total >= 2, "{report:?}");
        assert!(report[0].burn_rate_peak > 1.0);
    }

    /// An app down from t = 0 opens no epoch until it comes up, and then
    /// as `revived`; the others open theirs at 0 as `managed`.
    #[test]
    fn an_app_down_from_the_start_opens_its_first_epoch_when_it_comes_up() {
        use coop_telemetry::TenantLedger;

        let scenario = base_scenario();
        let config = SupervisorConfig {
            chaos: Some(ChaosPlan::kill_revive(1, 0.0, 0.05)),
            ..quiet_config()
        };
        let hub = Arc::new(TelemetryHub::new());
        let ledger = Arc::new(TenantLedger::new());
        assert!(hub.install_tenant_ledger(Arc::clone(&ledger)));
        run_supervised(&scenario, &config, hub).unwrap();
        let snap = ledger.snapshot();
        for (i, app) in scenario.apps.iter().enumerate() {
            let epochs = &snap.tenant(&app.spec.name).unwrap().epochs;
            let reason = if i == 1 { "revived" } else { "managed" };
            assert_eq!(epochs.len(), 1, "{epochs:?}");
            assert_eq!(epochs[0].reason, reason);
            assert!(epochs[0].closed_us.is_none());
        }
    }

    /// Even where the effect model time-slices an oversubscribed node, the
    /// model the supervisor predicts with has no such rows: a scenario
    /// that oversubscribes is refused before its first tick, with the
    /// model's error, not held to the tenancy's check.
    #[test]
    fn an_oversubscribed_assignment_is_refused_by_the_model() {
        let mut scenario = base_scenario();
        scenario.effects = EffectModel::skylake_like();
        let machine = &scenario.machine;
        let cores: Vec<usize> = (0..machine.num_nodes())
            .map(|n| machine.node(NodeId(n)).num_cores())
            .collect();
        for row in &mut scenario.assignments[0].threads {
            row.clone_from(&cores);
        }
        let hub = Arc::new(TelemetryHub::new());
        let refused = run_supervised(&scenario, &quiet_config(), Arc::clone(&hub));
        assert!(matches!(
            refused,
            Err(SimError::Model(roofline_numa::ModelError::OverSubscribed {
                node: 0,
                ..
            }))
        ));
        let violations = coop_agent::control::INVARIANT_VIOLATIONS;
        assert_eq!(hub.registry().counter_total(violations), 0);
    }

    #[test]
    fn runaway_is_detected_contained_and_booked_against_the_offender() {
        use crate::scenario::NamedAssignment;
        use crate::SimApp;
        use coop_alloc::strategies::{contain, fair_share};
        use coop_telemetry::{FlightRecorder, LedgerSnapshot, TenantLedger};
        use numa_topology::presets::tiny;

        // App b over-holds: three of tiny()'s four cores, both of node 1's.
        let base = [vec![1, 0], vec![1, 2]];
        let scenario = Scenario {
            name: "runaway".into(),
            machine: tiny(),
            apps: vec![
                SimApp::numa_local("a", 1.0 / 32.0),
                SimApp::numa_local("b", 1.0 / 32.0),
            ],
            assignments: vec![NamedAssignment {
                name: "uneven".into(),
                threads: base.to_vec(),
            }],
            duration_s: 0.1,
            effects: EffectModel::ideal(),
            seed: 7,
        };
        // Ticks of 1/64 s, so every tick edge is exact. App b wedges inside
        // tick 3: it runs wedged-undetected, and the watchdog flags it at the
        // end of tick 3 and of every later tick. Its runaway counter climbs
        // into ticks 4 and 5, the second climbing tick contains it, and
        // ticks 5..9 are contained.
        const PERIOD_US: u64 = 15_625;
        let run = |ticks: u64, recorder: Option<&Arc<FlightRecorder>>| {
            let config = SupervisorConfig {
                decision_period_s: PERIOD_US as f64 / 1e6,
                duration_s: (ticks * PERIOD_US) as f64 / 1e6,
                perturbations: vec![Perturbation::RunawayTask {
                    at_s: 3.5 * PERIOD_US as f64 / 1e6,
                    app: 1,
                }],
                ..quiet_config()
            };
            let hub = Arc::new(TelemetryHub::new());
            let ledger = Arc::new(TenantLedger::new());
            assert!(hub.install_tenant_ledger(Arc::clone(&ledger)));
            if let Some(recorder) = recorder {
                assert!(hub.install_flight_recorder(Arc::clone(recorder)));
            }
            let result = run_supervised(&scenario, &config, Arc::clone(&hub)).unwrap();
            assert_eq!(result.ticks.len() as u64, ticks);
            (hub, result, ledger.snapshot())
        };

        let recorder = Arc::new(FlightRecorder::new(256));
        let dump_dir = std::env::temp_dir().join(format!(
            "coop-runaway-dump-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        recorder.set_dump_dir(&dump_dir);
        let (hub, result, snap) = run(10, Some(&recorder));

        // Detected exactly once, on the shared timeline and the counter.
        assert_eq!(hub.registry().counter_total("coop_runaway_tasks_total"), 1);
        assert_eq!(
            hub.events()
                .iter()
                .filter(|e| e.cat == "watchdog" && e.name == "runaway")
                .count(),
            1
        );
        // The detection snapshotted the flight recorder.
        let dumps: Vec<_> = std::fs::read_dir(&dump_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("flight-runaway")
            })
            .collect();
        assert_eq!(dumps.len(), 1, "one runaway dump expected");
        let _ = std::fs::remove_dir_all(&dump_dir);
        // Contained ticks depart from the model's view.
        for t in &result.ticks {
            assert_eq!(t.perturbed, t.tick >= 5, "tick {}", t.tick);
        }

        // The over-budget CPU is booked against the offender, not the
        // survivor: one preemption and a tick of over-budget CPU for the
        // detection tick and each contained tick.
        let offender = snap.tenant("b").unwrap();
        let survivor = snap.tenant("a").unwrap();
        assert_eq!(offender.preemptions, 7, "{offender:?}");
        assert_eq!(offender.overbudget_cpu_us, 7 * PERIOD_US, "{offender:?}");
        assert!(offender.preemption_rate > 0.0);
        assert_eq!(survivor.preemptions, 0);
        assert_eq!(survivor.overbudget_cpu_us, 0);

        // Tick by tick, from the CPU each tenant's account gains (its row
        // times the tick): the offender runs its own row until it is
        // contained and `contain(base row, fair row)` after, the survivor
        // its own row throughout.
        let fair = fair_share(&scenario.machine, 2).unwrap();
        let mut contained = base[1].clone();
        contain(&mut contained, fair.row(1));
        assert_eq!(contained, [1, 1], "the offender keeps its fair share");
        let cpu_us =
            |snap: &LedgerSnapshot, tenant| snap.tenant(tenant).unwrap().cpu_us_per_node.clone();
        let mut booked = [vec![0; 2], vec![0; 2]];
        for tick in 0..10 {
            let (_, _, snap) = run(tick + 1, None);
            for (app, tenant) in ["a", "b"].into_iter().enumerate() {
                let now = cpu_us(&snap, tenant);
                let row = if app == 1 && tick >= 5 {
                    &contained
                } else {
                    &base[app]
                };
                let gained: Vec<u64> = now.iter().zip(&booked[app]).map(|(n, b)| n - b).collect();
                let expected: Vec<u64> = row.iter().map(|&t| t as u64 * PERIOD_US).collect();
                assert_eq!(gained, expected, "tick {tick}, app {tenant}");
                booked[app] = now;
            }
        }
    }

    #[test]
    fn runaway_validation_rejects_bad_app() {
        let scenario = base_scenario();
        let mut config = quiet_config();
        config
            .perturbations
            .push(Perturbation::RunawayTask { at_s: 0.0, app: 99 });
        // Node-bound validation cannot see app counts; the run rejects it.
        let hub = Arc::new(TelemetryHub::new());
        assert!(run_supervised(&scenario, &config, hub).is_err());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let scenario = base_scenario();
        let mut config = quiet_config();
        config.decision_period_s = 0.0;
        assert!(config.validate(&scenario.machine).is_err());

        // One `DecisionTick` is kept per tick: a ratio that would not fit
        // in memory (or in a `Vec`'s capacity) is refused, not attempted.
        for (duration_s, decision_period_s) in [(1e9, 1e-9), (1e6, 1e-6), (f64::MAX, 1e-300)] {
            let config = SupervisorConfig {
                duration_s,
                decision_period_s,
                ..quiet_config()
            };
            assert!(
                matches!(
                    config.validate(&scenario.machine),
                    Err(SimError::BadTime { reason }) if reason.contains("too many decision ticks")
                ),
                "{duration_s} / {decision_period_s}"
            );
        }
        let config = SupervisorConfig {
            duration_s: 1.0,
            decision_period_s: 1e-6,
            ..quiet_config()
        };
        assert!(config.validate(&scenario.machine).is_ok(), "1e6 ticks");

        let mut config = quiet_config();
        config.perturbations.push(Perturbation::NodeBandwidth {
            at_s: 0.0,
            node: 99,
            bandwidth_factor: 0.5,
        });
        assert!(config.validate(&scenario.machine).is_err());

        let mut config = quiet_config();
        config.perturbations.push(Perturbation::NodeBandwidth {
            at_s: 0.0,
            node: 0,
            bandwidth_factor: 0.0,
        });
        assert!(config.validate(&scenario.machine).is_err());
    }

    #[test]
    fn machine_at_latest_perturbation_wins() {
        let scenario = base_scenario();
        let mut config = quiet_config();
        config.perturbations.push(Perturbation::NodeBandwidth {
            at_s: 0.01,
            node: 0,
            bandwidth_factor: 0.5,
        });
        config.perturbations.push(Perturbation::NodeBandwidth {
            at_s: 0.05,
            node: 0,
            bandwidth_factor: 0.25,
        });
        let nominal = scenario.machine.node(NodeId(0)).bandwidth_gbs;
        let m = config.machine_at(&scenario.machine, 0.02).unwrap();
        assert!((m.node(NodeId(0)).bandwidth_gbs - nominal * 0.5).abs() < 1e-9);
        let m = config.machine_at(&scenario.machine, 0.06).unwrap();
        assert!((m.node(NodeId(0)).bandwidth_gbs - nominal * 0.25).abs() < 1e-9);
        let m = config.machine_at(&scenario.machine, 0.0).unwrap();
        assert_eq!(m, scenario.machine);
    }
}
