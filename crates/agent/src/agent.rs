//! The agent control loop.

use crate::control::{row_of, Tenancy};
use crate::supervise::{
    command_all, stats_all, Health, Runners, SupervisedHandle, SupervisionConfig, HEALTH_LANE,
};
use crate::{Policy, Result, RuntimeHandle, RuntimeStats, ThreadCommand};
use coop_telemetry::sync::Mutex;
use coop_telemetry::{
    ArgValue, Counter, Histogram, ModelObservatory, Prediction, SchedLocality, SeriesValue,
    TelemetryHub, TenantSample, TrackId,
};
use numa_topology::Machine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ThreadCommand::PerNode;

/// One applied command, for post-hoc inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Tick index at which the command was issued.
    pub tick: u64,
    /// Managed runtime's name.
    pub runtime: String,
    /// The command.
    pub command: ThreadCommand,
    /// Id of the provenance record in the agent's
    /// [`ModelObservatory`] ledger, when the deciding policy was
    /// model-driven (see [`Policy::prediction`]); `None` for reactive
    /// policies.
    pub provenance: Option<u64>,
}

/// The record of everything an agent did.
///
/// This is a *view* materialized from the agent's telemetry (see
/// [`Agent::log`]): decisions and errors live in the shared telemetry
/// store, where they sit on the same clock as runtime task events, and
/// this snapshot exists for convenient post-hoc inspection.
#[derive(Debug, Clone, Default)]
pub struct AgentLog {
    /// Commands in issue order.
    pub decisions: Vec<Decision>,
    /// Ticks executed.
    pub ticks: u64,
    /// Errors encountered (command rejections, timeouts, disconnects) —
    /// the agent keeps going, the paper's agent must not take the node
    /// down.
    pub errors: Vec<String>,
}

/// The agent's telemetry state: counters/histograms in the hub's
/// registry, decision instants on the timeline, plus the decision and
/// error records backing [`AgentLog`].
struct AgentTelemetry {
    hub: Arc<TelemetryHub>,
    track: TrackId,
    observatory: Arc<ModelObservatory>,
    ticks: Arc<Counter>,
    decisions_total: Arc<Counter>,
    errors_total: Arc<Counter>,
    poll_failures: Arc<Counter>,
    evictions: Arc<Counter>,
    recoveries: Arc<Counter>,
    regressions: Arc<Counter>,
    containments: Arc<Counter>,
    decision_latency_us: Arc<Histogram>,
    /// `coop_agent_tick_stage_us{stage=..}`, indexed by [`Stage`].
    stage_us: [Arc<Histogram>; STAGES.len()],
    decisions: Mutex<Vec<Decision>>,
    errors: Mutex<Vec<String>>,
}

/// The stages one tick is split into for `coop_agent_tick_stage_us`, in
/// the order they run.
#[derive(Clone, Copy)]
enum Stage {
    /// Probing evicted runtimes and re-admitting the recovered.
    Probe,
    /// Stats poll of the live set, evictions, provenance back-fill.
    Poll,
    /// `Policy::tick`.
    Policy,
    /// Policy commands, fair-share reclamation, containment.
    Command,
    /// Provenance record, tenant ledger, SLO engine, decision records.
    Book,
}

/// The `stage` label of each [`Stage`], in declaration order.
const STAGES: [&str; 5] = ["probe", "poll", "policy", "command", "book"];

impl AgentTelemetry {
    fn new(hub: Arc<TelemetryHub>) -> Self {
        let track = hub.register_track("agent");
        hub.set_lane_name(track, 0, "decisions");
        hub.set_lane_name(track, HEALTH_LANE, "health");
        let reg = hub.registry();
        reg.set_help(
            "coop_agent_decision_latency_us",
            "Latency of one policy tick (stats already collected) (us)",
        );
        reg.set_help(
            "coop_agent_tick_stage_us",
            "Wall time of one stage of one agent tick: probe, poll, policy, command, book (us)",
        );
        reg.set_help(
            "coop_agent_decisions_total",
            "Commands applied by the agent",
        );
        reg.set_help(
            "coop_agent_poll_failures_total",
            "Stats polls that failed after retries",
        );
        reg.set_help(
            "coop_agent_evictions_total",
            "Runtimes evicted after being declared Dead",
        );
        reg.set_help(
            "coop_agent_recoveries_total",
            "Evicted runtimes re-admitted after recovering",
        );
        reg.set_help(
            "coop_agent_counter_regressions_total",
            "Decision windows discarded because a runtime's task counter ran backwards",
        );
        reg.set_help(
            "coop_agent_containments_total",
            "Containment commands issued against runtimes with sustained runaway tasks",
        );
        reg.set_help(
            "coop_agent_runtime_health",
            "Per-runtime health: 0 healthy, 1 degraded, 2 suspected, 3 dead",
        );
        reg.set_help(
            "coop_agent_retries_total",
            "Per-runtime call retries after transport failures",
        );
        AgentTelemetry {
            track,
            observatory: Arc::new(ModelObservatory::new(Arc::clone(&hub))),
            ticks: reg.counter("coop_agent_ticks_total", &[]),
            decisions_total: reg.counter("coop_agent_decisions_total", &[]),
            errors_total: reg.counter("coop_agent_errors_total", &[]),
            poll_failures: reg.counter("coop_agent_poll_failures_total", &[]),
            evictions: reg.counter("coop_agent_evictions_total", &[]),
            recoveries: reg.counter("coop_agent_recoveries_total", &[]),
            regressions: reg.counter("coop_agent_counter_regressions_total", &[]),
            containments: reg.counter("coop_agent_containments_total", &[]),
            decision_latency_us: reg.histogram("coop_agent_decision_latency_us", &[]),
            stage_us: STAGES
                .map(|stage| reg.histogram("coop_agent_tick_stage_us", &[("stage", stage)])),
            decisions: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
            hub,
        }
    }

    /// Books the stage that ran from `*since` to now and moves `*since`
    /// to now (one clock read per stage boundary); returns its length.
    fn stage_done(&self, stage: Stage, since: &mut Instant) -> u64 {
        let now = Instant::now();
        let us = now.duration_since(*since).as_micros() as u64;
        self.stage_us[stage as usize].observe(us);
        *since = now;
        us
    }

    fn record_decision(&self, decision: Decision) {
        self.decisions_total.inc();
        self.hub.record_instant(
            0,
            self.track,
            0,
            "agent",
            &format!("{:?}", decision.command),
            vec![
                (
                    "runtime".to_string(),
                    ArgValue::Str(decision.runtime.clone()),
                ),
                ("tick".to_string(), ArgValue::U64(decision.tick)),
            ],
        );
        self.decisions.lock().push(decision);
    }

    fn record_error(&self, error: String) {
        self.errors_total.inc();
        self.hub.record_instant(
            0,
            self.track,
            0,
            "agent",
            "error",
            vec![("message".to_string(), ArgValue::Str(error.clone()))],
        );
        self.errors.lock().push(error);
    }

    /// Puts an eviction / re-admission / counter-regression instant on
    /// the health lane, next to the per-runtime transition instants the
    /// supervised handles emit.
    fn record_health_event(&self, tick: u64, runtime: &str, what: &str) {
        self.hub.record_instant(
            0,
            self.track,
            HEALTH_LANE,
            "health",
            what,
            vec![
                ("runtime".to_string(), ArgValue::Str(runtime.to_string())),
                ("tick".to_string(), ArgValue::U64(tick)),
            ],
        );
    }

    fn snapshot(&self) -> AgentLog {
        AgentLog {
            decisions: self.decisions.lock().clone(),
            ticks: self.ticks.get(),
            errors: self.errors.lock().clone(),
        }
    }
}

/// The periodic arbitration loop of Figure 1, hardened against partial
/// failure: every managed handle is wrapped in a [`SupervisedHandle`]
/// (deadline, retry, health state machine), a tick polls *all* runtimes
/// and continues with whoever answered, quarantined runtimes are skipped,
/// Dead ones are evicted and their cores reclaimed for the survivors
/// (see [`Agent::set_reclaim_machine`]), and evicted runtimes are probed
/// for recovery and re-admitted when healthy again.
///
/// ```
/// use coop_agent::{Agent, policies::FairShare};
/// use coop_runtime::{Runtime, RuntimeConfig};
/// use numa_topology::presets::tiny;
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let a = Arc::new(Runtime::start(RuntimeConfig::new("a", tiny())).unwrap());
/// let b = Arc::new(Runtime::start(RuntimeConfig::new("b", tiny())).unwrap());
/// let mut agent = Agent::new(Box::new(FairShare::new(tiny())));
/// agent.manage(Box::new(Arc::clone(&a)));
/// agent.manage(Box::new(Arc::clone(&b)));
/// let log = agent.run_for(Duration::from_millis(30), Duration::from_millis(5));
/// assert!(log.ticks >= 1);
/// // Fair share on 2x2-core nodes: each app got 1 thread per node.
/// assert!(a.control().wait_converged(Duration::from_secs(5), |run, _| run == 2));
/// a.shutdown();
/// b.shutdown();
/// ```
pub struct Agent {
    handles: Vec<SupervisedHandle>,
    /// One tenant per handle, in registry order: who is evicted (indices
    /// stay stable so policies keep a coherent view), the reclaim and
    /// containment rows, the command check and the tenant ledger.
    tenancy: Tenancy<'static>,
    /// The handles the last allocation (the policy's or the reclamation
    /// fallback's) went to, in registry order.
    commanded: Vec<usize>,
    /// Parallel to `handles`: the runtime's scheduler counters, resolved
    /// on the first tick that samples it for the tenant ledger — the
    /// occasion a lookup by name would have created the series.
    sched: Vec<Option<SchedLocality>>,
    supervision: SupervisionConfig,
    /// The threads that call the handles that are not channels, in place.
    runners: Arc<Runners>,
    policy: Box<dyn Policy>,
    telemetry: AgentTelemetry,
    open_decision: Option<OpenDecision>,
}

/// Book-keeping for the provenance record opened on the last
/// model-driven tick, closed with measured outcomes on the next tick.
struct OpenDecision {
    id: u64,
    /// `tasks_executed` per live runtime (by name — the live set may
    /// change shape between open and close) when the record was opened.
    baseline: Vec<(String, u64)>,
}

/// Augments a policy prediction with per-runtime predicted *throughput
/// shares* (`share/<runtime>/throughput`). The model predicts GFLOPS but
/// the runtimes report task counts; normalizing both sides to shares of
/// the total makes the residual unit-free and comparable. Only added when
/// every managed runtime has a predicted `app/<name>/gflops` series.
fn with_share_series(mut prediction: Prediction, stats: &[RuntimeStats]) -> Prediction {
    let per_app: Vec<(String, f64)> = stats
        .iter()
        .filter_map(|s| {
            prediction
                .value(&format!("app/{}/gflops", s.name))
                .map(|g| (s.name.clone(), g))
        })
        .collect();
    let total: f64 = per_app.iter().map(|(_, g)| g).sum();
    if per_app.len() == stats.len() && total > 0.0 {
        for (name, gflops) in per_app {
            prediction.series.push(SeriesValue::new(
                format!("share/{name}/throughput"),
                gflops / total,
            ));
        }
    }
    prediction
}

/// Measured per-runtime throughput shares over a decision's lifetime:
/// the fraction of all newly executed tasks each runtime contributed
/// since `baseline`. Returns the series plus the names of runtimes whose
/// `tasks_executed` ran *backwards* (a restarted or corrupted runtime).
/// Any regression discards the whole window — an empty series (no
/// residual) is better than a fabricated one — and the caller resets the
/// baseline by dropping the open decision. A runtime present in the
/// baseline but missing from `stats` (evicted mid-window) is simply
/// excluded.
fn measured_share_series(
    stats: &[RuntimeStats],
    baseline: &[(String, u64)],
) -> (Vec<SeriesValue>, Vec<String>) {
    let mut regressed = Vec::new();
    let mut deltas: Vec<(String, u64)> = Vec::new();
    for (name, base) in baseline {
        let Some(s) = stats.iter().find(|s| &s.name == name) else {
            continue;
        };
        if s.tasks_executed < *base {
            regressed.push(name.clone());
        } else {
            deltas.push((name.clone(), s.tasks_executed - *base));
        }
    }
    if !regressed.is_empty() {
        return (Vec::new(), regressed);
    }
    let total: u64 = deltas.iter().map(|(_, d)| *d).sum();
    if total == 0 {
        return (Vec::new(), regressed);
    }
    let series = deltas
        .into_iter()
        .map(|(name, d)| {
            SeriesValue::new(format!("share/{name}/throughput"), d as f64 / total as f64)
        })
        .collect();
    (series, regressed)
}

/// The threads a command grants a runtime on a machine of `total_cores`,
/// at most all of them (`Unrestricted` grants the whole machine;
/// `BlockCores` grants what is left).
fn granted_threads(cmd: &ThreadCommand, total_cores: usize) -> usize {
    let threads = match cmd {
        ThreadCommand::TotalThreads(n) => *n,
        ThreadCommand::PerNode(v) => v.iter().sum(),
        ThreadCommand::BlockCores(set) => total_cores.saturating_sub(set.count()),
        ThreadCommand::Unrestricted => total_cores,
    };
    threads.min(total_cores)
}

impl Agent {
    /// Creates an agent with the given policy and no managed runtimes.
    /// Decisions are recorded into a private telemetry hub; use
    /// [`with_telemetry`](Agent::with_telemetry) to share one with the
    /// runtimes it manages.
    pub fn new(policy: Box<dyn Policy>) -> Self {
        Self::with_telemetry(policy, Arc::new(TelemetryHub::new()))
    }

    /// Creates an agent that records its decisions into `hub`, so they
    /// land on the same timeline (and clock) as the managed runtimes'
    /// task events.
    pub fn with_telemetry(policy: Box<dyn Policy>, hub: Arc<TelemetryHub>) -> Self {
        Agent {
            handles: Vec::new(),
            // Live runtimes may share a node's cores: the OS time-slices a
            // policy's oversubscription.
            tenancy: Tenancy::new(None, true, "evicted", "readmitted"),
            commanded: Vec::new(),
            sched: Vec::new(),
            supervision: SupervisionConfig::default(),
            runners: Arc::default(),
            policy,
            telemetry: AgentTelemetry::new(hub),
            open_decision: None,
        }
    }

    /// Sets the supervision configuration (failure detector + backoff)
    /// applied to runtimes registered *after* this call.
    pub fn set_supervision(&mut self, config: SupervisionConfig) {
        self.supervision = config;
    }

    /// Gives the agent the machine topology, enabling core reclamation and
    /// containment: whenever the live set changes (an eviction or a
    /// re-admission), the policy issues no commands that tick and the last
    /// allocation went to another set of runtimes, the agent falls back to
    /// a fair share of this machine among the live ones, so a dead
    /// runtime's cores never sit idle.
    pub fn set_reclaim_machine(&mut self, machine: Machine) {
        self.tenancy.set_machine(machine);
    }

    /// Registers a runtime, wrapping it in a [`SupervisedHandle`] with
    /// the agent's current supervision configuration. Registry order
    /// defines the indices policies see.
    pub fn manage(&mut self, handle: Box<dyn RuntimeHandle>) {
        let handle = SupervisedHandle::served_by(handle, self.supervision.clone(), &self.runners);
        handle.attach_telemetry(Arc::clone(&self.telemetry.hub), self.telemetry.track);
        let hub = &self.telemetry.hub;
        self.tenancy
            .admit(hub, handle.runtime_name(), false, hub.now_us());
        self.handles.push(handle);
        self.sched.push(None);
    }

    /// Current health of every managed runtime, in registry order.
    pub fn health(&self) -> Vec<(String, Health)> {
        self.handles
            .iter()
            .map(|h| (h.name(), h.health()))
            .collect()
    }

    /// Names of currently evicted runtimes.
    pub fn evicted(&self) -> Vec<String> {
        self.handles
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.tenancy.is_down(i))
            .map(|(_, h)| h.name())
            .collect()
    }

    /// The runtimes' tenancy: this tick's live mask and containment rows,
    /// against which [`Tenancy::check`] holds a tick's commands.
    pub fn tenancy(&self) -> &Tenancy<'static> {
        &self.tenancy
    }

    /// A snapshot of everything the agent has done so far (a view over
    /// its telemetry).
    pub fn log(&self) -> AgentLog {
        self.telemetry.snapshot()
    }

    /// The telemetry hub this agent records into.
    pub fn hub(&self) -> Arc<TelemetryHub> {
        Arc::clone(&self.telemetry.hub)
    }

    /// Executes a single tick: probe evicted runtimes for recovery, poll
    /// *all* live runtimes (recording failures without aborting the
    /// tick), evict runtimes the failure detector declared Dead,
    /// back-fill the previous decision's provenance, ask the policy
    /// (over the live set only), reclaim cores via a fair-share fallback
    /// when the live set changed and the policy left the survivors
    /// uncommanded, contain runaway offenders, and apply the commands.
    ///
    /// Probes, polls and commands are each one scatter–gather phase
    /// (see [`crate::supervise`]): every runtime of the phase is asked at
    /// once and answers are taken in registry order, so runtimes that hang
    /// cost the phase one call deadline, however many do. A runtime gets
    /// at most one command a tick.
    ///
    /// A failing runtime never makes the tick fail: poll errors are
    /// recorded in the log/telemetry and the tick continues with the
    /// runtimes that answered.
    pub fn tick(&mut self) -> Result<()> {
        let mut stage_start = Instant::now();
        let tick = self.telemetry.ticks.get();
        self.telemetry.ticks.inc();
        let hub = &self.telemetry.hub;

        let mut live_set_changed = false;

        // Re-admission: probe evicted runtimes, every tick; a runtime whose
        // health has climbed back to Healthy rejoins the live set.
        let probed: Vec<usize> = (0..self.handles.len())
            .filter(|&i| self.tenancy.is_down(i))
            .collect();
        let handles: Vec<&SupervisedHandle> = probed.iter().map(|&i| &self.handles[i]).collect();
        let _ = stats_all(&handles, false);
        for i in probed {
            if self.handles[i].health() != Health::Healthy {
                continue;
            }
            live_set_changed = true;
            self.telemetry.recoveries.inc();
            self.telemetry
                .record_health_event(tick, self.handles[i].runtime_name(), "readmitted");
            self.tenancy.set_down(hub, i, false, hub.now_us());
        }
        self.telemetry.stage_done(Stage::Probe, &mut stage_start);

        // Poll everyone still in the live set. Failures are recorded and
        // the poll moves on; `live_idx` maps positions in `stats` back to
        // handle indices for the command phase.
        let polled: Vec<usize> = (0..self.handles.len())
            .filter(|&i| !self.tenancy.is_down(i))
            .collect();
        let handles: Vec<&SupervisedHandle> = polled.iter().map(|&i| &self.handles[i]).collect();
        let mut live_idx: Vec<usize> = Vec::with_capacity(polled.len());
        let mut stats: Vec<RuntimeStats> = Vec::with_capacity(polled.len());
        for (&i, polled) in polled.iter().zip(stats_all(&handles, true)) {
            match polled {
                Ok(s) => {
                    if self.handles[i].is_quarantined() {
                        // Answered, but still under suspicion (recovery
                        // streak incomplete): keep it out of decisions
                        // until the detector trusts it again.
                        continue;
                    }
                    live_idx.push(i);
                    stats.push(s);
                }
                Err(e) => {
                    self.telemetry.poll_failures.inc();
                    self.telemetry.record_error(e.to_string());
                    if self.handles[i].health() == Health::Dead {
                        live_set_changed = true;
                        self.telemetry.evictions.inc();
                        let name = self.handles[i].runtime_name();
                        self.telemetry.record_health_event(tick, name, "evicted");
                        // A floor left behind would hold a revived runtime
                        // at Degraded, short of the Healthy that re-admits it.
                        self.handles[i].clear_forced_floor();
                        self.tenancy.set_down(hub, i, true, hub.now_us());
                    }
                }
            }
        }

        // The previous model-driven decision has now lived for one full
        // tick interval: back-fill its provenance record with the
        // throughput realized over that window. A counter regression
        // (restarted/corrupted runtime) discards the window — the
        // baseline resets with the next opened decision — and is
        // announced instead of being fed to the drift detector as a
        // bogus share.
        if let Some(open) = self.open_decision.take() {
            let (measured, regressed) = measured_share_series(&stats, &open.baseline);
            for name in &regressed {
                self.telemetry.regressions.inc();
                self.telemetry
                    .record_health_event(tick, name, "counter_regression");
            }
            self.telemetry.observatory.close_decision(open.id, measured);
        }
        self.telemetry.stage_done(Stage::Poll, &mut stage_start);

        let commands = self.policy.tick(&stats, tick);
        let policy_us = self.telemetry.stage_done(Stage::Policy, &mut stage_start);
        self.telemetry.decision_latency_us.observe(policy_us);

        let mut wanted: Vec<(usize, ThreadCommand)> = commands
            .into_iter()
            .enumerate()
            .filter_map(|(pos, cmd)| Some((*live_idx.get(pos)?, cmd?)))
            .collect();
        let policy_issued = !wanted.is_empty();
        if policy_issued {
            self.commanded.clear();
            self.commanded.extend(wanted.iter().map(|(i, _)| *i));
        }
        self.tenancy.set_live(live_idx.iter().copied());

        // Reclamation fallback: the live set changed, the policy issued
        // nothing (its solve failed, or it is one-shot), and the last
        // allocation went to another set than this one — so the live
        // runtimes split the machine rather than leave a dead runtime's
        // cores idle, or a re-admitted one share a survivor's.
        if live_set_changed && !policy_issued && self.commanded != live_idx {
            if let Some(fair) = self.tenancy.fair() {
                let rows = live_idx.iter().map(|&i| (i, PerNode(fair.row(i).to_vec())));
                wanted.extend(rows);
                self.commanded.clone_from(&live_idx);
            }
        }

        // Containment: a runtime whose watchdog counter keeps climbing is
        // degraded and clamped to its fair-share row, in place of what this
        // tick decided for it; a quiet tick lifts the floor again.
        self.tenancy.contain(
            live_idx
                .iter()
                .zip(&stats)
                .map(|(&i, s)| (i, s.tasks_runaway)),
            |i| {
                let running = stats[live_idx.partition_point(|&j| j < i)].running_per_node();
                let mut held: Vec<usize> = running.into_iter().map(|r| r as usize).collect();
                let decided = wanted.iter().find(|(j, _)| *j == i);
                for (held, &d) in held
                    .iter_mut()
                    .zip(decided.and_then(|(_, c)| row_of(c)).unwrap_or_default())
                {
                    *held = (*held).min(d);
                }
                held
            },
        );
        wanted.retain(|&(i, _)| self.tenancy.caps().all(|(j, _)| j != i));
        // Policy commands come first, then from `clamps` on containment's.
        let decided = if policy_issued { wanted.len() } else { 0 };
        let clamps = wanted.len();
        for &i in &live_idx {
            self.handles[i].clear_forced_floor();
        }
        for (i, row) in self.tenancy.caps() {
            self.handles[i].force_degraded();
            wanted.push((i, PerNode(row.to_vec())));
        }
        self.tenancy
            .check(hub, wanted.iter().map(|(i, cmd)| (*i, row_of(cmd))));

        // One scatter: runtimes that hang in it cost one deadline together.
        let sent = command_all(
            wanted
                .iter()
                .map(|(i, cmd)| (&self.handles[*i], cmd.clone()))
                .collect(),
        );
        let mut applied: Vec<(usize, usize, ThreadCommand)> = Vec::with_capacity(wanted.len());
        for (k, ((i, cmd), sent)) in wanted.into_iter().zip(sent).enumerate() {
            match sent {
                Ok(()) => applied.push((k, i, cmd)),
                Err(e) => self.telemetry.record_error(e.to_string()),
            }
        }
        for &(_, i, _) in applied.iter().filter(|(k, _, _)| *k >= clamps) {
            self.telemetry.containments.inc();
            self.telemetry
                .record_health_event(tick, self.handles[i].runtime_name(), "contained");
        }
        self.telemetry.stage_done(Stage::Command, &mut stage_start);

        let mut provenance = None;
        // Only policy-issued commands carry the policy's prediction;
        // fallback and containment commands are reactive by construction.
        if applied.iter().any(|(k, _, _)| *k < decided) {
            if let Some(prediction) = self.policy.prediction() {
                let prediction = with_share_series(prediction, &stats);
                let command_text = applied
                    .iter()
                    .map(|(_, i, cmd)| format!("{}:{:?}", self.handles[*i].runtime_name(), cmd))
                    .collect::<Vec<_>>()
                    .join("; ");
                let id = self.telemetry.observatory.open_decision(
                    tick,
                    "agent",
                    command_text,
                    prediction,
                );
                self.open_decision = Some(OpenDecision {
                    id,
                    baseline: stats
                        .iter()
                        .map(|s| (s.name.clone(), s.tasks_executed))
                        .collect(),
                });
                provenance = Some(id);
            }
        }
        // Entitlements follow the commands applied; samples, only built for
        // an installed ledger, take this tick's stats.
        let cores = self.tenancy.machine().map_or(0, Machine::total_cores);
        let granted = (applied.iter()).map(|(_, i, cmd)| (*i, granted_threads(cmd, cores)));
        let samples: Vec<TenantSample> = if hub.tenant_ledger().is_some() {
            stats
                .into_iter()
                .zip(&live_idx)
                .map(|(s, &i)| {
                    let (local_pops, remote_steals) = self.sched[i]
                        .get_or_insert_with(|| SchedLocality::resolve(hub.registry(), &s.name))
                        .read();
                    TenantSample {
                        per_node_tasks: s.per_node_tasks(),
                        running_per_node: s.running_per_node(),
                        tenant: s.name,
                        tasks_executed: s.tasks_executed,
                        uptime_us: s.uptime_us,
                        local_pops,
                        remote_steals,
                        preemptions: s.tasks_preempted,
                        overbudget_cpu_us: s.overbudget_cpu_us,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        self.tenancy.book(hub, hub.now_us(), granted, &samples);

        for (k, i, cmd) in applied {
            self.telemetry.record_decision(Decision {
                tick,
                runtime: self.handles[i].name(),
                command: cmd,
                provenance: if k < decided { provenance } else { None },
            });
        }
        self.telemetry.stage_done(Stage::Book, &mut stage_start);
        Ok(())
    }

    /// Runs the loop inline for `duration`, ticking every `interval`.
    /// Returns the accumulated log.
    pub fn run_for(mut self, duration: Duration, interval: Duration) -> AgentLog {
        let deadline = Instant::now() + duration;
        loop {
            let _ = self.tick();
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(interval);
        }
        self.log()
    }

    /// Runs the loop on a background thread until the returned handle is
    /// stopped. Use this to arbitrate while the main thread drives work
    /// (e.g. a pipeline). Fails with [`crate::AgentError::Spawn`] when
    /// the OS refuses the thread.
    pub fn spawn(mut self, interval: Duration) -> Result<AgentThread> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let log = Arc::new(Mutex::new(None));
        let log2 = Arc::clone(&log);
        let thread = std::thread::Builder::new()
            .name("coop-agent".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    let _ = self.tick();
                    std::thread::sleep(interval);
                }
                *log2.lock() = Some(self.log());
            })
            .map_err(|e| crate::AgentError::Spawn {
                runtime: "agent".to_string(),
                reason: e.to_string(),
            })?;
        Ok(AgentThread {
            stop,
            thread: Some(thread),
            log,
        })
    }
}

/// Handle to a background agent; stop it to retrieve the log.
pub struct AgentThread {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    log: Arc<Mutex<Option<AgentLog>>>,
}

impl AgentThread {
    /// Stops the agent and returns its log.
    pub fn stop(mut self) -> AgentLog {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.log.lock().take().unwrap_or_default()
    }
}

impl Drop for AgentThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgentError, RuntimeStats};
    use coop_runtime::{Runtime, RuntimeConfig};
    use numa_topology::presets::tiny;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU64;

    /// A policy that counts ticks and issues one command on tick 2.
    struct Scripted {
        issued: bool,
    }

    impl Policy for Scripted {
        fn tick(&mut self, stats: &[RuntimeStats], tick: u64) -> Vec<Option<ThreadCommand>> {
            let mut out = vec![None; stats.len()];
            if tick == 2 && !self.issued && !stats.is_empty() {
                self.issued = true;
                out[0] = Some(ThreadCommand::TotalThreads(1));
            }
            out
        }
    }

    /// A policy that never issues anything (reclamation fallback tests).
    struct Silent;
    impl Policy for Silent {
        fn tick(&mut self, stats: &[RuntimeStats], _t: u64) -> Vec<Option<ThreadCommand>> {
            vec![None; stats.len()]
        }
    }

    /// An in-memory runtime with a switchable liveness flag, a settable
    /// task counter, and a command log.
    struct Fake {
        name: String,
        dead: Arc<AtomicBool>,
        executed: Arc<AtomicU64>,
        commands: CommandLog,
    }

    type CommandLog = Arc<Mutex<Vec<ThreadCommand>>>;

    impl Fake {
        fn new(name: &str) -> (Self, Arc<AtomicBool>, Arc<AtomicU64>, CommandLog) {
            let dead = Arc::new(AtomicBool::new(false));
            let executed = Arc::new(AtomicU64::new(100));
            let commands = Arc::new(Mutex::new(Vec::new()));
            (
                Fake {
                    name: name.to_string(),
                    dead: Arc::clone(&dead),
                    executed: Arc::clone(&executed),
                    commands: Arc::clone(&commands),
                },
                dead,
                executed,
                commands,
            )
        }
    }

    impl RuntimeHandle for Fake {
        fn name(&self) -> String {
            self.name.clone()
        }
        fn stats(&self) -> crate::Result<RuntimeStats> {
            if self.dead.load(Ordering::SeqCst) {
                return Err(AgentError::Disconnected {
                    runtime: self.name.clone(),
                });
            }
            Ok(RuntimeStats {
                name: self.name.clone(),
                tasks_executed: self.executed.load(Ordering::SeqCst),
                tasks_panicked: 0,
                tasks_spawned: 0,
                tasks_ready: 0,
                tasks_pending: 0,
                running_workers: 1,
                blocked_workers: 0,
                external_threads: 0,
                per_node: vec![],
                user_counters: HashMap::new(),
                uptime_us: 1_000,
                tasks_preempted: 0,
                tasks_runaway: 0,
                overbudget_cpu_us: 0,
            })
        }
        fn command(&self, cmd: ThreadCommand) -> crate::Result<()> {
            if self.dead.load(Ordering::SeqCst) {
                return Err(AgentError::Disconnected {
                    runtime: self.name.clone(),
                });
            }
            self.commands.lock().push(cmd);
            Ok(())
        }
    }

    fn fast_supervision() -> SupervisionConfig {
        let mut c = SupervisionConfig::aggressive(Duration::from_millis(100));
        c.backoff.max_retries = 0;
        c
    }

    #[test]
    fn agent_applies_policy_commands() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("x", tiny())).unwrap());
        let mut agent = Agent::new(Box::new(Scripted { issued: false }));
        agent.manage(Box::new(Arc::clone(&rt)));
        for _ in 0..4 {
            agent.tick().unwrap();
        }
        assert!(rt
            .control()
            .wait_converged(Duration::from_secs(5), |run, _| run == 1));
        let log = agent.log();
        assert_eq!(log.decisions.len(), 1);
        assert_eq!(log.decisions[0].tick, 2);
        assert_eq!(log.decisions[0].runtime, "x");
        rt.shutdown();
    }

    #[test]
    fn agent_records_command_errors_and_continues() {
        struct BadCommand;
        impl Policy for BadCommand {
            fn tick(&mut self, stats: &[RuntimeStats], _t: u64) -> Vec<Option<ThreadCommand>> {
                vec![Some(ThreadCommand::PerNode(vec![9])); stats.len()]
            }
        }
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("bad", tiny())).unwrap());
        let mut agent = Agent::new(Box::new(BadCommand));
        agent.manage(Box::new(Arc::clone(&rt)));
        agent.tick().unwrap();
        agent.tick().unwrap();
        let log = agent.log();
        assert_eq!(log.errors.len(), 2);
        assert!(log.decisions.is_empty());
        // Command *rejections* prove liveness: the runtime stays healthy
        // and is never quarantined for refusing a bad command.
        assert_eq!(agent.health(), vec![("bad".to_string(), Health::Healthy)]);
        rt.shutdown();
    }

    #[test]
    fn tick_continues_when_one_runtime_fails_poll() {
        // Regression test: a failed stats() poll used to abort the whole
        // tick, starving the healthy runtimes of decisions.
        struct CommandAll;
        impl Policy for CommandAll {
            fn tick(&mut self, stats: &[RuntimeStats], _t: u64) -> Vec<Option<ThreadCommand>> {
                vec![Some(ThreadCommand::TotalThreads(1)); stats.len()]
            }
        }
        let (down, down_dead, _, _) = Fake::new("down");
        let (up, _, _, up_commands) = Fake::new("up");
        down_dead.store(true, Ordering::SeqCst);
        let mut agent = Agent::new(Box::new(CommandAll));
        agent.set_supervision(fast_supervision());
        agent.manage(Box::new(down));
        agent.manage(Box::new(up));
        agent
            .tick()
            .expect("a failing runtime must not fail the tick");
        let log = agent.log();
        assert!(
            log.errors.iter().any(|e| e.contains("down")),
            "the poll failure is recorded: {:?}",
            log.errors
        );
        assert_eq!(
            up_commands.lock().as_slice(),
            &[ThreadCommand::TotalThreads(1)],
            "the healthy runtime still received its command"
        );
        assert_eq!(log.decisions.len(), 1);
        assert_eq!(log.decisions[0].runtime, "up");
    }

    #[test]
    fn dead_runtime_is_evicted_cores_reclaimed_then_readmitted() {
        let (a, _, _, a_cmds) = Fake::new("a");
        let (b, b_dead, _, b_cmds) = Fake::new("b");
        let (c, _, _, c_cmds) = Fake::new("c");
        let mut agent = Agent::new(Box::new(Silent));
        agent.set_supervision(fast_supervision());
        agent.set_reclaim_machine(tiny());
        agent.manage(Box::new(a));
        agent.manage(Box::new(b));
        agent.manage(Box::new(c));

        // Healthy steady state: Silent never issues, nothing applied.
        agent.tick().unwrap();
        assert!(a_cmds.lock().is_empty());

        // Kill b; dead_after = 3 consecutive failures (one per tick with
        // retries disabled) ⇒ evicted on the third failing tick.
        b_dead.store(true, Ordering::SeqCst);
        for _ in 0..4 {
            agent.tick().unwrap();
        }
        assert_eq!(agent.evicted(), vec!["b".to_string()]);
        assert!(agent
            .health()
            .iter()
            .any(|(n, h)| n == "b" && *h == Health::Dead));

        // Reclamation: the two survivors split the whole tiny() machine
        // (2 nodes x 2 cores): one thread per node each — up from the
        // 3-way split they would get with all runtimes alive.
        assert_eq!(
            a_cmds.lock().clone(),
            vec![ThreadCommand::PerNode(vec![1, 1])]
        );
        assert_eq!(
            c_cmds.lock().clone(),
            vec![ThreadCommand::PerNode(vec![1, 1])]
        );
        assert!(b_cmds.lock().is_empty(), "no commands to the dead runtime");

        // The eviction instant landed on the health lane.
        let hub = agent.hub();
        assert!(hub
            .events()
            .iter()
            .any(|e| e.cat == "health" && e.name == "evicted"));
        assert_eq!(
            hub.registry().counter_total("coop_agent_evictions_total"),
            1
        );

        // Revive b: recovery_successes = 2 probes ⇒ re-admitted after two
        // ticks, and the fallback redistributes over all three again.
        b_dead.store(false, Ordering::SeqCst);
        agent.tick().unwrap();
        assert_eq!(
            agent.evicted(),
            vec!["b".to_string()],
            "one probe is not enough"
        );
        agent.tick().unwrap();
        assert!(agent.evicted().is_empty());
        assert!(agent
            .health()
            .iter()
            .any(|(n, h)| n == "b" && *h == Health::Healthy));
        assert!(
            !b_cmds.lock().is_empty(),
            "the re-admitted runtime gets its share back"
        );
        assert!(hub
            .events()
            .iter()
            .any(|e| e.cat == "health" && e.name == "readmitted"));
        assert_eq!(
            hub.registry().counter_total("coop_agent_recoveries_total"),
            1
        );
    }

    #[test]
    fn agent_feeds_tenant_ledger_and_slo_engine() {
        use coop_telemetry::{SloEngine, SloSpec, TenantLedger};
        let hub = Arc::new(TelemetryHub::new());
        let ledger = Arc::new(TenantLedger::new());
        assert!(hub.install_tenant_ledger(Arc::clone(&ledger)));
        let engine = Arc::new(SloEngine::new(vec![SloSpec::min_share("b", 0.2)]));
        assert!(hub.install_slo_engine(Arc::clone(&engine)));

        let (a, _, a_exec, _) = Fake::new("a");
        let (b, b_dead, _, _) = Fake::new("b");
        let mut agent = Agent::with_telemetry(Box::new(Silent), Arc::clone(&hub));
        agent.set_supervision(fast_supervision());
        agent.set_reclaim_machine(tiny());
        agent.manage(Box::new(a));
        agent.manage(Box::new(b));

        // Managing a runtime opens its accounting epoch.
        let snap = ledger.snapshot();
        assert!(snap.tenant("a").unwrap().live);
        assert!(snap.tenant("b").unwrap().live);

        // Ticks book measurement windows: the first books each runtime's
        // lifetime counters from zero, then "a" executes 300 more tasks
        // while "b" sits still, so "a" owns the second window.
        agent.tick().unwrap();
        a_exec.store(400, Ordering::SeqCst);
        agent.tick().unwrap();
        let snap = ledger.snapshot();
        assert_eq!(snap.tenant("a").unwrap().tasks_total, 400);
        assert!((snap.tenant("a").unwrap().delivered_share - 1.0).abs() < 1e-12);

        // Kill "b": the eviction closes its epoch, and the reclamation
        // fallback entitles the survivor to the whole tiny() machine.
        b_dead.store(true, Ordering::SeqCst);
        for _ in 0..4 {
            a_exec.fetch_add(50, Ordering::SeqCst);
            agent.tick().unwrap();
        }
        assert_eq!(agent.evicted(), vec!["b".to_string()]);
        let snap = ledger.snapshot();
        let b_acct = snap.tenant("b").unwrap();
        assert!(!b_acct.live);
        assert!(b_acct.epochs.last().unwrap().closed_us.is_some());
        assert_eq!(snap.tenant("a").unwrap().entitled_share, Some(1.0));

        // The victim's min-share SLO is violated while it is out.
        let report = engine.report();
        assert!(report[0].violations_total >= 1, "{report:?}");
        assert!(report[0].burn_rate > 0.0);

        // Revival re-opens the epoch with reason "readmitted".
        b_dead.store(false, Ordering::SeqCst);
        agent.tick().unwrap();
        agent.tick().unwrap();
        assert!(agent.evicted().is_empty());
        let snap = ledger.snapshot();
        let b_acct = snap.tenant("b").unwrap();
        assert!(b_acct.live);
        assert_eq!(b_acct.epochs.len(), 2);
        assert_eq!(b_acct.epochs.last().unwrap().reason, "readmitted");
    }

    /// A runtime whose watchdog counter is test-controlled and which
    /// reports `running[n]` busy workers on node `n`. With a
    /// `command_gate`, `command()` hangs until the gate's sender is dropped;
    /// while `dead` is set, every call fails.
    struct RunawayFake {
        name: String,
        dead: Arc<AtomicBool>,
        runaway: Arc<AtomicU64>,
        running: Vec<usize>,
        commands: CommandLog,
        command_gate: Option<Mutex<std::sync::mpsc::Receiver<()>>>,
    }
    impl RuntimeHandle for RunawayFake {
        fn name(&self) -> String {
            self.name.clone()
        }
        fn stats(&self) -> crate::Result<RuntimeStats> {
            if self.dead.load(Ordering::SeqCst) {
                return Err(AgentError::Disconnected {
                    runtime: self.name.clone(),
                });
            }
            Ok(RuntimeStats {
                name: self.name.clone(),
                tasks_executed: 10,
                tasks_panicked: 0,
                tasks_spawned: 10,
                tasks_ready: 0,
                tasks_pending: 0,
                running_workers: self.running.iter().sum(),
                blocked_workers: 0,
                external_threads: 0,
                per_node: self
                    .running
                    .iter()
                    .enumerate()
                    .map(|(n, &running_workers)| coop_runtime::NodeOccupancy {
                        node: numa_topology::NodeId(n),
                        running_workers,
                        tasks_executed: 5,
                    })
                    .collect(),
                user_counters: HashMap::new(),
                uptime_us: 1_000,
                tasks_preempted: 0,
                tasks_runaway: self.runaway.load(Ordering::SeqCst),
                overbudget_cpu_us: 0,
            })
        }
        fn command(&self, cmd: ThreadCommand) -> crate::Result<()> {
            if self.dead.load(Ordering::SeqCst) {
                return Err(AgentError::Disconnected {
                    runtime: self.name.clone(),
                });
            }
            if let Some(gate) = &self.command_gate {
                let _ = gate.lock().recv_timeout(Duration::from_secs(10));
            }
            self.commands.lock().push(cmd);
            Ok(())
        }
    }

    #[test]
    fn sustained_runaways_degrade_and_contain_toward_fair_share() {
        let runaway = Arc::new(AtomicU64::new(0));
        let cmds = Arc::new(Mutex::new(Vec::new()));
        let offender = RunawayFake {
            name: "hog".to_string(),
            dead: Arc::default(),
            runaway: Arc::clone(&runaway),
            running: vec![2, 2],
            commands: Arc::clone(&cmds),
            command_gate: None,
        };
        let (peer, _, _, peer_cmds) = Fake::new("peer");
        let mut agent = Agent::new(Box::new(Silent));
        agent.set_supervision(fast_supervision());
        agent.set_reclaim_machine(tiny());
        agent.manage(Box::new(offender));
        agent.manage(Box::new(peer));

        // No runaways: nothing happens.
        agent.tick().unwrap();
        assert!(cmds.lock().is_empty());

        // The watchdog counter climbs two ticks in a row: containment
        // fires. Fair share of tiny() (2 nodes x 2 cores) between 2
        // tenants is [1, 1]; the offender runs [2, 2] and is clamped to it.
        runaway.fetch_add(1, Ordering::SeqCst);
        agent.tick().unwrap();
        assert!(cmds.lock().is_empty(), "one climbing tick is not enough");
        runaway.fetch_add(1, Ordering::SeqCst);
        agent.tick().unwrap();
        assert_eq!(
            cmds.lock().clone(),
            vec![ThreadCommand::PerNode(vec![1, 1])],
            "containment shrinks the offender"
        );
        assert!(
            peer_cmds.lock().is_empty(),
            "the innocent tenant is untouched"
        );
        assert!(
            agent
                .health()
                .iter()
                .any(|(n, h)| n == "hog" && *h == Health::Degraded),
            "the offender is degraded: {:?}",
            agent.health()
        );
        // Degraded is not quarantined: the offender stays in the live set.
        assert!(agent.evicted().is_empty());

        let hub = agent.hub();
        assert_eq!(
            hub.registry()
                .counter_total("coop_agent_containments_total"),
            1
        );
        assert!(hub
            .events()
            .iter()
            .any(|e| e.cat == "health" && e.name == "contained"));
        let log = agent.log();
        let contained = log
            .decisions
            .iter()
            .find(|d| d.runtime == "hog")
            .expect("containment recorded as a decision");
        assert!(contained.provenance.is_none(), "containment is reactive");

        // Quiet ticks end containment (the wedged task returned): the
        // Degraded floor lifts and the next successful poll recovers.
        agent.tick().unwrap();
        agent.tick().unwrap();
        assert_eq!(cmds.lock().len(), 1, "no further shrinking while quiet");
        assert!(
            agent
                .health()
                .iter()
                .any(|(n, h)| n == "hog" && *h == Health::Healthy),
            "recovered after the runaways stopped: {:?}",
            agent.health()
        );
    }

    /// Three tenants on the paper's 4 x 8 machine, the offender busy on
    /// every core: the first sustained tick clamps it straight to its fair
    /// row, freeing 21 of its 32 cores, and every later climbing tick sends
    /// the same clamp again.
    #[test]
    fn an_offender_on_every_core_is_contained_in_one_step() {
        let runaway = Arc::new(AtomicU64::new(0));
        let cmds = CommandLog::default();
        let mut agent = Agent::new(Box::new(Silent));
        agent.set_supervision(fast_supervision());
        agent.set_reclaim_machine(numa_topology::presets::paper_model_machine());
        agent.manage(Box::new(RunawayFake {
            name: "hog".to_string(),
            dead: Arc::default(),
            runaway: Arc::clone(&runaway),
            running: vec![8; 4],
            commands: Arc::clone(&cmds),
            command_gate: None,
        }));
        for name in ["peer1", "peer2"] {
            agent.manage(Box::new(Fake::new(name).0));
        }
        agent.tick().unwrap();
        for _ in 0..4 {
            runaway.fetch_add(1, Ordering::SeqCst);
            agent.tick().unwrap();
        }
        // The first of three tenants' fair row: 8 cores per node leave a
        // remainder of 2, handed out round the tenants across the nodes.
        assert_eq!(
            *cmds.lock(),
            vec![ThreadCommand::PerNode(vec![3, 3, 2, 3]); 3],
            "contained at the 2nd, 3rd and 4th climbing tick"
        );
    }

    #[test]
    fn a_contained_runtime_that_is_evicted_comes_back() {
        use coop_telemetry::TenantLedger;
        let hub = Arc::new(TelemetryHub::new());
        let ledger = Arc::new(TenantLedger::new());
        assert!(hub.install_tenant_ledger(Arc::clone(&ledger)));
        let runaway = Arc::new(AtomicU64::new(0));
        let dead = Arc::new(AtomicBool::new(false));
        let (peer, _, _, _) = Fake::new("peer");
        let mut agent = Agent::with_telemetry(Box::new(Silent), Arc::clone(&hub));
        agent.set_supervision(fast_supervision());
        agent.set_reclaim_machine(tiny());
        agent.manage(Box::new(RunawayFake {
            name: "hog".to_string(),
            dead: Arc::clone(&dead),
            runaway: Arc::clone(&runaway),
            running: vec![2, 2],
            commands: CommandLog::default(),
            command_gate: None,
        }));
        agent.manage(Box::new(peer));
        let health_of_hog = |agent: &Agent| agent.health()[0].1;
        let containments = || {
            hub.registry()
                .counter_total("coop_agent_containments_total")
        };

        // Two climbing ticks contain the hog, Degraded by force.
        agent.tick().unwrap();
        for _ in 0..2 {
            runaway.fetch_add(1, Ordering::SeqCst);
            agent.tick().unwrap();
        }
        assert_eq!(containments(), 1);
        assert_eq!(health_of_hog(&agent), Health::Degraded);
        let contained = |agent: &Agent| agent.tenancy().caps().map(|(i, _)| i).collect::<Vec<_>>();
        assert_eq!(contained(&agent), [0]);

        // It dies while contained: three failing polls evict it, and the
        // eviction ends its containment.
        dead.store(true, Ordering::SeqCst);
        for _ in 0..4 {
            agent.tick().unwrap();
        }
        assert_eq!(agent.evicted(), vec!["hog".to_string()]);
        assert_eq!(health_of_hog(&agent), Health::Dead);
        assert!(contained(&agent).is_empty());

        // Revived: recovery_successes = 2 probes climb to Healthy — not
        // held at Degraded by the floor — and the second re-admits it.
        dead.store(false, Ordering::SeqCst);
        agent.tick().unwrap();
        assert_eq!(agent.evicted(), vec!["hog".to_string()], "one probe");
        agent.tick().unwrap();
        assert!(agent.evicted().is_empty(), "{:?}", agent.health());
        assert_eq!(health_of_hog(&agent), Health::Healthy);
        assert_eq!(
            hub.registry().counter_total("coop_agent_recoveries_total"),
            1
        );
        let snap = ledger.snapshot();
        let epochs = &snap.tenant("hog").unwrap().epochs;
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs.last().unwrap().reason, "readmitted");

        // Back in the live set with its watchdog counter where it was: no
        // fresh evidence, so no further containment.
        agent.tick().unwrap();
        assert!(contained(&agent).is_empty());
        assert_eq!(containments(), 1);
        assert_eq!(health_of_hog(&agent), Health::Healthy);
    }

    #[test]
    fn two_contained_runtimes_that_hang_cost_one_deadline() {
        // Never quarantined: the calls that fail fast behind the hung
        // commands must not evict anybody before the release is noticed.
        let mut supervision = fast_supervision();
        supervision.detector.suspected_after = u32::MAX - 1;
        supervision.detector.dead_after = u32::MAX;
        let deadline = supervision.detector.call_deadline;
        let mut agent = Agent::new(Box::new(Silent));
        agent.set_supervision(supervision);
        agent.set_reclaim_machine(tiny());
        // Two offenders whose command() hangs until `release` is dropped.
        let runaway = Arc::new(AtomicU64::new(0));
        let mut release = Vec::new();
        let logs: Vec<CommandLog> = ["hog0", "hog1"]
            .iter()
            .map(|name| {
                let (tx, rx) = std::sync::mpsc::channel();
                release.push(tx);
                let commands = CommandLog::default();
                agent.manage(Box::new(RunawayFake {
                    name: name.to_string(),
                    dead: Arc::default(),
                    runaway: Arc::clone(&runaway),
                    running: vec![2, 2],
                    commands: Arc::clone(&commands),
                    command_gate: Some(Mutex::new(rx)),
                }));
                commands
            })
            .collect();

        // Two climbing ticks are the evidence; the second sends both their
        // containment command, and both hang in it.
        agent.tick().unwrap();
        runaway.fetch_add(1, Ordering::SeqCst);
        agent.tick().unwrap();
        runaway.fetch_add(1, Ordering::SeqCst);
        let started = Instant::now();
        agent.tick().unwrap();
        let elapsed = started.elapsed();
        assert!(elapsed >= deadline, "the commands ran into their deadline");
        assert!(
            elapsed < 2 * deadline,
            "two hung containment commands must cost one deadline, not two: {elapsed:?}"
        );
        // Neither went through: two errors in registry order, no decision,
        // no containment counted.
        let log = agent.log();
        assert_eq!(log.errors.len(), 2, "{:?}", log.errors);
        assert!(log.errors[0].contains("hog0") && log.errors[1].contains("hog1"));
        assert!(log.decisions.is_empty());
        let hub = agent.hub();
        let containments = || {
            hub.registry()
                .counter_total("coop_agent_containments_total")
        };
        assert_eq!(containments(), 0);

        // Released, the hung commands land late and the runtimes work their
        // way back; still climbing, each is sent its containment command
        // again, and this time it counts.
        drop(release);
        let contained = |name: &str| {
            hub.events().iter().any(|e| {
                e.cat == "health"
                    && e.name == "contained"
                    && e.args
                        .iter()
                        .any(|(k, v)| k == "runtime" && *v == ArgValue::Str(name.into()))
            })
        };
        let give_up = Instant::now() + Duration::from_secs(10);
        while !(contained("hog0") && contained("hog1")) {
            assert!(Instant::now() < give_up, "health: {:?}", agent.health());
            runaway.fetch_add(1, Ordering::SeqCst);
            agent.tick().unwrap();
        }
        assert!(containments() >= 2);
        assert!(logs.iter().all(|commands| !commands.lock().is_empty()));
    }

    #[test]
    fn a_policy_command_and_a_containment_that_hang_cost_one_deadline() {
        /// Commands the first runtime it is shown on tick 2.
        struct CommandsFirstOnTick2;
        impl Policy for CommandsFirstOnTick2 {
            fn tick(&mut self, stats: &[RuntimeStats], tick: u64) -> Vec<Option<ThreadCommand>> {
                let mut out = vec![None; stats.len()];
                if tick == 2 {
                    out[0] = Some(ThreadCommand::PerNode(vec![1, 0]));
                }
                out
            }
        }
        let mut supervision = fast_supervision();
        supervision.detector.suspected_after = u32::MAX - 1;
        supervision.detector.dead_after = u32::MAX;
        let deadline = supervision.detector.call_deadline;
        let mut agent = Agent::new(Box::new(CommandsFirstOnTick2));
        agent.set_supervision(supervision);
        agent.set_reclaim_machine(tiny());
        // "calm" is only commanded by the policy; "hog" climbs to
        // containment. Both hang in command() until `release` is dropped.
        let hog_runaway = Arc::new(AtomicU64::new(0));
        let mut release = Vec::new();
        for (name, runaway) in [("calm", Arc::default()), ("hog", Arc::clone(&hog_runaway))] {
            let (tx, rx) = std::sync::mpsc::channel();
            release.push(tx);
            agent.manage(Box::new(RunawayFake {
                name: name.to_string(),
                dead: Arc::default(),
                runaway,
                running: vec![1, 1],
                commands: CommandLog::default(),
                command_gate: Some(Mutex::new(rx)),
            }));
        }

        agent.tick().unwrap();
        hog_runaway.fetch_add(1, Ordering::SeqCst);
        agent.tick().unwrap();
        hog_runaway.fetch_add(1, Ordering::SeqCst);
        // Tick 2: the policy commands "calm" and "hog" is contained, in one
        // scatter.
        let started = Instant::now();
        agent.tick().unwrap();
        let elapsed = started.elapsed();
        assert!(elapsed >= deadline, "the commands ran into their deadline");
        assert!(
            elapsed < 2 * deadline,
            "a hung policy command and a hung containment must cost one deadline, not two: {elapsed:?}"
        );
        let errors = agent.log().errors;
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("calm") && errors[1].contains("hog"));
        drop(release);
    }

    #[test]
    fn entitled_share_of_commands() {
        // tiny() is 2 nodes x 2 cores = 4 cores; the ledger's share is the
        // grant over them.
        assert_eq!(granted_threads(&ThreadCommand::TotalThreads(2), 4), 2);
        assert_eq!(granted_threads(&ThreadCommand::PerNode(vec![1, 1]), 4), 2);
        assert_eq!(granted_threads(&ThreadCommand::Unrestricted, 4), 4);
        assert_eq!(granted_threads(&ThreadCommand::TotalThreads(9), 4), 4);
        assert_eq!(granted_threads(&ThreadCommand::TotalThreads(1), 0), 0);
    }

    #[test]
    fn counter_regression_discards_window_and_announces() {
        struct Predicting;
        impl Policy for Predicting {
            fn tick(&mut self, stats: &[RuntimeStats], tick: u64) -> Vec<Option<ThreadCommand>> {
                if tick == 0 {
                    vec![Some(ThreadCommand::TotalThreads(1)); stats.len()]
                } else {
                    vec![None; stats.len()]
                }
            }
            fn prediction(&self) -> Option<Prediction> {
                Some(Prediction {
                    inputs: vec![],
                    assignment: "r:[1]".into(),
                    series: vec![SeriesValue::new("app/r/gflops", 2.0)],
                })
            }
        }
        let (r, _, executed, _) = Fake::new("r");
        let mut agent = Agent::new(Box::new(Predicting));
        agent.set_supervision(fast_supervision());
        agent.manage(Box::new(r));
        agent.tick().unwrap(); // opens a decision, baseline = 100
        executed.store(40, Ordering::SeqCst); // the counter runs backwards
        agent.tick().unwrap(); // closes the decision

        let records = agent.telemetry.observatory.records();
        assert_eq!(records.len(), 1);
        assert!(records[0].is_closed());
        assert!(
            records[0].residuals().is_empty(),
            "a regressed window must not produce residuals"
        );
        let hub = agent.hub();
        assert_eq!(
            hub.registry()
                .counter_total("coop_agent_counter_regressions_total"),
            1
        );
        assert!(hub
            .events()
            .iter()
            .any(|e| e.cat == "health" && e.name == "counter_regression"));
    }

    #[test]
    fn decisions_land_on_shared_timeline() {
        let hub = Arc::new(TelemetryHub::new());
        let rt = Arc::new(
            Runtime::start(RuntimeConfig::new("shared", tiny()).with_telemetry(Arc::clone(&hub)))
                .unwrap(),
        );
        let mut agent =
            Agent::with_telemetry(Box::new(Scripted { issued: false }), Arc::clone(&hub));
        agent.manage(Box::new(Arc::clone(&rt)));
        for _ in 0..3 {
            agent.tick().unwrap();
        }
        assert_eq!(agent.log().decisions.len(), 1);
        let events = hub.events();
        let decision = events
            .iter()
            .find(|e| e.cat == "agent")
            .expect("decision instant on the shared timeline");
        assert!(decision.name.contains("TotalThreads"));
        assert_eq!(
            hub.registry().counter_total("coop_agent_decisions_total"),
            1
        );
        assert!(
            hub.registry().counter_total("coop_agent_ticks_total") >= 3,
            "ticks counted in the shared registry"
        );
        rt.shutdown();
    }

    #[test]
    fn model_driven_decisions_carry_provenance() {
        /// Issues one command on tick 0 and always exposes a prediction.
        struct Predicting;
        impl Policy for Predicting {
            fn tick(&mut self, stats: &[RuntimeStats], tick: u64) -> Vec<Option<ThreadCommand>> {
                if tick == 0 {
                    vec![Some(ThreadCommand::TotalThreads(1)); stats.len()]
                } else {
                    vec![None; stats.len()]
                }
            }
            fn prediction(&self) -> Option<Prediction> {
                Some(Prediction {
                    inputs: vec![("ai/prov".into(), 0.5)],
                    assignment: "prov:[1]".into(),
                    series: vec![SeriesValue::new("app/prov/gflops", 2.0)],
                })
            }
        }
        let hub = Arc::new(TelemetryHub::new());
        let rt = Arc::new(
            Runtime::start(RuntimeConfig::new("prov", tiny()).with_telemetry(Arc::clone(&hub)))
                .unwrap(),
        );
        let mut agent = Agent::with_telemetry(Box::new(Predicting), Arc::clone(&hub));
        agent.manage(Box::new(Arc::clone(&rt)));
        agent.tick().unwrap();

        let log = agent.log();
        assert_eq!(log.decisions.len(), 1);
        let id = log.decisions[0]
            .provenance
            .expect("model-driven decision must reference a provenance record");
        let observatory = Arc::clone(&agent.telemetry.observatory);
        let records = observatory.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].id, id);
        assert!(!records[0].is_closed(), "open until the next tick");
        assert_eq!(records[0].prediction.value("app/prov/gflops"), Some(2.0));
        // The predicted throughput share was derived from the gflops
        // series (a single runtime owns the whole share).
        assert_eq!(
            records[0].prediction.value("share/prov/throughput"),
            Some(1.0)
        );

        // The next tick back-fills the record.
        agent.tick().unwrap();
        let records = observatory.records();
        assert!(records[0].is_closed(), "closed on the following tick");

        // The decision's provenance instant landed on the shared timeline.
        assert!(hub.events().iter().any(|e| e.cat == "provenance"));
        rt.shutdown();
    }

    #[test]
    fn reactive_decisions_have_no_provenance() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("y", tiny())).unwrap());
        let mut agent = Agent::new(Box::new(Scripted { issued: false }));
        agent.manage(Box::new(Arc::clone(&rt)));
        for _ in 0..4 {
            agent.tick().unwrap();
        }
        let log = agent.log();
        assert_eq!(log.decisions.len(), 1);
        assert!(log.decisions[0].provenance.is_none());
        assert!(agent.telemetry.observatory.ledger().is_empty());
        rt.shutdown();
    }

    #[test]
    fn background_agent_stops_cleanly() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("bg", tiny())).unwrap());
        let mut agent = Agent::new(Box::new(Scripted { issued: false }));
        agent.manage(Box::new(Arc::clone(&rt)));
        let handle = agent.spawn(Duration::from_millis(1)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let log = handle.stop();
        assert!(log.ticks >= 3);
        assert_eq!(log.decisions.len(), 1);
        rt.shutdown();
    }

    /// The tick's scatter–gather phases (see [`crate::supervise`]): one
    /// deadline however many runtimes hang, registry order whatever the
    /// reply order, retry rounds, and the same log on every run.
    mod scatter_gather {
        use super::*;

        /// Commands one thread to every runtime it is shown and keeps the
        /// names it was shown, tick by tick.
        struct Recording {
            seen: Arc<Mutex<Vec<Vec<String>>>>,
        }

        impl Policy for Recording {
            fn tick(&mut self, stats: &[RuntimeStats], _t: u64) -> Vec<Option<ThreadCommand>> {
                self.seen
                    .lock()
                    .push(stats.iter().map(|s| s.name.clone()).collect());
                vec![Some(ThreadCommand::TotalThreads(1)); stats.len()]
            }
        }

        /// A [`Fake`] whose `stats()` first waits for a message on `wait_for`
        /// (or for its sender to be dropped) and, once it has its answer,
        /// sends one on `notify`: tests use it to hang a runtime until they
        /// release it, or to make one runtime answer only after another has.
        struct Gated {
            inner: Fake,
            wait_for: Option<Mutex<std::sync::mpsc::Receiver<()>>>,
            notify: Option<std::sync::mpsc::Sender<()>>,
        }

        impl RuntimeHandle for Gated {
            fn name(&self) -> String {
                self.inner.name()
            }
            fn stats(&self) -> crate::Result<RuntimeStats> {
                if let Some(gate) = &self.wait_for {
                    let _ = gate.lock().recv_timeout(Duration::from_secs(10));
                }
                let stats = self.inner.stats();
                if let Some(notify) = &self.notify {
                    let _ = notify.send(());
                }
                stats
            }
            fn command(&self, cmd: ThreadCommand) -> crate::Result<()> {
                self.inner.command(cmd)
            }
        }

        #[test]
        fn tick_with_three_hung_runtimes_costs_one_deadline() {
            let deadline = fast_supervision().detector.call_deadline;
            let seen = Arc::new(Mutex::new(Vec::new()));
            let mut agent = Agent::new(Box::new(Recording {
                seen: Arc::clone(&seen),
            }));
            agent.set_supervision(fast_supervision());
            // Three runtimes hang inside stats() until `release` is dropped;
            // the healthy one sits between them in the registry.
            let mut release = Vec::new();
            let mut ok_commands = None;
            for name in ["hung0", "ok", "hung1", "hung2"] {
                let (fake, _, _, commands) = Fake::new(name);
                if name == "ok" {
                    ok_commands = Some(commands);
                    agent.manage(Box::new(fake));
                } else {
                    let (tx, rx) = std::sync::mpsc::channel();
                    release.push(tx);
                    agent.manage(Box::new(Gated {
                        inner: fake,
                        wait_for: Some(Mutex::new(rx)),
                        notify: None,
                    }));
                }
            }
            let ok_commands = ok_commands.expect("the healthy runtime was registered");

            // The three deadlines run side by side: the tick waits for one.
            let started = Instant::now();
            agent.tick().unwrap();
            let first = started.elapsed();
            assert!(first >= deadline, "the hung polls ran into their deadline");
            assert!(
                first < 2 * deadline,
                "three hung runtimes must cost one deadline, not three: {first:?}"
            );
            // The healthy runtime was polled, shown to the policy and
            // commanded in that same tick.
            assert_eq!(seen.lock().as_slice(), &[vec!["ok".to_string()]]);
            assert_eq!(
                ok_commands.lock().as_slice(),
                &[ThreadCommand::TotalThreads(1)]
            );
            assert_eq!(agent.log().errors.len(), 3);

            // The runners are still inside the hung calls: the next tick
            // fails those three at once instead of waiting again.
            let started = Instant::now();
            agent.tick().unwrap();
            let second = started.elapsed();
            assert!(
                second < deadline / 2,
                "calls behind a hung one must fail fast: {second:?}"
            );
            let log = agent.log();
            assert_eq!(log.errors.len(), 6);
            assert!(log.errors.iter().all(|e| e.contains("call deadline")));
            assert_eq!(ok_commands.lock().len(), 2);

            // Released, the runtimes answer again: the stale replies are
            // dropped and everyone works their way back to Healthy.
            drop(release);
            let recovered = (0..400).any(|_| {
                std::thread::sleep(Duration::from_millis(5));
                agent.tick().unwrap();
                agent.evicted().is_empty()
                    && agent.health().iter().all(|(_, h)| *h == Health::Healthy)
            });
            assert!(recovered, "health after release: {:?}", agent.health());
        }

        #[test]
        fn gather_is_registry_order_whatever_the_reply_order() {
            // "late" (registry index 0) answers a poll only after "early"
            // (index 1) has answered its own — which can only happen when
            // both were asked before either was waited for.
            let (tx, rx) = std::sync::mpsc::channel();
            let (late, late_dead, _, _) = Fake::new("late");
            let (early, early_dead, _, _) = Fake::new("early");
            let hub = Arc::new(TelemetryHub::new());
            let seen = Arc::new(Mutex::new(Vec::new()));
            let mut agent = Agent::with_telemetry(
                Box::new(Recording {
                    seen: Arc::clone(&seen),
                }),
                Arc::clone(&hub),
            );
            agent.set_supervision(fast_supervision());
            agent.manage(Box::new(Gated {
                inner: late,
                wait_for: Some(Mutex::new(rx)),
                notify: None,
            }));
            agent.manage(Box::new(Gated {
                inner: early,
                wait_for: None,
                notify: Some(tx),
            }));

            agent.tick().unwrap();
            let order = vec!["late".to_string(), "early".to_string()];
            assert!(agent.log().errors.is_empty(), "{:?}", agent.log().errors);
            assert_eq!(seen.lock().as_slice(), std::slice::from_ref(&order));
            let decided: Vec<String> = agent
                .log()
                .decisions
                .iter()
                .map(|d| d.runtime.clone())
                .collect();
            assert_eq!(decided, order);

            // Both fail the next poll, "early" first again: the health
            // transitions and the errors still come out in registry order.
            late_dead.store(true, Ordering::SeqCst);
            early_dead.store(true, Ordering::SeqCst);
            agent.tick().unwrap();
            let runtime_of = |e: &coop_telemetry::TimelineEvent| {
                e.args.iter().find_map(|(k, v)| match v {
                    ArgValue::Str(name) if k == "runtime" => Some(name.clone()),
                    _ => None,
                })
            };
            let events = hub.events();
            let degraded: Vec<String> = events
                .iter()
                .filter(|e| e.cat == "health" && e.name == "degraded")
                .filter_map(runtime_of)
                .collect();
            assert_eq!(degraded, order);
            let commanded: Vec<String> = events
                .iter()
                .filter(|e| e.cat == "agent" && e.name != "error")
                .filter_map(runtime_of)
                .collect();
            assert_eq!(commanded, order);
            let errors = agent.log().errors;
            assert_eq!(errors.len(), 2);
            assert!(errors[0].contains("late") && errors[1].contains("early"));
        }

        #[test]
        fn retry_round_recovers_every_transient_failure_together() {
            /// Fails its first `stats()` in transport, then behaves.
            struct Flaky {
                inner: Fake,
                failed: AtomicBool,
            }
            impl RuntimeHandle for Flaky {
                fn name(&self) -> String {
                    self.inner.name()
                }
                fn stats(&self) -> crate::Result<RuntimeStats> {
                    if !self.failed.swap(true, Ordering::SeqCst) {
                        return Err(AgentError::Disconnected {
                            runtime: self.inner.name(),
                        });
                    }
                    self.inner.stats()
                }
                fn command(&self, cmd: ThreadCommand) -> crate::Result<()> {
                    self.inner.command(cmd)
                }
            }

            let backoff = Duration::from_millis(100);
            let mut supervision = fast_supervision();
            supervision.backoff.max_retries = 1;
            supervision.backoff.base_delay = backoff;
            supervision.backoff.max_delay = backoff;
            supervision.backoff.jitter = 0.0;
            let seen = Arc::new(Mutex::new(Vec::new()));
            let mut agent = Agent::new(Box::new(Recording {
                seen: Arc::clone(&seen),
            }));
            agent.set_supervision(supervision);
            for name in ["a", "b"] {
                agent.manage(Box::new(Flaky {
                    inner: Fake::new(name).0,
                    failed: AtomicBool::new(false),
                }));
            }

            let started = Instant::now();
            agent.tick().unwrap();
            let elapsed = started.elapsed();
            // Both recovered in round 2 of the same poll, in time to be
            // shown to the policy.
            assert!(agent.log().errors.is_empty(), "{:?}", agent.log().errors);
            assert_eq!(
                seen.lock().as_slice(),
                &[vec!["a".to_string(), "b".to_string()]]
            );
            let hub = agent.hub();
            for name in ["a", "b"] {
                assert_eq!(
                    hub.registry()
                        .counter("coop_agent_retries_total", &[("runtime", name)])
                        .get(),
                    1
                );
            }
            assert!(elapsed >= backoff, "the retry round waited its backoff");
            assert!(
                elapsed < 2 * backoff,
                "two runtimes retrying together sleep one backoff, not two: {elapsed:?}"
            );
        }

        #[test]
        fn scattered_episode_is_deterministic() {
            /// Commands every runtime shown to as many threads as it is
            /// shown runtimes, so the decisions follow the live set.
            struct Census;
            impl Policy for Census {
                fn tick(&mut self, stats: &[RuntimeStats], _t: u64) -> Vec<Option<ThreadCommand>> {
                    vec![Some(ThreadCommand::TotalThreads(stats.len())); stats.len()]
                }
            }

            fn episode() -> (AgentLog, u64, u64) {
                let mut agent = Agent::new(Box::new(Census));
                agent.set_supervision(fast_supervision());
                agent.set_reclaim_machine(tiny());
                let switches: Vec<Arc<AtomicBool>> = (0..8)
                    .map(|i| {
                        let (fake, dead, _, _) = Fake::new(&format!("rt{i}"));
                        agent.manage(Box::new(fake));
                        dead
                    })
                    .collect();
                // The script: every third tick one seeded runtime flips
                // between dead and alive.
                let mut rng = 0x2545f4914f6cdd1du64;
                for tick in 0..200 {
                    if tick % 3 == 0 {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        switches[(rng % 8) as usize].fetch_xor(true, Ordering::SeqCst);
                    }
                    agent.tick().unwrap();
                }
                let registry_total = |name| agent.hub().registry().counter_total(name);
                (
                    agent.log(),
                    registry_total("coop_agent_evictions_total"),
                    registry_total("coop_agent_recoveries_total"),
                )
            }

            let (log, evictions, readmissions) = episode();
            assert_eq!(log.ticks, 200);
            assert!(evictions > 0 && readmissions > 0, "the script must bite");
            let (again, evictions_again, readmissions_again) = episode();
            assert_eq!(log.decisions, again.decisions);
            assert_eq!(log.errors, again.errors);
            assert_eq!(log.ticks, again.ticks);
            assert_eq!(
                (evictions, readmissions),
                (evictions_again, readmissions_again)
            );
        }

        #[test]
        fn rejected_command_in_the_scatter_is_alive_and_not_retried() {
            /// Answers polls, refuses every command, counts the refusals.
            struct Refusing {
                inner: Fake,
                refused: Arc<AtomicU64>,
            }
            impl RuntimeHandle for Refusing {
                fn name(&self) -> String {
                    self.inner.name()
                }
                fn stats(&self) -> crate::Result<RuntimeStats> {
                    self.inner.stats()
                }
                fn command(&self, _cmd: ThreadCommand) -> crate::Result<()> {
                    self.refused.fetch_add(1, Ordering::SeqCst);
                    Err(AgentError::Command {
                        runtime: self.inner.name(),
                        reason: "no".into(),
                    })
                }
            }

            let mut supervision = fast_supervision();
            supervision.backoff.max_retries = 2;
            let mut agent = Agent::new(Box::new(Recording {
                seen: Arc::new(Mutex::new(Vec::new())),
            }));
            agent.set_supervision(supervision);
            let refused = Arc::new(AtomicU64::new(0));
            agent.manage(Box::new(Refusing {
                inner: Fake::new("stubborn").0,
                refused: Arc::clone(&refused),
            }));
            let (willing, _, _, willing_commands) = Fake::new("willing");
            agent.manage(Box::new(willing));

            agent.tick().unwrap();
            assert_eq!(
                refused.load(Ordering::SeqCst),
                1,
                "a rejection is an answer: retrying it cannot help"
            );
            let log = agent.log();
            assert_eq!(log.errors.len(), 1);
            assert!(log.errors[0].contains("stubborn"), "{:?}", log.errors);
            // The rejection proved liveness, and did not hold up the other
            // command of the same scatter.
            assert!(agent.health().iter().all(|(_, h)| *h == Health::Healthy));
            assert_eq!(
                agent
                    .hub()
                    .registry()
                    .counter_total("coop_agent_retries_total"),
                0
            );
            assert_eq!(willing_commands.lock().len(), 1);
            assert_eq!(log.decisions.len(), 1);
            assert_eq!(log.decisions[0].runtime, "willing");
        }
    }
}
