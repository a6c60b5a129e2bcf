//! `ctl_chaos`: the real `coop_agent::Agent` with the `ModelGuided` policy
//! over eight benchmark-owned stub runtimes, under a seeded kill/revive
//! schedule. One op is one `Agent::tick`, timed singly.
//!
//! The stub *plant* stands in for eight running applications: after every
//! tick it asks the roofline model what the commanded threads deliver and
//! advances each stub's task counters by that much, so the agent sees a
//! coherent world. A killed stub fails its calls at once with a transport
//! error, which walks it down the agent's health ladder.

use super::{replay_solves, search_oracle, Meter, Workload};
use crate::gen::Rng;
use crate::trace::{SpanId, Tracer};
use coop_agent::policies::ModelGuided;
use coop_agent::{
    Agent, AgentError, Policy, RuntimeHandle, RuntimeStats, SupervisionConfig, ThreadCommand,
};
use coop_alloc::search::{GreedySearch, HillClimb};
use coop_alloc::{CacheStats, SearchCounters};
use coop_runtime::NodeOccupancy;
use coop_telemetry::{TelemetryHub, TenantLedger};
use numa_topology::{Machine, NodeId};
use roofline_numa::{solve, solve_gflops, AppSpec, SolveOptions, SolveScratch, ThreadAssignment};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub const STUBS: usize = 8;
/// Simulated seconds per tick: what the plant integrates over.
const TICK_S: f64 = 0.01;
/// `ModelGuided` re-searches every this many ticks (its default), and at
/// once when the live set changes.
const SEARCH_PERIOD: u64 = 10;
/// Survivors are "settled" once delivered GFLOP/s is within this share of
/// the steady state the interval ends in.
const SETTLE_BAND: f64 = 0.05;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Stub state is plain counters, valid at every step.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct StubState {
    alive: bool,
    /// Threads per node from the last `PerNode` command.
    commanded: Vec<usize>,
    tasks_per_node: Vec<u64>,
    uptime_us: u64,
    commands_this_tick: u32,
    commands_while_dead: u32,
}

struct Stub {
    name: String,
    cores_per_node: usize,
    state: Arc<Mutex<StubState>>,
}

impl Stub {
    fn down(&self) -> AgentError {
        AgentError::Disconnected {
            runtime: self.name.clone(),
        }
    }
}

impl RuntimeHandle for Stub {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn stats(&self) -> coop_agent::Result<RuntimeStats> {
        let st = lock(&self.state);
        if !st.alive {
            return Err(self.down());
        }
        let executed: u64 = st.tasks_per_node.iter().sum();
        let running: usize = st.commanded.iter().sum();
        Ok(RuntimeStats {
            name: self.name.clone(),
            tasks_executed: executed,
            tasks_panicked: 0,
            tasks_spawned: executed,
            tasks_ready: 0,
            tasks_pending: 0,
            running_workers: running,
            blocked_workers: self.cores_per_node * st.commanded.len() - running,
            external_threads: 0,
            per_node: st
                .commanded
                .iter()
                .zip(&st.tasks_per_node)
                .enumerate()
                .map(|(n, (&running_workers, &tasks_executed))| NodeOccupancy {
                    node: NodeId(n),
                    running_workers,
                    tasks_executed,
                })
                .collect(),
            user_counters: HashMap::new(),
            uptime_us: st.uptime_us,
            tasks_preempted: 0,
            tasks_runaway: 0,
            overbudget_cpu_us: 0,
        })
    }

    fn command(&self, cmd: ThreadCommand) -> coop_agent::Result<()> {
        let mut st = lock(&self.state);
        if !st.alive {
            st.commands_while_dead += 1;
            return Err(self.down());
        }
        st.commands_this_tick += 1;
        match cmd {
            ThreadCommand::PerNode(targets) if targets.len() == st.commanded.len() => {
                st.commanded = targets;
                Ok(())
            }
            other => Err(AgentError::Command {
                runtime: self.name.clone(),
                reason: format!("the stub plant only takes per-node commands, got {other:?}"),
            }),
        }
    }
}

/// One search the policy ran, as the replay needs it.
#[derive(Debug, Clone)]
pub struct SearchRecord {
    pub tick: u64,
    pub names: Vec<String>,
    /// The incumbent a warm re-search started from; `None` for a cold one.
    pub warm_from: Option<ThreadAssignment>,
    pub counters: SearchCounters,
}

#[derive(Debug, Default)]
pub struct PolicyLog {
    pub searches: Vec<SearchRecord>,
    pub cache: Option<CacheStats>,
}

/// `ModelGuided`, observed: the agent owns its policy, so the search
/// counters the policy exposes are copied out here after every tick.
struct Observed {
    inner: ModelGuided,
    last_names: Option<Vec<String>>,
    log: Arc<Mutex<PolicyLog>>,
}

impl Policy for Observed {
    fn tick(&mut self, stats: &[RuntimeStats], tick: u64) -> Vec<Option<ThreadCommand>> {
        let names: Vec<String> = stats.iter().map(|s| s.name.clone()).collect();
        // Mirrors the policy's own trigger: a changed live set, or the period.
        let set_changed = self.last_names.as_ref() != Some(&names);
        let searches = !names.is_empty() && (set_changed || tick.is_multiple_of(SEARCH_PERIOD));
        let warm_from = (searches && !set_changed)
            .then(|| self.inner.last_assignment().cloned())
            .flatten();
        let out = self.inner.tick(stats, tick);
        if searches {
            let mut log = lock(&self.log);
            log.searches.push(SearchRecord {
                tick,
                names: names.clone(),
                warm_from,
                counters: self.inner.last_search_counters(),
            });
            log.cache = self.inner.cache_stats();
            self.last_names = Some(names);
        }
        out
    }

    fn prediction(&self) -> Option<coop_telemetry::Prediction> {
        self.inner.prediction()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    Kill,
    Revive,
}

#[derive(Debug, Clone, Copy)]
pub struct Edge {
    pub tick: u64,
    pub stub: usize,
    pub kind: EdgeKind,
}

/// Ticks between two edges. Fixed, so that every episode holds the same
/// number of live-set changes and its cost depends on the seed as little as
/// possible; not a multiple of the search period, so edges drift across it.
const EDGE_GAP: u64 = 12;

/// Seeded kill/revive schedule: which stub, and whether a stub dies or one
/// returns, are drawn; never more than three stubs are down at once.
pub fn schedule(rng: &mut Rng, ticks: u64) -> Vec<Edge> {
    let mut alive = [true; STUBS];
    let mut edges = Vec::new();
    let mut tick = EDGE_GAP;
    while tick + EDGE_GAP <= ticks {
        let down: Vec<usize> = (0..STUBS).filter(|&i| !alive[i]).collect();
        let up: Vec<usize> = (0..STUBS).filter(|&i| alive[i]).collect();
        let kill = down.is_empty() || (down.len() < 3 && rng.chance(0.55));
        let (pool, kind) = if kill {
            (&up, EdgeKind::Kill)
        } else {
            (&down, EdgeKind::Revive)
        };
        let stub = pool[rng.range(0, pool.len())];
        alive[stub] = kind == EdgeKind::Revive;
        edges.push(Edge { tick, stub, kind });
        tick += EDGE_GAP;
    }
    edges
}

/// Everything one episode produced that the checks, the quality metrics
/// and the replay need.
pub struct Episode {
    pub specs: Vec<AppSpec>,
    pub edges: Vec<Edge>,
    /// Delivered GFLOP/s (all alive stubs) after each tick.
    pub delivered: Vec<f64>,
    /// Which stubs were alive during each tick.
    pub alive: Vec<Vec<bool>>,
    /// Whether some survivor's commanded threads rose during each tick.
    pub raised: Vec<bool>,
    pub violations: u64,
    pub tick_us: Vec<f64>,
    pub tick_spans: Vec<Option<SpanId>>,
    pub policy: PolicyLog,
    pub commands_issued: u64,
    pub poll_errors: u64,
    pub evictions: u64,
    pub readmissions: u64,
}

pub struct CtlChaos {
    seed: u64,
    ticks: u64,
    machine: Machine,
}

impl CtlChaos {
    pub fn new(seed: u64, smoke: bool) -> Self {
        CtlChaos {
            seed,
            ticks: if smoke { 60 } else { 240 },
            machine: numa_topology::presets::paper_model_machine(),
        }
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Eight NUMA-local applications, arithmetic intensity log-uniform in
    /// [1/32, 32]: from hopelessly memory-bound to compute-bound.
    pub fn specs(rng: &mut Rng) -> Vec<AppSpec> {
        (0..STUBS)
            .map(|i| AppSpec::numa_local(&format!("app{i}"), rng.log_uniform(1.0 / 32.0, 32.0)))
            .collect()
    }

    /// Round `r`'s episode: seeded application mix and kill/revive schedule.
    pub fn episode(&self, r: u64, tracer: &mut Tracer, root: Option<SpanId>) -> Episode {
        let mut rng = Rng::stream(self.seed, r);
        let specs = Self::specs(&mut rng);
        let edges = schedule(&mut rng, self.ticks);
        run_episode(&self.machine, specs, edges, self.ticks, tracer, root)
    }
}

/// Runs the agent for `ticks` ticks over one stub per spec, applying
/// `edges` between ticks and checking the agent's invariants after each.
pub fn run_episode(
    machine: &Machine,
    specs: Vec<AppSpec>,
    edges: Vec<Edge>,
    ticks: u64,
    tracer: &mut Tracer,
    root: Option<SpanId>,
) -> Episode {
    let nodes = machine.num_nodes();
    let cores_per_node = machine.node(NodeId(0)).num_cores();

    let hub = Arc::new(TelemetryHub::new());
    hub.install_tenant_ledger(Arc::new(TenantLedger::new()));
    let log = Arc::new(Mutex::new(PolicyLog::default()));
    let mut policy = ModelGuided::new(machine.clone(), specs.clone());
    policy.period = SEARCH_PERIOD;
    let mut agent = Agent::with_telemetry(
        Box::new(Observed {
            inner: policy,
            last_names: None,
            log: Arc::clone(&log),
        }),
        Arc::clone(&hub),
    );
    // No retries: a failed call costs the tick compute, not sleep.
    let mut supervision = SupervisionConfig::aggressive(Duration::from_millis(500));
    supervision.backoff.max_retries = 0;
    agent.set_supervision(supervision);
    agent.set_reclaim_machine(machine.clone());
    let states: Vec<Arc<Mutex<StubState>>> = specs
        .iter()
        .map(|spec| {
            let state = Arc::new(Mutex::new(StubState {
                alive: true,
                commanded: vec![0; nodes],
                tasks_per_node: vec![0; nodes],
                ..StubState::default()
            }));
            agent.manage(Box::new(Stub {
                name: spec.name.clone(),
                cores_per_node,
                state: Arc::clone(&state),
            }));
            state
        })
        .collect();

    let mut ep = Episode {
        specs,
        edges,
        delivered: Vec::with_capacity(ticks as usize),
        alive: Vec::with_capacity(ticks as usize),
        raised: Vec::with_capacity(ticks as usize),
        violations: 0,
        tick_us: Vec::with_capacity(ticks as usize),
        tick_spans: Vec::with_capacity(ticks as usize),
        policy: PolicyLog::default(),
        commands_issued: 0,
        poll_errors: 0,
        evictions: 0,
        readmissions: 0,
    };
    let mut next_edge = 0;
    for tick in 0..ticks {
        while next_edge < ep.edges.len() && ep.edges[next_edge].tick == tick {
            let edge = ep.edges[next_edge];
            let mut st = lock(&states[edge.stub]);
            st.alive = edge.kind == EdgeKind::Revive;
            // A restarted runtime comes back parked and with fresh
            // counters, waiting for the agent's first command.
            st.commanded = vec![0; nodes];
            st.tasks_per_node = vec![0; nodes];
            st.uptime_us = 0;
            next_edge += 1;
        }
        let before: Vec<usize> = states
            .iter()
            .map(|s| lock(s).commanded.iter().sum())
            .collect();

        let t = Instant::now();
        let (span, result) = tracer.span("agent", "Agent::tick", root, tick, || agent.tick());
        ep.tick_us.push(t.elapsed().as_secs_f64() * 1e6);
        ep.tick_spans.push(span);
        if result.is_err() {
            ep.violations += 1;
        }

        // Checks: nobody evicted was commanded, and what was commanded
        // fits the machine.
        let evicted = agent.evicted();
        let mut alive = vec![false; states.len()];
        let mut per_node = vec![0usize; nodes];
        let mut raised = false;
        for (i, state) in states.iter().enumerate() {
            let mut st = lock(state);
            alive[i] = st.alive;
            if st.commands_this_tick > 0 && evicted.contains(&ep.specs[i].name) {
                ep.violations += 1;
            }
            ep.violations += u64::from(std::mem::take(&mut st.commands_while_dead));
            st.commands_this_tick = 0;
            if st.alive {
                for (sum, &c) in per_node.iter_mut().zip(&st.commanded) {
                    *sum += c;
                }
                raised |= st.commanded.iter().sum::<usize>() > before[i];
            }
        }
        if per_node.iter().any(|&sum| sum > cores_per_node) {
            ep.violations += 1;
        }
        ep.alive.push(alive);
        ep.raised.push(raised);

        // Plant: deliver what the model says the commanded threads give.
        let (_, total) = tracer.span("roofline", "solve (plant)", root, tick, || {
            advance_plant(machine, &ep.specs, &states)
        });
        ep.delivered.push(total);
    }

    let registry = hub.registry();
    ep.commands_issued = registry.counter_total("coop_agent_decisions_total");
    ep.poll_errors = registry.counter_total("coop_agent_poll_failures_total");
    ep.evictions = registry.counter_total("coop_agent_evictions_total");
    ep.readmissions = registry.counter_total("coop_agent_recoveries_total");
    ep.policy = std::mem::take(&mut *lock(&log));
    ep
}

/// Solves the alive stubs' commanded threads and books one tick of the
/// result (one task per MFLOP) on each stub. Returns total GFLOP/s.
fn advance_plant(machine: &Machine, specs: &[AppSpec], states: &[Arc<Mutex<StubState>>]) -> f64 {
    let mut live_specs = Vec::with_capacity(STUBS);
    let mut live_rows = Vec::with_capacity(STUBS);
    let mut live_idx = Vec::with_capacity(STUBS);
    for (i, state) in states.iter().enumerate() {
        let st = lock(state);
        if st.alive {
            live_specs.push(specs[i].clone());
            live_rows.push(st.commanded.clone());
            live_idx.push(i);
        }
    }
    if live_specs.is_empty() {
        return 0.0;
    }
    let assignment = ThreadAssignment::from_matrix(live_rows);
    let report = solve(machine, &live_specs, &assignment)
        .expect("commanded threads were checked to fit the machine");
    for (pos, &i) in live_idx.iter().enumerate() {
        let mut st = lock(&states[i]);
        st.uptime_us += (TICK_S * 1e6) as u64;
        for (n, tasks) in st.tasks_per_node.iter_mut().enumerate() {
            let gflops = report
                .group(pos, NodeId(n))
                .map_or(0.0, |g| g.group_gflops());
            *tasks += (gflops * 1e3 * TICK_S).round() as u64;
        }
    }
    report.total_gflops()
}

impl CtlChaos {
    /// Replays, under each tick's span, the search the policy ran in it and
    /// the solver calls inside that search.
    fn replay(&self, ep: &Episode, tracer: &mut Tracer) {
        for rec in &ep.policy.searches {
            let parent = ep.tick_spans[rec.tick as usize];
            let specs: Vec<AppSpec> = rec
                .names
                .iter()
                .map(|n| {
                    ep.specs
                        .iter()
                        .find(|s| &s.name == n)
                        .expect("polled names are stub names")
                        .clone()
                })
                .collect();
            let (search, found) = tracer.replay("core", "policy search", parent, rec.tick, || {
                research(&self.machine, &specs, rec.warm_from.clone())
            });
            tracer.replay("roofline", "delta+full solves", search, rec.tick, || {
                replay_solves(&self.machine, &specs, &found, rec.counters)
            });
        }
    }
}

/// The search `ModelGuided` runs: a cold greedy construction, or a warm
/// 1500-proposal hill climb from the incumbent; thread floor 1 per app.
pub fn research(
    machine: &Machine,
    specs: &[AppSpec],
    warm_from: Option<ThreadAssignment>,
) -> ThreadAssignment {
    let (mut oracle, _) = search_oracle(machine, specs);
    match warm_from {
        Some(start) => HillClimb::new()
            .with_iterations(1500)
            .with_start(start)
            .run_model(machine, &mut oracle),
        None => GreedySearch::new().run_model(machine, &mut oracle),
    }
    .expect("search over valid specs succeeds")
    .assignment
}

/// The best total GFLOP/s any assignment can deliver with every application
/// keeping at least one thread machine-wide. All applications are
/// NUMA-local, so nodes are independent: every column (threads per app on
/// one node) is scored exhaustively, the best column per set of served
/// applications is kept, and one column per node is chosen so that every
/// application is served somewhere.
pub fn oracle_best(machine: &Machine, specs: &[AppSpec]) -> f64 {
    let n = specs.len();
    let nodes = machine.num_nodes();
    let cores = machine.node(NodeId(0)).num_cores();
    let full = (1usize << n) - 1;
    let mut best_column = vec![f64::NEG_INFINITY; full + 1];
    let mut scratch = SolveScratch::new();
    for column in coop_alloc::enumerate::node_compositions(cores, n) {
        let uniform = ThreadAssignment::uniform_per_node(machine, &column);
        let gflops = solve_gflops(
            machine,
            specs,
            &uniform,
            SolveOptions::default(),
            &mut scratch,
        )
        .expect("a column within the node's cores solves");
        let per_node = gflops.iter().sum::<f64>() / nodes as f64;
        let served = column
            .iter()
            .enumerate()
            .fold(0usize, |m, (a, &t)| m | (usize::from(t > 0) << a));
        if per_node > best_column[served] {
            best_column[served] = per_node;
        }
    }
    let mut best = vec![f64::NEG_INFINITY; full + 1];
    best[0] = 0.0;
    for _ in 0..nodes {
        let mut next = vec![f64::NEG_INFINITY; full + 1];
        for (served, &so_far) in best.iter().enumerate() {
            if so_far == f64::NEG_INFINITY {
                continue;
            }
            for (column, &gain) in best_column.iter().enumerate() {
                if gain > f64::NEG_INFINITY && so_far + gain > next[served | column] {
                    next[served | column] = so_far + gain;
                }
            }
        }
        best = next;
    }
    best[full]
}

/// The quality of one episode's decisions.
pub struct EpisodeQuality {
    /// Steady states in which the agent beat the oracle: the oracle is the
    /// optimum, so any is a bug in the benchmark or the model.
    pub oracle_beaten: u64,
    /// Mean delivered GFLOP/s over all ticks.
    pub sim_gflops: f64,
    /// Per steady state: (oracle - delivered) / oracle, percent.
    pub regret_pct: Vec<f64>,
    /// Per edge: ticks until delivered GFLOP/s is within 5% of the steady
    /// state the interval ends in.
    pub reaction_ticks: Vec<f64>,
    /// Per kill: ticks until a survivor's commanded threads rise.
    pub evict_to_reclaim_ticks: Vec<f64>,
}

pub fn quality(machine: &Machine, ep: &Episode) -> EpisodeQuality {
    let ticks = ep.delivered.len();
    let mut regret_pct = Vec::new();
    let mut reaction_ticks = Vec::new();
    let mut evict_to_reclaim_ticks = Vec::new();
    let mut oracle_cache: HashMap<Vec<bool>, f64> = HashMap::new();
    let mut oracle_beaten = 0;
    // Interval i runs from edge i (or tick 0) to the tick before edge i+1.
    let starts: Vec<usize> = std::iter::once(0)
        .chain(ep.edges.iter().map(|e| e.tick as usize))
        .collect();
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).map_or(ticks, |&next| next) - 1;
        let steady = ep.delivered[end];
        let alive = &ep.alive[end];
        let oracle = *oracle_cache.entry(alive.clone()).or_insert_with(|| {
            let live: Vec<AppSpec> = (0..alive.len())
                .filter(|&s| alive[s])
                .map(|s| ep.specs[s].clone())
                .collect();
            oracle_best(machine, &live)
        });
        oracle_beaten += u64::from(steady > oracle * (1.0 + 1e-9));
        regret_pct.push(100.0 * (oracle - steady) / oracle);
        if i > 0 {
            let settled = (start..=end)
                .find(|&t| (ep.delivered[t] - steady).abs() <= SETTLE_BAND * steady)
                .expect("the interval's last tick is its own steady state");
            reaction_ticks.push((settled - start) as f64);
            if ep.edges[i - 1].kind == EdgeKind::Kill {
                if let Some(t) = (start..=end).find(|&t| ep.raised[t]) {
                    evict_to_reclaim_ticks.push((t - start) as f64);
                }
            }
        }
    }
    EpisodeQuality {
        oracle_beaten,
        sim_gflops: ep.delivered.iter().sum::<f64>() / ticks as f64,
        regret_pct,
        reaction_ticks,
        evict_to_reclaim_ticks,
    }
}

impl Workload for CtlChaos {
    fn round(&mut self, r: u64, meter: &mut Meter, tracer: &mut Tracer) {
        let root = tracer.begin("harness", "episode", None, r);
        let ep = self.episode(r, tracer, root);
        tracer.end(root);
        meter.ops += self.ticks;
        meter.op_us.push(crate::measure::median(&ep.tick_us));
        meter.single_op_us.extend_from_slice(&ep.tick_us);
        if ep.violations > 0 {
            meter.fail(ep.violations, || {
                format!(
                    "ctl_chaos round {r}: {} invariant violations",
                    ep.violations
                )
            });
        }
        if tracer.replays() {
            self.replay(&ep, tracer);
        }
    }
}
