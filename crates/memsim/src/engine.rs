//! The simulator's front end and its physics.
//!
//! [`Simulation`] validates a run and hands it to the one time-advance loop
//! in [`crate::event`]; [`compute_rates`] is what that loop evaluates once
//! per segment: which threads are runnable (activity patterns +
//! over-subscription time-slicing), each thread's compute capacity (peak x
//! duty x switch loss x sync-overhead x jitter) and memory demand, and every
//! node's bandwidth arbitration (remote-first, then baseline + proportional
//! remainder — the same two-phase rule as the analytic model, but per-thread
//! and with the effect model applied).

use crate::event::{advance_time, s_to_tick, EventRun, Samples, Tick};
use crate::result::AppSeries;
use crate::{ActivityPattern, EngineKind, EventLog, SimApp, SimConfig, SimError, SimResult};
use coop_alloc::rng::{splitmix64, Standard};
use coop_telemetry::{
    hop, hop_args, ArgValue, Counter, EventKind, Gauge, Histogram, PackedArg, SeriesKey,
    TelemetryHub, TimelineEvent, TrackId, TRACE_CAT,
};
use numa_topology::{Machine, NodeId};
use roofline_numa::{DataPlacement, ModelError, ThreadAssignment};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Synthetic epoch tasks draw ids from one process-wide counter: every
/// simulation run on a hub shares the deduplicated "memsim" track, so ids
/// must be unique across runs for the assembler to keep tasks apart.
static NEXT_TRACE_TASK: AtomicU64 = AtomicU64::new(1);

/// A configured simulator. Cheap to clone (owns only the config and an
/// optional handle to a shared telemetry hub).
#[derive(Debug, Clone)]
pub struct Simulation {
    pub(crate) config: SimConfig,
    pub(crate) telemetry: Option<Arc<TelemetryHub>>,
    pub(crate) tracing: bool,
    pub(crate) time_base_us: Option<u64>,
    /// The hub series of this simulator's machine, resolved by its first
    /// run and shared by every later one (and by clones).
    series: OnceLock<Arc<SimSeries>>,
}

/// One assigned thread, in its home node's block of [`NodeBlocks`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Thread {
    pub(crate) app: usize,
    /// The thread's position in the assignment's app-major expansion: the
    /// key of its jitter draw and its place in its node's block.
    pub(crate) pos: usize,
}

/// The hub track and series a simulator of one machine publishes to,
/// resolved once per [`Simulation`]: a caller that runs the same simulator
/// many times (the supervisor's decision ticks) registers, names and looks
/// up nothing after its first run.
#[derive(Debug)]
pub(crate) struct SimSeries {
    track: TrackId,
    assignment_switches: Arc<Counter>,
    rotations: Vec<Arc<Counter>>,
    util_pct: Vec<Arc<Histogram>>,
    /// Per node, the name of its bandwidth counter track (`node<n>_bw_gbs`),
    /// shared by every sample.
    bandwidth_names: Vec<SeriesKey>,
    /// Per node, the end-of-run `memsim_node_bandwidth_gbs` and
    /// `memsim_node_utilization` gauges; they come to exist when the first
    /// run ends, as they did when every run looked them up.
    summary: OnceLock<Vec<(Arc<Gauge>, Arc<Gauge>)>>,
}

impl SimSeries {
    fn new(hub: &TelemetryHub, machine: &numa_topology::Machine) -> Self {
        let track = hub.register_track("memsim");
        hub.set_lane_name(track, 0, "scheduler");
        let reg = hub.registry();
        reg.set_help(
            "memsim_node_bandwidth_gbs",
            "Average delivered bandwidth per memory controller over the last sample window",
        );
        reg.set_help(
            "memsim_node_utilization",
            "End-of-run memory-controller utilization (delivered / nominal), per node",
        );
        reg.set_help(
            "memsim_node_utilization_pct",
            "Per-sample memory-controller utilization, percent",
        );
        reg.set_help(
            "memsim_sched_switches_total",
            "OS-scheduler context-switch quanta (round-robin rotations under over-subscription), per node",
        );
        reg.set_help(
            "memsim_assignment_switches_total",
            "Dynamic-schedule assignment changes applied during the run",
        );
        let num_nodes = machine.num_nodes();
        let mut rotations = Vec::with_capacity(num_nodes);
        let mut util_pct = Vec::with_capacity(num_nodes);
        let bandwidth_names = (0..num_nodes)
            .map(|n| format!("node{n}_bw_gbs").into())
            .collect();
        for n in 0..num_nodes {
            hub.set_lane_name(track, n as u32 + 1, &format!("node {n} bandwidth"));
            let node = n.to_string();
            rotations.push(reg.counter("memsim_sched_switches_total", &[("node", &node)]));
            util_pct.push(reg.histogram("memsim_node_utilization_pct", &[("node", &node)]));
        }
        SimSeries {
            track,
            assignment_switches: reg.counter("memsim_assignment_switches_total", &[]),
            rotations,
            util_pct,
            bandwidth_names,
            summary: OnceLock::new(),
        }
    }
}

/// The hub shard a simulation records on. A run is one thread, and a
/// supervised run records its provenance and drift instants on shard 0 from
/// that same thread: its samples share the shard, so the run's events keep
/// their recording order and grow one ring rather than two.
const SHARD: usize = 0;

/// One run's view of the hub: the simulator's [`SimSeries`] plus the run's
/// time anchor. Simulated time is mapped onto the hub clock as
/// `base_us + t * 1e6`, where `base_us` is the hub time when the run
/// started (or an explicit anchor, `Simulation::time_base_us`) — so memsim
/// samples interleave correctly with runtime/agent events recorded during
/// the same wall-clock window, and multi-run callers like the supervisor
/// can keep every run on one consistent simulated clock instead of
/// re-anchoring to the wall per run.
pub(crate) struct SimTelemetry {
    hub: Arc<TelemetryHub>,
    series: Arc<SimSeries>,
    base_us: u64,
}

impl SimTelemetry {
    /// Simulated seconds → microseconds on the shared hub clock.
    pub(crate) fn ts_us(&self, t_s: f64) -> u64 {
        self.base_us + (t_s * 1e6) as u64
    }

    pub(crate) fn record_assignment_switch(&self, t_s: f64, sched_idx: usize) {
        self.series.assignment_switches.inc();
        self.hub.record(
            SHARD,
            TimelineEvent {
                track: self.series.track,
                lane: 0,
                cat: "scheduler".to_string(),
                name: format!("assignment #{sched_idx}"),
                ts_us: self.ts_us(t_s),
                kind: EventKind::Instant,
                args: vec![("t_s".to_string(), ArgValue::F64(t_s))],
            },
        );
    }

    pub(crate) fn record_bandwidth_sample(
        &self,
        node: usize,
        mid_s: f64,
        gbs: f64,
        utilization: f64,
    ) {
        self.series.util_pct[node].observe((utilization * 100.0).round() as u64);
        self.hub.record_packed(
            SHARD,
            self.series.track,
            node as u32 + 1,
            "bandwidth",
            Arc::clone(&self.series.bandwidth_names[node]),
            self.ts_us(mid_s),
            EventKind::Counter { value: gbs },
            &["t_s", "utilization"],
            [PackedArg::F64(mid_s), PackedArg::F64(utilization)],
        );
    }

    /// One causal hop in the shared trace schema, at simulated time.
    fn trace_hop(
        &self,
        t_s: f64,
        name: &str,
        task: u64,
        trace: u64,
        extra: Vec<(String, ArgValue)>,
    ) {
        let mut args = hop_args(task, trace);
        args.extend(extra);
        self.hub.record(
            SHARD,
            TimelineEvent {
                track: self.series.track,
                lane: 0,
                cat: TRACE_CAT.to_string(),
                name: name.to_string(),
                ts_us: self.ts_us(t_s),
                kind: EventKind::Instant,
                args,
            },
        );
    }

    /// Opens an epoch task: spawned (by the app's previous epoch, when
    /// there is one), enqueued and started on its dominant node, all at
    /// the epoch's start instant (lifecycle order breaks the tie).
    pub(crate) fn trace_epoch_open(
        &self,
        t_s: f64,
        task: u64,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        node: Option<u64>,
    ) {
        let mut extra = vec![("task_name".to_string(), ArgValue::Str(name.to_string()))];
        if let Some(p) = parent {
            extra.push(("parent".to_string(), ArgValue::U64(p)));
        }
        self.trace_hop(t_s, hop::SPAWNED, task, trace, extra);
        let node_arg =
            |node: Option<u64>| node.map(|n| vec![("node".to_string(), ArgValue::U64(n))]);
        self.trace_hop(
            t_s,
            hop::ENQUEUED,
            task,
            trace,
            node_arg(node).unwrap_or_default(),
        );
        self.trace_hop(
            t_s,
            hop::STARTED,
            task,
            trace,
            node_arg(node).unwrap_or_default(),
        );
    }

    pub(crate) fn trace_epoch_close(&self, t_s: f64, task: u64, trace: u64, node: Option<u64>) {
        let extra = node
            .map(|n| vec![("node".to_string(), ArgValue::U64(n))])
            .unwrap_or_default();
        self.trace_hop(t_s, hop::FINISHED, task, trace, extra);
    }

    pub(crate) fn record_run_summary(&self, node_avg_gbs: &[f64], node_utilization: &[f64]) {
        let gauges = self.series.summary.get_or_init(|| {
            let reg = self.hub.registry();
            (0..node_avg_gbs.len())
                .map(|n| {
                    let node = n.to_string();
                    (
                        reg.gauge("memsim_node_bandwidth_gbs", &[("node", &node)]),
                        reg.gauge("memsim_node_utilization", &[("node", &node)]),
                    )
                })
                .collect()
        });
        for ((bandwidth, utilization), (&gbs, &util)) in
            gauges.iter().zip(node_avg_gbs.iter().zip(node_utilization))
        {
            bandwidth.set(gbs);
            utilization.set(util);
        }
    }
}

impl Simulation {
    /// Creates a simulator from a config.
    pub fn new(config: SimConfig) -> Self {
        Simulation {
            config,
            telemetry: None,
            tracing: false,
            time_base_us: None,
            series: OnceLock::new(),
        }
    }

    /// Attaches a telemetry hub: runs then publish per-node bandwidth
    /// counter tracks (on the hub's shared clock), scheduler switch
    /// counters, and end-of-run utilization gauges.
    pub fn with_telemetry(mut self, hub: Arc<TelemetryHub>) -> Self {
        self.telemetry = Some(hub);
        self.series = OnceLock::new();
        self
    }

    /// This run's telemetry view, if a hub is attached: the series handles
    /// (resolved on the first call) and the run's time anchor.
    pub(crate) fn run_telemetry(&self) -> Option<SimTelemetry> {
        let hub = self.telemetry.as_ref()?;
        let series = self
            .series
            .get_or_init(|| Arc::new(SimSeries::new(hub, &self.config.machine)));
        Some(SimTelemetry {
            hub: Arc::clone(hub),
            series: Arc::clone(series),
            base_us: self.time_base_us.unwrap_or_else(|| hub.now_us()),
        })
    }

    /// Enables synthetic causal spans: each app's time under one
    /// assignment epoch becomes a traced task in the runtime's hop schema
    /// (`spawned -> enqueued -> started -> finished`, simulated time
    /// mapped onto the hub clock), with each epoch spawned by the app's
    /// previous epoch — so [`coop_telemetry::TraceAssembler`] reconstructs
    /// a simulated run's reallocation history with the same code that
    /// reconstructs a real runtime's steals. Requires [`with_telemetry`].
    ///
    /// [`with_telemetry`]: Simulation::with_telemetry
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Runs `apps` under a fixed `assignment` for `duration_s` seconds.
    pub fn run(
        &self,
        apps: &[SimApp],
        assignment: &ThreadAssignment,
        duration_s: f64,
    ) -> crate::Result<SimResult> {
        self.run_dynamic(apps, &[(0.0, assignment.clone())], duration_s)
    }

    /// Runs `apps` under a time-varying assignment: `schedule` lists
    /// `(start_time_s, assignment)` pairs in ascending time order; each
    /// assignment applies from its start time until the next entry. This is
    /// the mechanism for the paper's dynamic-reallocation scenarios
    /// (library bursts, agent repartitioning).
    ///
    /// [`SimConfig::engine`] chooses where the one loop ([`crate::event`])
    /// cuts time: at every quantum and every edge, or at edges only.
    pub fn run_dynamic(
        &self,
        apps: &[SimApp],
        schedule: &[(f64, ThreadAssignment)],
        duration_s: f64,
    ) -> crate::Result<SimResult> {
        let entries = Entries::Dense(schedule);
        self.run_detailed(apps, entries, duration_s, self.config.engine)
            .map(|(result, _log)| result)
    }

    /// Runs with [`EngineKind::Event`]'s cuts regardless of the configured
    /// [`EngineKind`], returning the result together with the processed
    /// event log (for determinism checks and events/sec accounting).
    pub fn run_logged(
        &self,
        apps: &[SimApp],
        schedule: &[(f64, ThreadAssignment)],
        duration_s: f64,
    ) -> crate::Result<(SimResult, EventLog)> {
        let entries = Entries::Dense(schedule);
        self.run_detailed(apps, entries, duration_s, EngineKind::Event)
    }

    /// One run cut as `cuts` says, with its sampled series and event log.
    pub(crate) fn run_detailed(
        &self,
        apps: &[SimApp],
        schedule: Entries,
        duration_s: f64,
        cuts: EngineKind,
    ) -> crate::Result<(SimResult, EventLog)> {
        let mut run = EventRun::default();
        let mut samples = Samples::default();
        let mut log = EventLog {
            seed: self.config.seed,
            ..EventLog::default()
        };
        let detail = Some((&mut samples, &mut log));
        advance_time(self, apps, schedule, duration_s, cuts, &mut run, detail)?;
        // Each series is built once, at its exact length, from its column
        // of the sample rows; the sample times are the result's, once.
        let series = apps
            .iter()
            .zip(&run.gflop_done)
            .enumerate()
            .map(|(a, (app, &gflop_done))| AppSeries {
                name: app.name().to_string(),
                gflop_done,
                gflops_series: samples
                    .gflops
                    .chunks_exact(apps.len())
                    .map(|row| row[a])
                    .collect(),
            })
            .collect();
        Ok((
            SimResult {
                machine: self.config.machine.name().to_string(),
                duration_s: run.duration_s,
                times_s: samples.times_s,
                apps: series,
                node_avg_gbs: run.node_avg_gbs,
                node_utilization: run.node_utilization,
            },
            log,
        ))
    }

    /// Input validation of a run of `entries` schedule entries, the same
    /// whichever way the loop cuts time; [`Simulation::check_schedule`]
    /// checks the entries.
    pub(crate) fn validate_run(
        &self,
        apps: &[SimApp],
        entries: usize,
        duration_s: f64,
    ) -> crate::Result<()> {
        let dt = self.config.quantum_s;
        if duration_s <= 0.0 || !duration_s.is_finite() {
            return Err(SimError::BadTime {
                reason: "duration must be positive and finite",
            });
        }
        // The quantum is a grid step in ticks: it may not round to zero.
        if !dt.is_finite() || s_to_tick(dt) < 1 {
            return Err(SimError::BadTime {
                reason: "quantum must be finite and at least 1 ns",
            });
        }
        over_budget("quantum steps", duration_s / dt, MAX_STEPS)?;
        if entries == 0 {
            return Err(SimError::BadTime {
                reason: "schedule must contain at least one assignment",
            });
        }
        check_apps(&self.config.machine, apps)?;
        let edges: f64 = apps
            .iter()
            .map(|app| match app.activity {
                ActivityPattern::AlwaysOn => 0.0,
                ActivityPattern::Bursts { period_s, .. } => 2.0 * (duration_s / period_s + 1.0),
                ActivityPattern::Window { .. } => 2.0,
            })
            .sum();
        over_budget("activity edges", edges, MAX_EDGES)
    }

    /// Every entry of `schedule` against a run of `num_apps` apps, in
    /// order: the first dense entry that was no matrix of the run's shape
    /// is its error; otherwise each cell names an app of the run and a node
    /// of the machine, and the entry's threads fit — within every node's
    /// cores, or within [`MAX_THREADS`] when over-subscription is allowed.
    /// The errors are those the matrices' own checks give.
    pub(crate) fn check_schedule(
        &self,
        num_apps: usize,
        schedule: &SparseSchedule,
    ) -> crate::Result<()> {
        for entry in 0..schedule.len() {
            match &schedule.misfit {
                Some((misfit, e)) if *misfit == entry => return Err(e.clone()),
                _ => self.check_cells(num_apps, schedule.entry(entry))?,
            }
        }
        Ok(())
    }

    /// One pass over the cells per 32 nodes: the range of each cell, the
    /// entry's total threads and the totals of those nodes, summed on the
    /// stack.
    fn check_cells(&self, num_apps: usize, cells: &[Cell]) -> crate::Result<()> {
        const BLOCK: usize = 32;
        let machine = &self.config.machine;
        let num_nodes = machine.num_nodes();
        for first in (0..num_nodes.max(1)).step_by(BLOCK) {
            let (mut totals, mut total) = ([0usize; BLOCK], 0usize);
            for &Cell { app, node, count } in cells {
                let (app, node) = (app as usize, node as usize);
                if app >= num_apps {
                    let (specs, assignment) = (num_apps, app + 1);
                    return Err(ModelError::AppCountMismatch { specs, assignment }.into());
                }
                if node >= num_nodes {
                    let (expected, actual) = (num_nodes, node + 1);
                    return Err(ModelError::AssignmentShape {
                        app,
                        expected,
                        actual,
                    }
                    .into());
                }
                total = total.saturating_add(count);
                if let Some(threads) = totals.get_mut(node.wrapping_sub(first)) {
                    *threads = threads.saturating_add(count);
                }
            }
            if self.config.effects.allow_oversubscription {
                return over_budget("threads", total as f64, MAX_THREADS as f64);
            }
            for (node, &threads) in (first..num_nodes.min(first + BLOCK)).zip(&totals) {
                if threads > machine.node(NodeId(node)).num_cores() {
                    return Err(SimError::OverSubscriptionDisabled { node });
                }
            }
        }
        Ok(())
    }
}

/// Most applications one run may hold.
pub const MAX_APPS: usize = 100_000;
/// Most threads one assignment may hold, in one cell and in total.
pub const MAX_THREADS: usize = 1 << 20;
/// Most quantum steps one run may span: `duration_s / quantum_s`.
pub const MAX_STEPS: f64 = 1e6;
/// Most activity edges the apps' patterns may imply over one run.
pub const MAX_EDGES: f64 = 1e6;

/// Every app against the machine, and their count against [`MAX_APPS`]:
/// what a run checks and [`Scenario::validate`](crate::Scenario::validate)
/// does as a file is read. With [`MAX_THREADS`] (per assignment), and
/// [`MAX_STEPS`] and [`MAX_EDGES`] (per run, whose duration is what a run
/// simulates), this is the run budget: each bound is at least ten times
/// what any shipped scenario, test, CLI default or benchmark workload
/// uses, and a run past one is refused before anything is allocated.
pub(crate) fn check_apps(machine: &Machine, apps: &[SimApp]) -> crate::Result<()> {
    over_budget("applications", apps.len() as f64, MAX_APPS as f64)?;
    for app in apps {
        app.spec.validate(machine)?;
        app.activity.validate()?;
    }
    Ok(())
}

/// An assignment's rows against `num_apps` × `num_nodes` (the first row
/// that does not span the machine is the error) and its thread count
/// against [`MAX_THREADS`], in one walk of the matrix. Without
/// over-subscription a run need not walk it: the machine's cores bound it.
pub(crate) fn check_threads<'a>(
    rows: impl ExactSizeIterator<Item = &'a [usize]>,
    num_apps: usize,
    num_nodes: usize,
) -> crate::Result<()> {
    if rows.len() != num_apps {
        let assignment = rows.len();
        return Err(ModelError::AppCountMismatch {
            specs: num_apps,
            assignment,
        }
        .into());
    }
    let mut total = 0usize;
    for (app, row) in rows.enumerate() {
        if row.len() != num_nodes {
            let (expected, actual) = (num_nodes, row.len());
            return Err(ModelError::AssignmentShape {
                app,
                expected,
                actual,
            }
            .into());
        }
        total = row.iter().fold(total, |total, &n| total.saturating_add(n));
    }
    over_budget("threads", total as f64, MAX_THREADS as f64)
}

fn over_budget(what: &'static str, asked: f64, limit: f64) -> crate::Result<()> {
    if asked > limit {
        return Err(SimError::OverBudget(what, asked, limit));
    }
    Ok(())
}

/// The node holding the most of one app's threads, given as that app's
/// cells (ties break to the lowest node id), or `None` when it has none.
pub(crate) fn dominant_node(cells: &[Cell]) -> Option<u64> {
    let best = cells
        .iter()
        .max_by_key(|c| (c.count, std::cmp::Reverse(c.node)))?;
    Some(u64::from(best.node))
}

/// One non-zero cell of an assignment: `count` threads of `app` on `node`.
/// Both fit 32 bits: cells are written after the app count has passed
/// [`MAX_APPS`], and a node is one of the machine's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    pub(crate) app: u32,
    pub(crate) node: u32,
    pub(crate) count: usize,
}

/// The non-zero cells of `rows`, row `app` holding app `app`'s count on
/// each node: app-major, the order a schedule entry's cells are kept in.
pub(crate) fn non_zero<'a>(
    rows: impl Iterator<Item = &'a [usize]> + 'a,
) -> impl Iterator<Item = Cell> + 'a {
    rows.enumerate().flat_map(|(app, row)| {
        let cells = row.iter().enumerate().filter(|&(_, &count)| count > 0);
        cells.map(move |(node, &count)| Cell {
            app: app as u32,
            node: node as u32,
            count,
        })
    })
}

/// A schedule as the loop reads it: each entry's start and its non-zero
/// cells, app-major (by app, then node), every entry's cells in one flat
/// buffer. A dense schedule is converted once, by
/// [`set_dense`](SparseSchedule::set_dense), which keeps the shape errors
/// only a matrix can have; [`Simulation::check_schedule`] checks the cells.
/// The chaos runner writes its segments' cells directly.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseSchedule {
    /// Per entry: its start, seconds, and the end of its cells in `cells`;
    /// the previous entry's end is their first.
    entries: Vec<(f64, usize)>,
    pub(crate) cells: Vec<Cell>,
    /// The first dense entry that was no matrix of the run's shape, and
    /// its error; that entry holds no cells.
    misfit: Option<(usize, SimError)>,
}

impl SparseSchedule {
    /// Replaces the schedule with `schedule`'s entries for a run of
    /// `num_apps` apps on `num_nodes` nodes, keeping the allocations: one
    /// walk over each matrix keeps its non-zero cells.
    pub(crate) fn set_dense(
        &mut self,
        schedule: &[(f64, ThreadAssignment)],
        num_apps: usize,
        num_nodes: usize,
    ) {
        self.entries.clear();
        self.cells.clear();
        self.misfit = None;
        for (entry, (start_s, a)) in schedule.iter().enumerate() {
            let fits = if a.num_apps() == num_apps {
                a.check_shape(num_nodes).map_err(SimError::Model)
            } else {
                let (specs, assignment) = (num_apps, a.num_apps());
                Err(ModelError::AppCountMismatch { specs, assignment }.into())
            };
            match fits {
                Ok(()) => self
                    .cells
                    .extend(non_zero((0..num_apps).map(|app| a.row(app)))),
                Err(e) => _ = self.misfit.get_or_insert((entry, e)),
            }
            self.end_entry(*start_s);
        }
    }

    /// Ends an entry that starts at `start_s` and holds the cells pushed
    /// since the previous one ended.
    pub(crate) fn end_entry(&mut self, start_s: f64) {
        self.entries.push((start_s, self.cells.len()));
    }

    /// How many entries the schedule has.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entry `entry`'s start, seconds.
    pub(crate) fn start_s(&self, entry: usize) -> f64 {
        self.entries[entry].0
    }

    /// Entry `entry`'s cells.
    pub(crate) fn entry(&self, entry: usize) -> &[Cell] {
        let first = entry.checked_sub(1).map_or(0, |prev| self.entries[prev].1);
        &self.cells[first..self.entries[entry].1]
    }

    /// The schedule as `(start_s, assignment)` pairs of `num_apps` rows on
    /// `machine`: each entry's cells written into a zeroed matrix.
    pub(crate) fn to_dense(
        &self,
        machine: &Machine,
        num_apps: usize,
    ) -> Vec<(f64, ThreadAssignment)> {
        (0..self.len())
            .map(|entry| {
                let mut a = ThreadAssignment::zero(machine, num_apps);
                for c in self.entry(entry) {
                    a.set(c.app as usize, NodeId(c.node as usize), c.count);
                }
                (self.start_s(entry), a)
            })
            .collect()
    }
}

/// What a run executes: a dense schedule, which the run converts into its
/// cells once, or a schedule that is cells already.
#[derive(Clone, Copy)]
pub(crate) enum Entries<'a> {
    Dense(&'a [(f64, ThreadAssignment)]),
    Sparse(&'a SparseSchedule),
}

impl Entries<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Entries::Dense(schedule) => schedule.len(),
            Entries::Sparse(schedule) => schedule.len(),
        }
    }
}

/// An assignment's threads, node-major: node `n`'s block is slots
/// `start[n]..start[n + 1]` of `threads`, in ascending `pos`, each homed
/// on `n`. Every pass of [`compute_rates`], and the loop's integration,
/// walks these slots a block at a time: a node's arbitration reads its own
/// block, plus the remote entries of the few threads whose placement
/// demands another node. [`NodeBlocks::expand`] rebuilds them from a
/// schedule entry's cells when the assignment changes.
#[derive(Debug, Default)]
pub(crate) struct NodeBlocks {
    /// Every assigned thread, block after block.
    pub(crate) threads: Vec<Thread>,
    /// Block `n` is slots `start[n]..start[n + 1]`.
    start: Vec<usize>,
    /// Per app: the sync-overhead factor of its thread count. An app is
    /// active or idle as a whole, so it is its active threads' factor.
    sync: Vec<f64>,
    /// The slots, and homes, of the threads whose placement demands
    /// memory of another node than their own, in ascending `pos`.
    remote: Vec<(usize, NodeId)>,
}

impl NodeBlocks {
    /// Replaces the blocks with the threads of `cells`, an assignment's
    /// non-zero cells in app-major order: one walk counts each node's and
    /// each app's threads, then a counting sort by home node writes each
    /// cell's threads into its node's block, in app-major order, so each
    /// block is in `pos` order.
    pub(crate) fn expand(&mut self, cells: &[Cell], apps: &[SimApp], num_nodes: usize) {
        self.start.clear();
        self.start.resize(num_nodes + 1, 0);
        self.sync.clear();
        self.sync.resize(apps.len(), 0.0);
        for cell in cells {
            self.start[cell.node as usize + 1] += cell.count;
            self.sync[cell.app as usize] += cell.count as f64;
        }
        for (sync, sim_app) in self.sync.iter_mut().zip(apps) {
            *sync = 1.0 / (1.0 + sim_app.sync_overhead * (*sync - 1.0));
        }
        // `start[n + 1]` becomes block `n`'s first slot, serves as its
        // cursor, and is left at its end: the next block's first slot.
        let mut next = 0;
        for start in &mut self.start[1..] {
            (*start, next) = (next, next + *start);
        }
        self.threads.clear();
        self.threads.resize(next, Thread { app: 0, pos: 0 });
        self.remote.clear();
        let mut pos = 0;
        for &Cell { app, node, count } in cells {
            let (app, node) = (app as usize, node as usize);
            let first = self.start[node + 1];
            self.start[node + 1] = first + count;
            let slots = first..first + count;
            for (slot, pos) in self.threads[slots.clone()].iter_mut().zip(pos..) {
                *slot = Thread { app, pos };
            }
            pos += count;
            if demands_off_home(&apps[app].spec.placement, NodeId(node)) {
                self.remote.extend(slots.map(|slot| (slot, NodeId(node))));
            }
        }
    }

    /// Node `node`'s slots.
    pub(crate) fn block(&self, node: usize) -> Range<usize> {
        self.start[node]..self.start[node + 1]
    }
}

/// Whether a thread homed on `home` demands memory of another node under
/// `placement`.
fn demands_off_home(placement: &DataPlacement, home: NodeId) -> bool {
    match placement {
        DataPlacement::Local => false,
        DataPlacement::SingleNode(node) => *node != home,
        DataPlacement::Spread(fractions) => fractions
            .iter()
            .enumerate()
            .any(|(node, &fraction)| node != home.0 && fraction > 0.0),
    }
}

/// Reusable arbitration buffers. One instance lives for a whole run (or a
/// whole supervised session); [`compute_rates`] resizes them every call, so
/// nothing in the hot loop allocates once the high-water mark is reached.
///
/// "Per live thread" below means per entry of [`RateScratch::live`]: the
/// slots of the [`NodeBlocks`] arbitrated last whose app was active, which
/// every pass after the census walks. An idle thread's capacity would be
/// 0: every term it would feed those passes is an exact `+ 0.0` or a
/// skipped branch, and it draws no jitter, so leaving it out changes no
/// bit.
#[derive(Debug, Default)]
pub(crate) struct RateScratch {
    /// The slots of the threads whose app is active, block after block:
    /// node `n`'s are `live[live_start[n]..live_start[n + 1]]`.
    live: Vec<usize>,
    live_start: Vec<usize>,
    /// Per-node: the census of its live threads' demands on it.
    census: Vec<Census>,
    /// Per live thread: compute capacity, GFLOPS; 0 for a thread
    /// time-sliced off its core.
    pub(crate) cap: Vec<f64>,
    /// Per live thread: its demand on its own node's memory, GB/s; 0 when
    /// it makes none.
    local: Vec<f64>,
    /// Per live thread: granted bandwidth, GB/s.
    pub(crate) granted: Vec<f64>,
    /// The demands on other nodes than the demanding thread's own.
    remote: DemandCols,
    /// Per-node: total bandwidth served by that controller, GB/s.
    pub(crate) node_served: Vec<f64>,
    /// Per-target-node temporaries.
    node_tmp: NodeScratch,
}

impl RateScratch {
    /// Sizes the buffers for `num_slots` slots.
    fn reset(&mut self, num_nodes: usize, num_slots: usize) {
        self.live.resize(num_slots, 0);
        for per_slot in [&mut self.cap, &mut self.local, &mut self.granted] {
            per_slot.resize(num_slots, 0.0);
        }
        self.live_start.resize(num_nodes + 1, 0);
        self.census.resize(num_nodes, Census::default());
        self.node_served.resize(num_nodes, 0.0);
        self.node_tmp.reset(num_nodes);
    }

    /// The slots of the last arbitration's live threads, block after block.
    pub(crate) fn live(&self) -> &[usize] {
        &self.live[..self.live_start[self.live_start.len() - 1]]
    }

    /// Ends a quantum of discrete time-slicing: every node the last
    /// arbitration found over-subscribed hands its cores to the next
    /// `cores` runnable threads — one OS-scheduler context switch on them.
    pub(crate) fn rotate(
        &self,
        machine: &Machine,
        rr_offset: &mut [usize],
        tel: Option<&SimTelemetry>,
    ) {
        for (node, runnable) in self.live_start.windows(2).map(|w| w[1] - w[0]).enumerate() {
            let cores = machine.node(NodeId(node)).num_cores();
            if runnable > cores {
                rr_offset[node] = (rr_offset[node] + cores) % runnable;
                if let Some(tel) = tel {
                    tel.series.rotations[node].inc();
                }
            }
        }
    }
}

/// A node's own threads' demands on it, counted as the prologue computes
/// them: the apps that make one, the threads, and their sum in `pos`
/// order. A target with no remote entry takes its arbitration's census
/// from here.
#[derive(Debug, Clone, Copy, Default)]
struct Census {
    distinct: usize,
    demanders: usize,
    total: f64,
}

/// The per-target-node arbitration temporaries, reused across targets and
/// segments.
#[derive(Debug, Default)]
struct NodeScratch {
    remote_demand_from: Vec<f64>,
    served_from: Vec<f64>,
}

impl NodeScratch {
    fn reset(&mut self, num_nodes: usize) {
        // Sizing only: every arbitration overwrites them.
        self.remote_demand_from.resize(num_nodes, 0.0);
        self.served_from.resize(num_nodes, 0.0);
    }
}

/// The positive demands live threads make on other nodes than their own,
/// compressed by target node: column `t` lists `(live thread, source
/// node, demand)` for each such demand on node `t`, in ascending `pos`.
/// Built from the remote list of [`NodeBlocks`] alone, so it is empty when
/// every app is NUMA-local.
#[derive(Debug, Default)]
struct DemandCols {
    /// Column `t` is entries `start[t]..start[t + 1]`.
    start: Vec<usize>,
    /// Each entry's index into [`RateScratch::live`].
    thread: Vec<usize>,
    src: Vec<usize>,
    d: Vec<f64>,
}

impl DemandCols {
    /// Rebuilds the columns by a counting sort: count each target's
    /// entries, then scatter them in the remote list's order. A remote
    /// thread is found in `live` (ascending slots) by a binary search; one
    /// of an idle app is not there and demands nothing.
    fn build(
        &mut self,
        apps: &[SimApp],
        blocks: &NodeBlocks,
        live: &[usize],
        cap: &[f64],
        num_nodes: usize,
    ) {
        self.start.clear();
        self.start.resize(num_nodes + 1, 0);
        let remote = blocks.remote.iter().filter_map(|&(slot, home)| {
            let k = live.binary_search(&slot).ok()?;
            let spec = &apps[blocks.threads[slot].app].spec;
            Some((k, home, &spec.placement, cap[k] / spec.ai))
        });
        for (_, home, placement, total) in remote.clone() {
            for_each_demand(placement, home, total, |target, _| {
                if target != home.0 {
                    self.start[target + 1] += 1;
                }
            });
        }
        // As in `NodeBlocks::expand`: `start[t + 1]` is column `t`'s cursor.
        let mut next = 0;
        for start in &mut self.start[1..] {
            (*start, next) = (next, next + *start);
        }
        self.thread.resize(next, 0);
        self.src.resize(next, 0);
        self.d.resize(next, 0.0);
        for (thread, home, placement, total) in remote {
            for_each_demand(placement, home, total, |target, d| {
                if target != home.0 {
                    let k = self.start[target + 1];
                    (self.thread[k], self.src[k], self.d[k]) = (thread, home.0, d);
                    self.start[target + 1] = k + 1;
                }
            });
        }
    }

    /// `target`'s column: its entries' live threads, source nodes and
    /// demands.
    fn column(&self, target: usize) -> Column<'_> {
        let entries = self.start[target]..self.start[target + 1];
        (
            &self.thread[entries.clone()],
            &self.src[entries.clone()],
            &self.d[entries],
        )
    }
}

/// A target's remote entries: live threads, source nodes, demands.
type Column<'a> = (&'a [usize], &'a [usize], &'a [f64]);

/// Calls `emit(target, demand)` for each node one thread demands memory
/// from, in ascending node order: its `total` demand (`cap / AI`) split by
/// the app's `placement` fractions, zero shares dropped.
fn for_each_demand(
    placement: &DataPlacement,
    home: NodeId,
    total: f64,
    mut emit: impl FnMut(usize, f64),
) {
    // A thread time-sliced off its core (`cap == 0`) demands nothing.
    if total > 0.0 {
        match placement {
            DataPlacement::Local => emit(home.0, total),
            DataPlacement::SingleNode(node) => emit(node.0, total),
            DataPlacement::Spread(fractions) => {
                for (node, &fraction) in fractions.iter().enumerate() {
                    let d = total * fraction;
                    if d > 0.0 {
                        emit(node, d);
                    }
                }
            }
        }
    }
}

/// One bandwidth arbitration, with app `a` computing iff `active[a]` (the
/// caller classifies the segment): per-thread compute capacity (peak ×
/// duty × switch loss × sync overhead × jitter), per-thread demand, then
/// the two-phase per-node arbitration (remote-first with link caps and
/// coherence overhead, then local baseline plus proportional remainder,
/// with the saturation efficiency on streaming threads). Results land in
/// `s.cap`, `s.granted` (per live thread) and `s.node_served`.
///
/// Each node's work is walks of its own block: the prologue's census and
/// capacities, then [`arbitrate_node`]'s passes, which merge in the remote
/// entries aimed at the node when some placement is not NUMA-local.
///
/// This is the one copy of the physics, evaluated once per segment: a whole
/// quantum, or a part of one when an off-grid edge splits it — which costs
/// that one extra arbitration (and its jitter draws, keyed by `segment`:
/// the seed and start tick) and nothing else. `effects.discrete_timeslice`
/// selects round-robin time-slicing under `rr_offset`, which only
/// [`RateScratch::rotate`] moves (once per quantum); otherwise fair shares,
/// which the discrete mode matches in long-run throughput.
#[allow(clippy::too_many_arguments)] // one bundle of parallel state
pub(crate) fn compute_rates(
    machine: &Machine,
    effects: &crate::EffectModel,
    peak: f64,
    apps: &[SimApp],
    active: &[bool],
    blocks: &NodeBlocks,
    segment: (u64, Tick),
    rr_offset: &[usize],
    s: &mut RateScratch,
) {
    let num_nodes = machine.num_nodes();
    rates_prologue(
        machine, effects, peak, apps, active, blocks, segment, rr_offset, s,
    );
    let live = &s.live[..s.live_start[num_nodes]];
    s.remote.build(apps, blocks, live, &s.cap, num_nodes);
    for target in 0..num_nodes {
        s.node_served[target] = arbitrate_node(
            machine,
            effects,
            target,
            (&blocks.threads, live),
            s.live_start[target]..s.live_start[target + 1],
            &s.local,
            &s.census[target],
            s.remote.column(target),
            &mut s.node_tmp,
            &mut s.granted,
        );
    }
}

/// The prefix of [`compute_rates`] that couples the whole fleet, one block
/// at a time: the node's live threads (its runnable census) under the apps
/// `active` marks, discrete time-slicing, and each live thread's compute
/// capacity (the stage that draws jitter) and demand on its own node. A
/// function of its own because the dense oracle in the tests shares it.
#[allow(clippy::too_many_arguments)] // same bundle as compute_rates
fn rates_prologue(
    machine: &Machine,
    effects: &crate::EffectModel,
    peak: f64,
    apps: &[SimApp],
    active: &[bool],
    blocks: &NodeBlocks,
    segment: (u64, Tick),
    rr_offset: &[usize],
    s: &mut RateScratch,
) {
    let num_nodes = machine.num_nodes();
    s.reset(num_nodes, blocks.threads.len());
    // Thread `pos` of the assignment's expansion draws `1 + jitter·(2u − 1)`,
    // `u` keyed by (seed, start tick, pos).
    let key = splitmix64(splitmix64(segment.0).wrapping_add(segment.1));
    let mut next = 0;
    for (node, &offset) in rr_offset[..num_nodes].iter().enumerate() {
        // The node's live threads: each slot is written, and kept (the
        // cursor moves) when its app is active — no branch on a flag that
        // half a bursting fleet flips every segment.
        let first = next;
        for slot in blocks.block(node) {
            s.live[next] = slot;
            next += usize::from(active[blocks.threads[slot].app]);
        }
        s.live_start[node + 1] = next;
        let live = &s.live[first..next];
        let runnable = live.len();

        // Compute capacity (GFLOPS): `peak * duty * switch * sync *
        // jitter`, evaluated left to right. Duty and switch depend on the
        // node alone, except that a time-sliced duty is 0 or 1 by the
        // thread's core: discrete time-slicing gives a core to the live
        // threads in a window of the block, rotated by
        // `RateScratch::rotate`; the `j`-th sits in window slot
        // `(j + runnable - offset % runnable) % runnable`.
        let home = NodeId(node);
        let cores = machine.node(home).num_cores();
        let mut window = 0;
        let on_core_below = if effects.discrete_timeslice && runnable > cores {
            window = (runnable - offset % runnable) % runnable;
            cores
        } else {
            usize::MAX
        };
        let duty = if effects.discrete_timeslice {
            1.0
        } else {
            (cores as f64 / runnable as f64).min(1.0)
        };
        let switch = if runnable > cores {
            1.0 - effects.oversub_switch_loss
        } else {
            1.0
        };
        let node_cap = [peak * 0.0 * switch, peak * duty * switch];
        // `pos` is app-major, so a block holds each app's threads in one
        // run: the app's factors are read once a run, and the census
        // counts an app once. Adding a 0 demand to `total` is exact.
        let mut census = Census::default();
        let same_app = |&a: &usize, &b: &usize| blocks.threads[a].app == blocks.threads[b].app;
        let mut k = first;
        for run in live.chunk_by(same_app) {
            let app = blocks.threads[run[0]].app;
            let (spec, sync) = (&apps[app].spec, blocks.sync[app]);
            let demanders = census.demanders;
            for &slot in run {
                let on_core = window < on_core_below;
                window += 1;
                if window == runnable {
                    window = 0;
                }
                let mut cap = node_cap[usize::from(on_core)] * sync;
                if effects.jitter > 0.0 {
                    let pos = blocks.threads[slot].pos as u64;
                    let u = f64::sample(splitmix64(key.wrapping_add(pos)));
                    cap *= 1.0 + effects.jitter * (u * 2.0 - 1.0);
                }
                let mut local = 0.0;
                for_each_demand(&spec.placement, home, cap / spec.ai, |target, d| {
                    if target == node {
                        local = d;
                    }
                });
                census.demanders += usize::from(local > 0.0);
                census.total += local;
                (s.cap[k], s.local[k], s.granted[k]) = (cap, local, 0.0);
                k += 1;
            }
            census.distinct += usize::from(census.demanders > demanders);
        }
        s.census[node] = census;
    }
}

/// Calls `visit(live thread, demand, entry)` for each entry of a target's
/// demand column in ascending `pos`: the positive demands `local` holds
/// for the target's own live threads `block` (`entry` `None`), merged with
/// its `remote` entries (`entry` the remote entry's index).
#[inline]
fn for_each_entry(
    (threads, live): (&[Thread], &[usize]),
    block: Range<usize>,
    local: &[f64],
    (remote, _, remote_d): Column,
    mut visit: impl FnMut(usize, f64, Option<usize>),
) {
    let pos = |k: usize| threads[live[k]].pos;
    let mut r = 0;
    for k in block {
        let d = local[k];
        if d > 0.0 {
            while r < remote.len() && pos(remote[r]) < pos(k) {
                visit(remote[r], remote_d[r], Some(r));
                r += 1;
            }
            visit(k, d, None);
        }
    }
    for r in r..remote.len() {
        visit(remote[r], remote_d[r], Some(r));
    }
}

/// Arbitrates one target node: the two-phase remote-first / baseline +
/// proportional-remainder rule, with interference and saturation applied.
/// Adds each entry's grant to `granted[thread]` and returns the bandwidth
/// the node served. The cost is the target's live threads, plus its
/// remote entries and one pass over its inbound links when it has some —
/// never the fleet's thread or app count.
///
/// Per-target arbitration has **no cross-target dataflow** — only the
/// per-thread grant sums couple targets, and the caller arbitrates targets
/// in ascending order, so a thread's grants add in that order. A thread
/// with no demand toward the target is no entry of its column; to every
/// sum below it would have contributed an exact `+ 0.0`.
#[allow(clippy::too_many_arguments)] // one target's view of the bundle
fn arbitrate_node(
    machine: &Machine,
    effects: &crate::EffectModel,
    target: usize,
    (threads, live): (&[Thread], &[usize]),
    block: Range<usize>,
    local: &[f64],
    census: &Census,
    remote: Column,
    tmp: &mut NodeScratch,
    granted: &mut [f64],
) -> f64 {
    let num_nodes = machine.num_nodes();
    let node = machine.node(NodeId(target));

    // The census of the column: distinct demanding apps (interference),
    // local demanders, and total demand. The prologue took the block's
    // own; remote entries mix into the first and the last, so a target
    // with some walks its merged column for them. `pos` is app-major, so
    // an app's entries are consecutive in the column.
    let local_demanders = census.demanders;
    let (distinct, total_demand) = if remote.0.is_empty() {
        (census.distinct, census.total)
    } else {
        let (mut distinct, mut last_app, mut total) = (0usize, usize::MAX, 0.0f64);
        for_each_entry((threads, live), block.clone(), local, remote, |k, d, _| {
            let app = threads[live[k]].app;
            distinct += usize::from(app != last_app);
            last_app = app;
            total += d;
        });
        (distinct, total)
    };
    let interference = if distinct > 1 {
        (1.0 - effects.multi_app_interference * (distinct - 1) as f64).max(0.0)
    } else {
        1.0
    };
    let capacity = node.bandwidth_gbs * interference;

    // Remote-first stage. Without remote entries every `served_from` would
    // be an exact 0 and the capacity would remain whole, so only a target
    // with some pays the pass over its inbound links. `served_from` and
    // `remote_demand_from` are read below for remote entries alone.
    let remaining = if remote.0.is_empty() {
        capacity.max(0.0)
    } else {
        tmp.remote_demand_from.fill(0.0);
        for (&src, &d) in remote.1.iter().zip(remote.2) {
            tmp.remote_demand_from[src] += d;
        }
        for src in 0..num_nodes {
            tmp.served_from[src] = if src == target {
                0.0
            } else {
                let link =
                    machine.links().link(NodeId(src), NodeId(target)) * effects.remote_efficiency;
                tmp.remote_demand_from[src].min(link)
            };
        }
        // Serving remote traffic costs extra capacity (coherence
        // overhead): r GB/s delivered consumes r * (1 + o).
        let remote_cost = 1.0 + effects.remote_service_overhead;
        let total_remote: f64 = tmp.served_from.iter().sum();
        if total_remote * remote_cost > capacity {
            let scale = capacity / (total_remote * remote_cost);
            for sf in tmp.served_from.iter_mut() {
                *sf *= scale;
            }
        }
        (capacity - tmp.served_from.iter().sum::<f64>() * remote_cost).max(0.0)
    };

    // Local stage: baseline + proportional remainder, over the block's
    // live threads.
    // The per-thread guaranteed share. The model's rule is per-core;
    // under over-subscription (more demanding local threads than
    // cores) the share divides among the threads, keeping the baseline
    // stage within capacity.
    let baseline = remaining / node.num_cores().max(local_demanders) as f64;
    let mut used = 0.0f64;
    let mut local_need = 0.0f64;
    for &d in &local[block.clone()] {
        if d > 0.0 {
            let g = d.min(baseline);
            used += g;
            local_need += d - g;
        }
    }
    let rest = (remaining - used).max(0.0);
    let ratio = if local_need > 1e-15 {
        (rest / local_need).min(1.0)
    } else {
        0.0
    };

    // Saturation: queueing efficiency of this controller under load.
    // It only penalizes *streaming* threads (demand above half the
    // baseline share) — a compute-bound thread issuing few requests
    // rides out the queues, which is what the paper's compute
    // benchmark did on the real machine.
    let u = (total_demand / capacity).min(1.0);
    let sat = if u > effects.saturation_knee && effects.saturation_loss > 0.0 {
        1.0 - effects.saturation_loss * (u - effects.saturation_knee)
            / (1.0 - effects.saturation_knee)
    } else {
        1.0
    };
    let streamer_threshold = 0.5 * baseline;

    let mut served_total = 0.0f64;
    for_each_entry((threads, live), block, local, remote, |k, d, entry| {
        let thread_sat = if d > streamer_threshold { sat } else { 1.0 };
        let grant = if let Some(r) = entry {
            // Remote grant: share of this source's served BW.
            let src = remote.1[r];
            let share = if tmp.remote_demand_from[src] > 1e-15 {
                tmp.served_from[src] * d / tmp.remote_demand_from[src]
            } else {
                0.0
            };
            share * thread_sat
        } else {
            // The baseline grant plus the proportional remainder, then
            // the saturation efficiency on the final local grant.
            let prov = d.min(baseline);
            (prov + ratio * (d - prov)) * thread_sat
        };
        granted[k] += grant;
        served_total += grant;
    });
    served_total
}

/// Synthetic causal-span bookkeeping: per app, the open epoch's (task id,
/// dominant node) and the causal-tree root (first epoch's id). Each
/// assignment epoch becomes a traced task in the shared hop schema, spawned
/// by the app's previous epoch.
#[derive(Default)]
pub(crate) struct EpochTracer {
    tasks: Vec<Option<(u64, Option<u64>)>>,
    roots: Vec<Option<u64>>,
}

impl EpochTracer {
    /// No epoch open for any of `num_apps` apps, keeping the allocations.
    pub(crate) fn reset(&mut self, num_apps: usize) {
        self.tasks.clear();
        self.tasks.resize(num_apps, None);
        self.roots.clear();
        self.roots.resize(num_apps, None);
    }

    /// Closes every app's previous epoch and opens the next one at `t`,
    /// under the assignment whose app-major cells are `cells`.
    pub(crate) fn on_assignment(
        &mut self,
        tel: &SimTelemetry,
        t: f64,
        sched_idx: usize,
        mut cells: &[Cell],
        apps: &[SimApp],
    ) {
        for (app, sim_app) in apps.iter().enumerate() {
            let (own, rest) = cells.split_at(cells.partition_point(|c| c.app as usize == app));
            cells = rest;
            let task = NEXT_TRACE_TASK.fetch_add(1, Ordering::Relaxed);
            let trace = *self.roots[app].get_or_insert(task);
            let prev = self.tasks[app].take();
            if let Some((ptask, pnode)) = prev {
                tel.trace_epoch_close(t, ptask, trace, pnode);
            }
            let node = dominant_node(own);
            tel.trace_epoch_open(
                t,
                task,
                trace,
                prev.map(|(p, _)| p),
                &format!("{}#epoch{}", sim_app.name(), sched_idx),
                node,
            );
            self.tasks[app] = Some((task, node));
        }
    }

    /// Closes any epochs still open at the end of the run.
    pub(crate) fn finish(&mut self, tel: &SimTelemetry, t: f64) {
        for (app, slot) in self.tasks.iter_mut().enumerate() {
            if let Some((task, node)) = slot.take() {
                let trace = self.roots[app].unwrap_or(task);
                tel.trace_epoch_close(t, task, trace, node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivityPattern, EffectModel};
    use numa_topology::presets::{paper_model_machine, paper_skylake_machine, tiny};
    use roofline_numa::{solve, AppSpec};

    fn ideal_sim(machine: numa_topology::Machine) -> Simulation {
        Simulation::new(SimConfig::new(machine).with_effects(EffectModel::ideal()))
    }

    /// With all effects off, the simulator matches the analytic model on
    /// the paper's Table I scenario.
    #[test]
    fn ideal_matches_model_table_1() {
        let machine = paper_model_machine();
        let sim = ideal_sim(machine.clone());
        let sim_apps = vec![
            SimApp::numa_local("mem1", 0.5),
            SimApp::numa_local("mem2", 0.5),
            SimApp::numa_local("mem3", 0.5),
            SimApp::numa_local("comp", 10.0),
        ];
        let model_apps: Vec<AppSpec> = sim_apps.iter().map(|a| a.spec.clone()).collect();
        let assignment = ThreadAssignment::uniform_per_node(&machine, &[1, 1, 1, 5]);

        let r = sim.run(&sim_apps, &assignment, 0.05).unwrap();
        let m = solve(&machine, &model_apps, &assignment).unwrap();
        assert!(
            (r.total_gflops() - m.total_gflops()).abs() < 1e-6,
            "sim {} vs model {}",
            r.total_gflops(),
            m.total_gflops()
        );
        for a in 0..4 {
            assert!((r.app_gflops(a) - m.app_gflops(a)).abs() < 1e-6);
        }
    }

    /// Cross-validation on the cross-node NUMA-bad scenario (Table III
    /// row 4 shape).
    #[test]
    fn ideal_matches_model_cross_node() {
        let machine = paper_skylake_machine();
        let sim = ideal_sim(machine.clone());
        let sim_apps = vec![
            SimApp::numa_local("mem1", 1.0 / 32.0),
            SimApp::numa_local("mem2", 1.0 / 32.0),
            SimApp::numa_local("mem3", 1.0 / 32.0),
            SimApp::numa_bad("bad", 1.0 / 16.0, NodeId(0)),
        ];
        let model_apps: Vec<AppSpec> = sim_apps.iter().map(|a| a.spec.clone()).collect();
        let assignment = ThreadAssignment::uniform_per_node(&machine, &[5, 5, 5, 5]);
        let r = sim.run(&sim_apps, &assignment, 0.05).unwrap();
        let m = solve(&machine, &model_apps, &assignment).unwrap();
        assert!(
            (r.total_gflops() - m.total_gflops()).abs() < 1e-6,
            "sim {} vs model {} (model should be 13.98)",
            r.total_gflops(),
            m.total_gflops()
        );
    }

    /// Real-ish effects push heavily shared scenarios a few percent below
    /// the model — the paper's observation.
    #[test]
    fn effects_degrade_shared_scenarios_mildly() {
        let machine = paper_skylake_machine();
        let sim = Simulation::new(
            SimConfig::new(machine.clone()).with_effects(EffectModel::skylake_like()),
        );
        let sim_apps = vec![
            SimApp::numa_local("mem1", 1.0 / 32.0),
            SimApp::numa_local("mem2", 1.0 / 32.0),
            SimApp::numa_local("mem3", 1.0 / 32.0),
            SimApp::numa_bad("bad", 1.0 / 16.0, NodeId(0)),
        ];
        let model_apps: Vec<AppSpec> = sim_apps.iter().map(|a| a.spec.clone()).collect();
        let assignment = ThreadAssignment::uniform_per_node(&machine, &[5, 5, 5, 5]);
        let r = sim.run(&sim_apps, &assignment, 0.1).unwrap();
        let m = solve(&machine, &model_apps, &assignment).unwrap();
        // Running the raw effects against the *nominal* machine (without
        // the paper's calibration step absorbing them) costs 10–25%; the
        // Table III bench shows that after calibration the net
        // model-vs-real gap shrinks to a few percent.
        let ratio = r.total_gflops() / m.total_gflops();
        assert!(
            ratio > 0.7 && ratio < 1.0,
            "effects should cost a modest fraction: sim/model = {ratio}"
        );
    }

    #[test]
    fn oversubscription_costs_a_few_percent() {
        // Two identical memory-light apps; fair share vs 2x oversubscribed.
        let machine = paper_model_machine();
        let apps = vec![SimApp::numa_local("a", 10.0), SimApp::numa_local("b", 10.0)];
        let sim = Simulation::new(
            SimConfig::new(machine.clone()).with_effects(EffectModel::skylake_like()),
        );
        let fair = ThreadAssignment::uniform_per_node(&machine, &[4, 4]);
        let over = ThreadAssignment::uniform_per_node(&machine, &[8, 8]);
        let r_fair = sim.run(&apps, &fair, 0.05).unwrap();
        let r_over = sim.run(&apps, &over, 0.05).unwrap();
        let ratio = r_over.total_gflops() / r_fair.total_gflops();
        assert!(
            ratio > 0.9 && ratio < 1.0,
            "oversubscription should cost only a few percent, ratio = {ratio}"
        );
    }

    #[test]
    fn oversubscription_rejected_when_disabled() {
        let machine = tiny();
        let sim = ideal_sim(machine.clone());
        let apps = vec![SimApp::numa_local("a", 1.0)];
        let over = ThreadAssignment::uniform_per_node(&machine, &[3]);
        assert!(matches!(
            sim.run(&apps, &over, 0.01),
            Err(SimError::OverSubscriptionDisabled { .. })
        ));
    }

    /// A matrix of the wrong width, or a ragged one, is refused with the
    /// first bad row and its length — by both engines, before anything is
    /// read from it — and a wrong row count with the two counts.
    #[test]
    fn misshapen_assignments_are_refused_with_the_offending_row() {
        use roofline_numa::ModelError;
        let machine = tiny(); // 2 nodes
        let apps = vec![SimApp::numa_local("a", 1.0), SimApp::numa_local("b", 1.0)];
        let good = ThreadAssignment::uniform_per_node(&machine, &[1, 1]);
        for (matrix, app, actual) in [
            (vec![vec![1, 1, 1], vec![1, 1, 1]], 0, 3),
            (vec![vec![1, 1], vec![1]], 1, 1),
            (vec![vec![1], vec![1, 1]], 0, 1),
            (vec![vec![1, 1], vec![1, 1, 1]], 1, 3),
        ] {
            let bad = ThreadAssignment::from_matrix(matrix);
            let shape = SimError::Model(ModelError::AssignmentShape {
                app,
                expected: 2,
                actual,
            });
            for engine in [crate::EngineKind::Slice, crate::EngineKind::Event] {
                let sim = Simulation::new(
                    SimConfig::new(machine.clone())
                        .with_effects(EffectModel::ideal())
                        .with_engine(engine),
                );
                let schedule = [(0.0, good.clone()), (0.005, bad.clone())];
                assert_eq!(sim.run_dynamic(&apps, &schedule, 0.01).unwrap_err(), shape);
                assert_eq!(sim.run(&apps, &bad, 0.01).unwrap_err(), shape);
            }
        }
        let three_rows = ThreadAssignment::from_matrix(vec![vec![0, 0]; 3]);
        assert_eq!(
            ideal_sim(machine)
                .run(&apps, &three_rows, 0.01)
                .unwrap_err(),
            SimError::Model(ModelError::AppCountMismatch {
                specs: 2,
                assignment: 3
            })
        );
    }

    #[test]
    fn activity_windows_gate_work() {
        let machine = tiny();
        let sim = ideal_sim(machine.clone());
        let apps = vec![
            SimApp::numa_local("w", 1.0).with_activity(ActivityPattern::Window {
                start_s: 0.0,
                end_s: 0.05,
            }),
        ];
        let assignment = ThreadAssignment::uniform_per_node(&machine, &[1]);
        let r = sim.run(&apps, &assignment, 0.1).unwrap();
        // Active for half the run: sustained rate is half the peak rate.
        let r_full = sim
            .run(&[SimApp::numa_local("w", 1.0)], &assignment, 0.1)
            .unwrap();
        let ratio = r.total_gflops() / r_full.total_gflops();
        assert!((ratio - 0.5).abs() < 0.02, "ratio = {ratio}");
    }

    #[test]
    fn sync_overhead_makes_scaling_sublinear() {
        let machine = paper_model_machine();
        let sim = ideal_sim(machine.clone());
        let app = |alpha: f64| vec![SimApp::numa_local("s", 10.0).with_sync_overhead(alpha)];
        let one = ThreadAssignment::uniform_per_node(&machine, &[1]);
        let eight = ThreadAssignment::uniform_per_node(&machine, &[8]);
        // Perfect scaling: 8x the threads -> 8x the work.
        let r1 = sim.run(&app(0.0), &one, 0.02).unwrap();
        let r8 = sim.run(&app(0.0), &eight, 0.02).unwrap();
        assert!((r8.total_gflops() / r1.total_gflops() - 8.0).abs() < 1e-6);
        // With overhead: more threads still help, but sublinearly.
        let r1o = sim.run(&app(0.05), &one, 0.02).unwrap();
        let r8o = sim.run(&app(0.05), &eight, 0.02).unwrap();
        let speedup = r8o.total_gflops() / r1o.total_gflops();
        assert!(speedup > 1.0 && speedup < 8.0, "speedup = {speedup}");
    }

    #[test]
    fn dynamic_schedule_switches_assignments() {
        let machine = tiny();
        let sim = ideal_sim(machine.clone());
        let apps = vec![SimApp::numa_local("a", 1.0), SimApp::numa_local("b", 1.0)];
        // First half: all cores to a; second half: all to b.
        let all_a = ThreadAssignment::from_matrix(vec![vec![2, 2], vec![0, 0]]);
        let all_b = ThreadAssignment::from_matrix(vec![vec![0, 0], vec![2, 2]]);
        let r = sim
            .run_dynamic(&apps, &[(0.0, all_a), (0.05, all_b)], 0.1)
            .unwrap();
        let a = r.app_gflops(0);
        let b = r.app_gflops(1);
        assert!(a > 0.0 && b > 0.0);
        assert!(
            (a - b).abs() / a < 0.05,
            "halves should be symmetric: {a} vs {b}"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let machine = paper_model_machine();
        // Compute-bound: jitter moves the total, not only its rounding (a
        // bandwidth-bound app's total is the saturated nodes' bandwidth).
        let apps = vec![SimApp::numa_local("a", 10.0)];
        let assignment = ThreadAssignment::uniform_per_node(&machine, &[4]);
        let mk = |seed| {
            Simulation::new(
                SimConfig::new(machine.clone())
                    .with_effects(EffectModel::skylake_like())
                    .with_seed(seed),
            )
            .run(&apps, &assignment, 0.02)
            .unwrap()
        };
        let r1 = mk(7);
        let r2 = mk(7);
        assert_eq!(r1, r2);
        let r3 = mk(8);
        assert!(
            r1.total_gflops() != r3.total_gflops(),
            "different seed, different jitter"
        );
    }

    #[test]
    fn bad_time_parameters_rejected() {
        let machine = tiny();
        let sim = ideal_sim(machine.clone());
        let apps = vec![SimApp::numa_local("a", 1.0)];
        let assignment = ThreadAssignment::uniform_per_node(&machine, &[1]);
        assert!(matches!(
            sim.run(&apps, &assignment, 0.0),
            Err(SimError::BadTime { .. })
        ));
        assert!(matches!(
            sim.run_dynamic(&apps, &[], 1.0),
            Err(SimError::BadTime { .. })
        ));
        let bad_q = Simulation::new(
            SimConfig::new(tiny())
                .with_effects(EffectModel::ideal())
                .with_quantum(0.0),
        );
        assert!(matches!(
            bad_q.run(&apps, &assignment, 1.0),
            Err(SimError::BadTime { .. })
        ));
        // A quantum that rounds to zero ticks would be a zero grid step.
        for engine in [EngineKind::Slice, EngineKind::Event] {
            let sub_tick = Simulation::new(
                SimConfig::new(tiny())
                    .with_effects(EffectModel::ideal())
                    .with_quantum(4e-10)
                    .with_engine(engine),
            );
            assert!(
                matches!(
                    sub_tick.run(&apps, &assignment, 1e-6),
                    Err(SimError::BadTime { .. })
                ),
                "{engine}"
            );
        }
    }

    /// Patterns whose edges would not advance time (a per-nanosecond event
    /// storm on the event engines) are refused up front by every engine.
    #[test]
    fn hostile_activity_patterns_rejected_on_every_engine() {
        let bursts = |period_s: f64, duty: f64, phase_s: f64| ActivityPattern::Bursts {
            period_s,
            duty,
            phase_s,
        };
        let window = |start_s: f64, end_s: f64| ActivityPattern::Window { start_s, end_s };
        let hostile = [
            bursts(0.0, 0.5, 0.0),
            bursts(-1.0, 0.5, 0.0),
            bursts(f64::NAN, 0.5, 0.0),
            bursts(f64::INFINITY, 0.5, 0.0),
            bursts(1.0, f64::NAN, 0.0),
            bursts(1.0, 1.5, 0.0),
            bursts(1.0, 0.5, f64::NAN),
            // Shorter than one tick: the period, the burst, the gap.
            bursts(1e-12, 0.5, 0.0),
            bursts(1.0, 1e-10, 0.0),
            bursts(1.0, 1.0 - 1e-10, 0.0),
            window(f64::NAN, 1.0),
            window(0.0, f64::NAN),
            window(2.0, 1.0),
            window(0.0, f64::INFINITY),
        ];
        let assignment = ThreadAssignment::uniform_per_node(&tiny(), &[1]);
        for pattern in hostile {
            let apps = vec![SimApp::numa_local("a", 1.0).with_activity(pattern.clone())];
            for engine in [EngineKind::Slice, EngineKind::Event] {
                let sim = Simulation::new(
                    SimConfig::new(tiny())
                        .with_effects(EffectModel::ideal())
                        .with_engine(engine),
                );
                assert!(
                    matches!(
                        sim.run(&apps, &assignment, 1.0),
                        Err(SimError::BadTime { .. })
                    ),
                    "{pattern:?} on {engine}"
                );
            }
        }
        // The degenerate-but-harmless cases stay legal.
        for pattern in [
            bursts(1.0, 0.0, 0.0),
            bursts(1.0, 1.0, -0.25),
            bursts(2e-9, 0.5, 0.0),
            window(1.0, 1.0),
        ] {
            assert!(pattern.validate().is_ok(), "{pattern:?}");
        }
    }

    #[test]
    fn node_utilization_reported() {
        let machine = paper_model_machine();
        let sim = ideal_sim(machine.clone());
        // Memory-bound app saturates every node.
        let apps = vec![SimApp::numa_local("mem", 0.1)];
        let assignment = ThreadAssignment::uniform_per_node(&machine, &[8]);
        let r = sim.run(&apps, &assignment, 0.02).unwrap();
        for &u in &r.node_utilization {
            assert!(
                (u - 1.0).abs() < 1e-6,
                "saturated node should be at 1.0, got {u}"
            );
        }
        // 32 GB/s * 0.1 = 3.2 GFLOPS per node.
        assert!((r.total_gflops() - 12.8).abs() < 1e-6);
    }

    #[test]
    fn telemetry_publishes_bandwidth_and_switches() {
        use coop_telemetry::EventKind;
        use std::sync::Arc;

        let machine = tiny();
        let hub = Arc::new(coop_telemetry::TelemetryHub::new());
        let sim = ideal_sim(machine.clone()).with_telemetry(Arc::clone(&hub));
        let apps = vec![SimApp::numa_local("a", 1.0), SimApp::numa_local("b", 1.0)];
        let all_a = ThreadAssignment::from_matrix(vec![vec![2, 2], vec![0, 0]]);
        let all_b = ThreadAssignment::from_matrix(vec![vec![0, 0], vec![2, 2]]);
        let r = sim
            .run_dynamic(&apps, &[(0.0, all_a), (0.05, all_b)], 0.1)
            .unwrap();

        // One assignment switch (the initial assignment does not count).
        let reg = hub.registry();
        assert_eq!(reg.counter_total("memsim_assignment_switches_total"), 1);

        let events = hub.events();
        let switches: Vec<_> = events
            .iter()
            .filter(|e| e.cat == "scheduler" && matches!(e.kind, EventKind::Instant))
            .collect();
        assert_eq!(switches.len(), 1);
        assert!(switches[0].name.contains("assignment"));

        // Per-node bandwidth counter samples, one per timeline sample.
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.cat == "bandwidth" && matches!(e.kind, EventKind::Counter { .. }))
            .collect();
        assert_eq!(counters.len(), machine.num_nodes() * r.times_s.len());
        assert!(counters.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        // Each sample carries its node's counter name — the bytes a
        // `format!` per sample used to produce — and the exposition is what
        // it was at commit 4aec231 less the two series of the sharded engine
        // deleted since, run on the event engine once that became the
        // default (FNV-1a of the text).
        assert!(counters
            .iter()
            .all(|e| e.name == format!("node{}_bw_gbs", e.lane - 1)));
        // Each sample carries its simulated time and utilization, in order.
        assert!(counters.iter().all(|e| matches!(
            &e.args[..],
            [(t, ArgValue::F64(_)), (u, ArgValue::F64(_))] if t == "t_s" && u == "utilization"
        )));
        let exposition = reg.to_prometheus();
        let digest = exposition.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(digest, 0x9f75_4b08_476b_7c7d, "{exposition}");

        // End-of-run gauges match the result's utilization report.
        for (n, &util) in r.node_utilization.iter().enumerate() {
            let g = reg
                .gauge("memsim_node_utilization", &[("node", &n.to_string())])
                .get();
            assert!(
                (g - util).abs() < 1e-12,
                "node {n}: gauge {g} vs result {util}"
            );
        }
        // The merged Perfetto export carries the memsim track.
        let json = hub.to_perfetto_json();
        assert!(json.contains("memsim"));
        assert!(json.contains("node0_bw_gbs"));
    }

    #[test]
    fn tracing_emits_epoch_spans_in_the_shared_hop_schema() {
        use coop_telemetry::{hop, TraceAssembler};
        use std::sync::Arc;

        let machine = tiny();
        let hub = Arc::new(coop_telemetry::TelemetryHub::new());
        let sim = ideal_sim(machine.clone())
            .with_telemetry(Arc::clone(&hub))
            .with_tracing();
        let apps = vec![SimApp::numa_local("a", 1.0), SimApp::numa_local("b", 1.0)];
        let all_a = ThreadAssignment::from_matrix(vec![vec![2, 2], vec![0, 0]]);
        let all_b = ThreadAssignment::from_matrix(vec![vec![0, 0], vec![2, 2]]);
        sim.run_dynamic(&apps, &[(0.0, all_a), (0.05, all_b)], 0.1)
            .unwrap();

        // Two apps x two epochs, each a complete synthetic task whose
        // causal chain walks the reallocation history.
        let asm = TraceAssembler::from_hub(&hub);
        assert_eq!(asm.len(), 4);
        for t in asm.tasks() {
            let kinds: Vec<&str> = t.hops.iter().map(|h| h.kind.as_str()).collect();
            assert_eq!(
                kinds,
                [hop::SPAWNED, hop::ENQUEUED, hop::STARTED, hop::FINISHED],
                "{:?}",
                t.name
            );
            assert!(t.completed());
            assert!(!t.truncated);
        }
        let late = asm.find("a#epoch1");
        assert_eq!(late.len(), 1);
        let late = late[0];
        let early = asm.find("a#epoch0")[0];
        assert_eq!(late.parent, Some(early.task), "epochs chain causally");
        assert_eq!(late.trace_id, early.trace_id);
        assert_eq!(asm.critical_path(late).len(), 2);
        // App "a" ran on node 0 first, then nowhere (dominant node absent
        // once its threads are withdrawn).
        assert_eq!(early.hop(hop::STARTED).unwrap().node, Some(0));
        assert_eq!(late.hop(hop::STARTED).unwrap().node, None);
        // Each epoch spans its simulated window: 50ms of hub time.
        assert!(early.total_wall_us() >= 49_000 && early.total_wall_us() <= 51_000);
        // Tracing off: the same scenario emits no trace hops.
        let hub2 = Arc::new(coop_telemetry::TelemetryHub::new());
        ideal_sim(machine.clone())
            .with_telemetry(Arc::clone(&hub2))
            .run(
                &apps,
                &ThreadAssignment::uniform_per_node(&machine, &[1, 1]),
                0.02,
            )
            .unwrap();
        assert!(TraceAssembler::from_hub(&hub2).is_empty());
    }

    #[test]
    fn telemetry_counts_sched_switches_under_oversubscription() {
        use std::sync::Arc;

        let machine = tiny();
        let hub = Arc::new(coop_telemetry::TelemetryHub::new());
        let mut effects = EffectModel::ideal();
        effects.allow_oversubscription = true;
        effects.discrete_timeslice = true;
        let sim = Simulation::new(SimConfig::new(machine.clone()).with_effects(effects))
            .with_telemetry(Arc::clone(&hub));
        // A third app without threads, whose off-grid window splits two
        // quanta in two segments each.
        let apps = vec![
            SimApp::numa_local("m", 0.25),
            SimApp::numa_local("n", 0.25),
            SimApp::numa_local("idle", 0.25).with_activity(ActivityPattern::Window {
                start_s: 0.0105,
                end_s: 0.0203,
            }),
        ];
        // 2x oversubscribed: every quantum rotates the run queue.
        let oversub = ThreadAssignment::from_matrix(vec![vec![2, 2], vec![2, 2], vec![0, 0]]);
        sim.run(&apps, &oversub, 0.05).unwrap();
        assert_eq!(
            hub.registry().counter_total("memsim_sched_switches_total"),
            2 * 50,
            "one rotation per node per quantum, however many segments it has"
        );
    }

    /// Satellite regression (simulated-vs-wall time): with an explicit
    /// anchor, every event either engine emits carries simulated time
    /// relative to that anchor — not the hub's wall clock.
    #[test]
    fn explicit_time_base_anchors_all_events() {
        use std::sync::Arc;

        let machine = tiny();
        let apps = vec![SimApp::numa_local("a", 1.0), SimApp::numa_local("b", 1.0)];
        let all_a = ThreadAssignment::from_matrix(vec![vec![2, 2], vec![0, 0]]);
        let all_b = ThreadAssignment::from_matrix(vec![vec![0, 0], vec![2, 2]]);
        for engine in [crate::EngineKind::Slice, crate::EngineKind::Event] {
            let hub = Arc::new(coop_telemetry::TelemetryHub::new());
            let mut sim = Simulation::new(
                SimConfig::new(machine.clone())
                    .with_effects(EffectModel::ideal())
                    .with_engine(engine),
            )
            .with_telemetry(Arc::clone(&hub))
            .with_tracing();
            sim.time_base_us = Some(123_000);
            sim.run_dynamic(&apps, &[(0.0, all_a.clone()), (0.05, all_b.clone())], 0.1)
                .unwrap();
            let events = hub.events();
            assert!(!events.is_empty(), "{engine}: no events emitted");
            for e in &events {
                assert!(
                    (123_000..=223_000).contains(&e.ts_us),
                    "{engine}: event {:?} at {} outside the anchored 100ms window",
                    e.name,
                    e.ts_us
                );
            }
        }
    }

    #[test]
    fn timeline_series_cover_run() {
        let machine = tiny();
        let sim = ideal_sim(machine.clone());
        let apps = vec![SimApp::numa_local("a", 1.0)];
        let assignment = ThreadAssignment::uniform_per_node(&machine, &[1]);
        let r = sim.run(&apps, &assignment, 0.05).unwrap();
        assert!(!r.times_s.is_empty());
        assert_eq!(r.times_s.len(), r.apps[0].gflops_series.len());
        assert!(r.times_s.windows(2).all(|w| w[0] < w[1]));
        assert!(*r.times_s.last().unwrap() <= 0.05 + 1e-9);
    }
}

#[cfg(test)]
mod timeslice_tests {
    use super::*;
    use crate::{EffectModel, EngineKind};
    use numa_topology::presets::{paper_model_machine, tiny};

    /// Discrete round-robin slicing matches the continuous-share model's
    /// long-run throughput (within rounding) for an oversubscribed
    /// compute-bound load.
    #[test]
    fn discrete_matches_continuous_long_run() {
        let machine = paper_model_machine();
        let apps = vec![
            crate::SimApp::numa_local("a", 10.0),
            crate::SimApp::numa_local("b", 10.0),
        ];
        let full: Vec<usize> = machine.nodes().map(|n| n.num_cores()).collect();
        let oversub = roofline_numa::ThreadAssignment::from_matrix(vec![full.clone(), full]);

        let mut continuous = EffectModel::ideal();
        continuous.allow_oversubscription = true;
        let mut discrete = continuous.clone();
        discrete.discrete_timeslice = true;

        let rc = Simulation::new(SimConfig::new(machine.clone()).with_effects(continuous))
            .run(&apps, &oversub, 0.1)
            .unwrap();
        let rd = Simulation::new(SimConfig::new(machine.clone()).with_effects(discrete))
            .run(&apps, &oversub, 0.1)
            .unwrap();
        let ratio = rd.total_gflops() / rc.total_gflops();
        assert!(
            (ratio - 1.0).abs() < 0.02,
            "discrete vs continuous long-run ratio: {ratio}"
        );
        // And per-app fairness holds in both.
        assert!((rd.app_gflops(0) - rd.app_gflops(1)).abs() / rd.app_gflops(0) < 0.02);
    }

    /// Without over-subscription the discrete flag changes nothing (on one
    /// grid: the flag alone is compared).
    #[test]
    fn discrete_is_identity_without_oversubscription() {
        let machine = tiny();
        let apps = vec![crate::SimApp::numa_local("a", 1.0)];
        let a = roofline_numa::ThreadAssignment::uniform_per_node(&machine, &[2]);
        let base = EffectModel::ideal();
        let mut disc = base.clone();
        disc.discrete_timeslice = true;
        let sim = |effects| {
            Simulation::new(
                SimConfig::new(machine.clone())
                    .with_effects(effects)
                    .with_engine(EngineKind::Slice),
            )
        };
        let r1 = sim(base).run(&apps, &a, 0.02).unwrap();
        let r2 = sim(disc).run(&apps, &a, 0.02).unwrap();
        assert_eq!(r1, r2);
    }

    /// Round-robin time-slicing exists only on a quantum grid, so the flag
    /// brings the grid with it under the default engine (`Event`): an
    /// over-subscribed run rotates once per node per quantum, is the
    /// `Slice` run bit for bit, and is not the continuous one.
    #[test]
    fn discrete_timeslice_rotates_under_the_event_default() {
        use std::sync::Arc;

        assert_eq!(EngineKind::default(), EngineKind::Event);
        let machine = tiny();
        let apps = vec![
            crate::SimApp::numa_local("m", 0.25),
            crate::SimApp::numa_local("n", 0.25),
        ];
        let oversub = roofline_numa::ThreadAssignment::from_matrix(vec![vec![2, 2], vec![2, 2]]);
        let mut continuous = EffectModel::ideal();
        continuous.allow_oversubscription = true;
        let mut discrete = continuous.clone();
        discrete.discrete_timeslice = true;
        let config = |effects| SimConfig::new(machine.clone()).with_effects(effects);

        let hub = Arc::new(coop_telemetry::TelemetryHub::new());
        let event = Simulation::new(config(discrete.clone()))
            .with_telemetry(Arc::clone(&hub))
            .run(&apps, &oversub, 0.05)
            .unwrap();
        assert_eq!(
            hub.registry().counter_total("memsim_sched_switches_total"),
            2 * 50,
            "one rotation per node per quantum"
        );
        let slice = Simulation::new(config(discrete).with_engine(EngineKind::Slice))
            .run(&apps, &oversub, 0.05)
            .unwrap();
        assert_eq!(event, slice);
        let fair = Simulation::new(config(continuous))
            .run(&apps, &oversub, 0.05)
            .unwrap();
        assert_ne!(event, fair);
    }

    /// Discrete slicing is deterministic and conserves node bandwidth.
    #[test]
    fn discrete_is_deterministic_and_conservative() {
        let machine = tiny();
        let apps = vec![
            crate::SimApp::numa_local("m", 0.25),
            crate::SimApp::numa_local("n", 0.25),
        ];
        // 2x oversubscribed memory-bound threads.
        let oversub = roofline_numa::ThreadAssignment::from_matrix(vec![vec![2, 2], vec![2, 2]]);
        let mut effects = EffectModel::ideal();
        effects.allow_oversubscription = true;
        effects.discrete_timeslice = true;
        let sim = Simulation::new(SimConfig::new(machine.clone()).with_effects(effects));
        let r1 = sim.run(&apps, &oversub, 0.05).unwrap();
        let r2 = sim.run(&apps, &oversub, 0.05).unwrap();
        assert_eq!(r1, r2);
        for (n, &gbs) in r1.node_avg_gbs.iter().enumerate() {
            let cap = machine.node(NodeId(n)).bandwidth_gbs;
            assert!(gbs <= cap * (1.0 + 1e-9), "node {n}: {gbs} > {cap}");
        }
    }
}

/// The dense arbitration this crate ran before demand columns: a
/// `threads × nodes` demand matrix over every assigned thread, app-major,
/// idle or not, each target walking one stride-`num_nodes` column of it
/// seven times. Kept as the oracle for [`NodeBlocks`] and [`DemandCols`]:
/// everything [`compute_rates`] produces must equal it bit for bit, each
/// slot read at its thread's `pos`, because every term the blocks and the
/// remote columns skip is an exact `+ 0.0` or was already gated on `d > 0`
/// here, and every sum still takes its addends in ascending `pos`.
#[cfg(test)]
mod dense_reference {
    use super::*;
    use crate::{ActivityPattern, EffectModel};
    use coop_alloc::rng::StdRng;
    use numa_topology::{LinkMatrix, MachineBuilder};

    /// Per app: active at `t`, as its own pattern says.
    pub(super) fn active_flags(apps: &[SimApp], t: f64) -> Vec<bool> {
        apps.iter().map(|app| app.activity.is_active(t)).collect()
    }

    /// A per-live-thread buffer of `s` as bits, each at its thread's
    /// `pos` (the order of the app-major expansion); an idle thread's
    /// entry is 0.
    pub(super) fn bits_by_pos(blocks: &NodeBlocks, s: &RateScratch, per_live: &[f64]) -> Vec<u64> {
        let mut bits = vec![0; blocks.threads.len()];
        for (&i, x) in s.live().iter().zip(per_live) {
            bits[blocks.threads[i].pos] = x.to_bits();
        }
        bits
    }

    /// The slots of `blocks` whose app is active, block after block.
    pub(super) fn active_slots(blocks: &NodeBlocks, active: &[bool]) -> Vec<usize> {
        (0..blocks.threads.len())
            .filter(|&i| active[blocks.threads[i].app])
            .collect()
    }

    pub(super) fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A thread of the app-major expansion, as the oracles see it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(super) struct Placed {
        pub(super) app: usize,
        pub(super) home: NodeId,
    }

    /// `assignment`'s app-major expansion, read off its matrix: thread
    /// `pos` of it is entry `pos`.
    pub(super) fn expansion(assignment: &ThreadAssignment, num_nodes: usize) -> Vec<Placed> {
        let mut threads = Vec::new();
        for app in 0..assignment.num_apps() {
            for node in 0..num_nodes {
                let th = Placed {
                    app,
                    home: NodeId(node),
                };
                threads.extend(std::iter::repeat_n(th, assignment.row(app)[node]));
            }
        }
        threads
    }

    /// `assignment`'s non-zero cells, app-major.
    pub(super) fn cells_of(assignment: &ThreadAssignment) -> Vec<Cell> {
        non_zero((0..assignment.num_apps()).map(|app| assignment.row(app))).collect()
    }

    /// `assignment`'s node blocks for `apps`.
    pub(super) fn blocks_of(
        assignment: &ThreadAssignment,
        apps: &[SimApp],
        num_nodes: usize,
    ) -> NodeBlocks {
        let mut blocks = NodeBlocks::default();
        blocks.expand(&cells_of(assignment), apps, num_nodes);
        blocks
    }

    fn dense_demand_row(app: &SimApp, home: NodeId, cap: f64, row: &mut [f64]) {
        let num_nodes = row.len();
        row.fill(0.0);
        if cap == 0.0 {
            return;
        }
        let total = cap / app.spec.ai;
        for (node, d) in row.iter_mut().enumerate() {
            *d = total * app.spec.placement.fraction(home, NodeId(node), num_nodes);
        }
    }

    /// One target over the dense matrix; grants land in `col[thread]`
    /// (slots with zero demand are left untouched).
    fn dense_arbitrate_node(
        machine: &Machine,
        effects: &EffectModel,
        target: usize,
        threads: &[Placed],
        demand_to: &[f64],
        num_apps: usize,
        col: &mut [f64],
    ) -> (f64, f64) {
        let num_nodes = machine.num_nodes();
        let node = machine.node(NodeId(target));
        let toward = || {
            demand_to
                .chunks_exact(num_nodes)
                .enumerate()
                .map(|(i, row)| (i, row[target]))
        };

        let mut apps_here = vec![false; num_apps];
        for (i, d) in toward() {
            if d > 0.0 {
                apps_here[threads[i].app] = true;
            }
        }
        let distinct = apps_here.iter().filter(|&&b| b).count();
        let interference = if distinct > 1 {
            (1.0 - effects.multi_app_interference * (distinct - 1) as f64).max(0.0)
        } else {
            1.0
        };
        let capacity = node.bandwidth_gbs * interference;

        let mut remote_demand_from = vec![0.0f64; num_nodes];
        for (i, d) in toward() {
            let src = threads[i].home.0;
            if src != target {
                remote_demand_from[src] += d;
            }
        }
        let mut served_from = vec![0.0f64; num_nodes];
        for src in 0..num_nodes {
            served_from[src] = if src == target {
                0.0
            } else {
                let link =
                    machine.links().link(NodeId(src), NodeId(target)) * effects.remote_efficiency;
                remote_demand_from[src].min(link)
            };
        }
        let remote_cost = 1.0 + effects.remote_service_overhead;
        let total_remote: f64 = served_from.iter().sum();
        if total_remote * remote_cost > capacity {
            let scale = capacity / (total_remote * remote_cost);
            for sf in served_from.iter_mut() {
                *sf *= scale;
            }
        }

        let remaining = (capacity - served_from.iter().sum::<f64>() * remote_cost).max(0.0);
        let local_demanders = toward()
            .filter(|&(i, d)| threads[i].home.0 == target && d > 0.0)
            .count();
        let baseline = remaining / node.num_cores().max(local_demanders) as f64;
        let mut prov = vec![0.0f64; threads.len()];
        let mut used = 0.0f64;
        let mut local_need = 0.0f64;
        for (i, d) in toward() {
            if threads[i].home.0 == target && d > 0.0 {
                let g = d.min(baseline);
                prov[i] = g;
                used += g;
                local_need += d - g;
            }
        }
        let rest = (remaining - used).max(0.0);
        let ratio = if local_need > 1e-15 {
            (rest / local_need).min(1.0)
        } else {
            0.0
        };

        let total_demand: f64 = toward().map(|(_, d)| d).sum();
        let u = (total_demand / capacity).min(1.0);
        let sat = if u > effects.saturation_knee && effects.saturation_loss > 0.0 {
            1.0 - effects.saturation_loss * (u - effects.saturation_knee)
                / (1.0 - effects.saturation_knee)
        } else {
            1.0
        };
        let streamer_threshold = 0.5 * baseline;

        let mut served_total = 0.0f64;
        let mut remote_in = 0.0f64;
        for (i, d) in toward() {
            if d <= 0.0 {
                continue;
            }
            let thread_sat = if d > streamer_threshold { sat } else { 1.0 };
            if threads[i].home.0 == target {
                let need = d - prov[i];
                let final_local = (prov[i] + ratio * need) * thread_sat;
                col[i] = final_local;
                served_total += final_local;
            } else {
                let src = threads[i].home.0;
                let share = if remote_demand_from[src] > 1e-15 {
                    served_from[src] * d / remote_demand_from[src]
                } else {
                    0.0
                };
                let final_remote = share * thread_sat;
                col[i] = final_remote;
                served_total += final_remote;
                remote_in += final_remote;
            }
        }
        (served_total, remote_in)
    }

    /// `(cap, granted, node_served, remote_in)` the dense way, `cap` and
    /// `granted` one per assigned thread, app-major; `remote_in` is the
    /// remote share of each node's served bandwidth, which only this
    /// oracle still computes (the test wants fleets that have some).
    #[allow(clippy::too_many_arguments)] // the prologue's bundle
    fn dense_rates(
        machine: &Machine,
        effects: &EffectModel,
        apps: &[SimApp],
        blocks: &NodeBlocks,
        threads: &[Placed],
        t: f64,
        rr_offset: &[usize],
        seed: u64,
    ) -> [Vec<f64>; 4] {
        let num_nodes = machine.num_nodes();
        let mut s = RateScratch::default();
        rates_prologue(
            machine,
            effects,
            machine.core_peak_gflops(),
            apps,
            &active_flags(apps, t),
            blocks,
            (seed, 0),
            rr_offset,
            &mut s,
        );
        // The prologue's capacities, each at its thread's `pos`; an idle
        // thread's is 0.
        let mut cap = vec![0.0f64; threads.len()];
        for (&i, &c) in s.live().iter().zip(&s.cap) {
            cap[blocks.threads[i].pos] = c;
        }
        let mut demand_to = vec![0.0f64; threads.len() * num_nodes];
        for (i, th) in threads.iter().enumerate() {
            dense_demand_row(
                &apps[th.app],
                th.home,
                cap[i],
                &mut demand_to[i * num_nodes..(i + 1) * num_nodes],
            );
        }
        let mut granted = vec![0.0f64; threads.len()];
        let mut served = vec![0.0f64; num_nodes];
        let mut remote_in = vec![0.0f64; num_nodes];
        let mut col = vec![0.0f64; threads.len()];
        for target in 0..num_nodes {
            (served[target], remote_in[target]) = dense_arbitrate_node(
                machine,
                effects,
                target,
                threads,
                &demand_to,
                apps.len(),
                &mut col,
            );
            for (i, row) in demand_to.chunks_exact(num_nodes).enumerate() {
                if row[target] > 0.0 {
                    granted[i] += col[i];
                }
            }
        }
        [cap, granted, served, remote_in]
    }

    /// A random fleet the benchmark's all-`Local`, fully subscribed shapes
    /// do not reach: mixed placements (spreads with zero fractions),
    /// inactive apps, apps with no threads, over-subscribed nodes, uneven
    /// node bandwidths and links.
    pub(super) fn random_fleet(rng: &mut StdRng) -> (Machine, Vec<SimApp>, ThreadAssignment) {
        let num_nodes = rng.gen_range(1..7usize);
        let mut links = LinkMatrix::uniform(num_nodes, 8.0);
        let mut builder = MachineBuilder::new().core_peak_gflops(10.0);
        for from in 0..num_nodes {
            builder = builder.add_node(rng.gen_range(1..5usize), rng.gen_range(4.0..40.0), 16.0);
            for to in 0..num_nodes {
                if from != to {
                    links.set_link(NodeId(from), NodeId(to), rng.gen_range(0.5..12.0));
                }
            }
        }
        let machine = builder.link_matrix(links).build().unwrap();

        let num_apps = rng.gen_range(1..9usize);
        let mut matrix = Vec::with_capacity(num_apps);
        let apps: Vec<SimApp> = (0..num_apps)
            .map(|a| {
                let ai = rng.gen_range(0.02..16.0);
                let name = format!("a{a}");
                let app = match rng.gen_range(0..3usize) {
                    0 => SimApp::numa_local(&name, ai),
                    1 => SimApp::numa_bad(&name, ai, NodeId(rng.gen_range(0..num_nodes))),
                    _ => {
                        let mut fractions: Vec<f64> = (0..num_nodes)
                            .map(|_| {
                                if rng.gen_bool(0.4) {
                                    0.0
                                } else {
                                    rng.gen_range(0.1..1.0)
                                }
                            })
                            .collect();
                        let sum: f64 = fractions.iter().sum();
                        if sum == 0.0 {
                            fractions[0] = 1.0;
                        } else {
                            fractions.iter_mut().for_each(|f| *f /= sum);
                        }
                        SimApp::spread(&name, ai, fractions)
                    }
                };
                // Evaluated at t = 0.5: a quarter of the apps are idle.
                let app = if rng.gen_bool(0.25) {
                    app.with_activity(ActivityPattern::Window {
                        start_s: 1.0,
                        end_s: 2.0,
                    })
                } else {
                    app
                };
                // One app in five has no threads at all; the others place up
                // to 3 per node, which over-subscribes small nodes.
                let idle = rng.gen_bool(0.2);
                matrix.push(
                    (0..num_nodes)
                        .map(|_| if idle { 0 } else { rng.gen_range(0..4usize) })
                        .collect::<Vec<_>>(),
                );
                app.with_sync_overhead(if rng.gen_bool(0.5) { 0.0 } else { 0.03 })
            })
            .collect();
        (machine, apps, ThreadAssignment::from_matrix(matrix))
    }

    /// A fully subscribed fleet of the benchmark's shape: `nodes` nodes of
    /// `cores` cores, one NUMA-local tenant thread on every core, striped;
    /// memory- and compute-bound tenants by a seeded draw, each bursting at
    /// a 50 % duty in one of 16 phase groups of a 1 s period.
    pub(super) fn bursting_fleet(
        nodes: usize,
        cores: usize,
        rng: &mut StdRng,
    ) -> (Machine, Vec<SimApp>, ThreadAssignment) {
        let machine = MachineBuilder::new()
            .symmetric_nodes(nodes, cores)
            .core_peak_gflops(12.8)
            .node_bandwidth_gbs(80.0)
            .uniform_link_gbs(12.0)
            .build()
            .unwrap();
        let tenants = nodes * cores;
        let apps: Vec<SimApp> = (0..tenants)
            .map(|i| {
                let ai = if rng.gen_bool(0.5) { 1.0 / 32.0 } else { 1.0 };
                SimApp::numa_local(&format!("t{i}"), ai).with_activity(ActivityPattern::Bursts {
                    period_s: 1.0,
                    duty: 0.5,
                    phase_s: rng.gen_range(0..16usize) as f64 / 16.0,
                })
            })
            .collect();
        let mut striped = vec![vec![0usize; nodes]; tenants];
        for (i, row) in striped.iter_mut().enumerate() {
            row[i % nodes] = 1;
        }
        (machine, apps, ThreadAssignment::from_matrix(striped))
    }

    /// Holds [`compute_rates`] at instant `t` to [`dense_rates`] bit for
    /// bit, each live slot at its thread's `pos`, twice through one scratch (the second call must not see the first one's
    /// columns, stamps or grants). Returns the dense remote inflow per
    /// node, how many targets were arbitrated with no remote entry and how
    /// many with some, and whether some app was idle.
    #[allow(clippy::too_many_arguments)] // the prologue's bundle
    fn assert_matches_dense(
        machine: &Machine,
        effects: &EffectModel,
        apps: &[SimApp],
        assignment: &ThreadAssignment,
        t: f64,
        rr_offset: &[usize],
        seed: u64,
    ) -> (Vec<f64>, [usize; 2], bool) {
        let blocks = &blocks_of(assignment, apps, machine.num_nodes());
        let threads = expansion(assignment, machine.num_nodes());
        // Jitter draws are part of what must match.
        let [cap, granted, served, remote_in] =
            dense_rates(machine, effects, apps, blocks, &threads, t, rr_offset, seed);
        let active = active_flags(apps, t);
        let mut s = RateScratch::default();
        for _ in 0..2 {
            compute_rates(
                machine,
                effects,
                machine.core_peak_gflops(),
                apps,
                &active,
                blocks,
                (seed, 0),
                rr_offset,
                &mut s,
            );
            assert_eq!(
                s.live(),
                active_slots(blocks, &active),
                "seed {seed}, t {t}"
            );
            assert_eq!(
                bits_by_pos(blocks, &s, &s.cap),
                bits(&cap),
                "seed {seed}, t {t}: cap"
            );
            assert_eq!(
                bits_by_pos(blocks, &s, &s.granted),
                bits(&granted),
                "seed {seed}, t {t}: granted"
            );
            assert_eq!(
                bits(&s.node_served),
                bits(&served),
                "seed {seed}, t {t}: node_served"
            );
        }
        let mut targets = [0usize; 2];
        for target in 0..machine.num_nodes() {
            targets[usize::from(!s.remote.column(target).0.is_empty())] += 1;
        }
        (remote_in, targets, active.contains(&false))
    }

    #[test]
    fn demand_columns_match_the_dense_matrix_bit_for_bit() {
        let mut gen = StdRng::seed_from_u64(0x5eed_c015);
        let mut remote_fleets = 0;
        // Arbitrated targets without and with remote entries: both
        // branches of the remote-first stage.
        let mut targets = [0usize; 2];
        // Arbitrations with every app active and with some idle, and with
        // some idle under discrete time-slicing with jitter on.
        let mut walks = [0usize; 3];
        let effects = |case: u64| match case % 4 {
            0 => EffectModel::skylake_like(),
            1 => EffectModel {
                jitter: 0.01,
                ..EffectModel::skylake_like()
            },
            _ => EffectModel::ideal(),
        };
        for case in 0..400u64 {
            let (machine, apps, assignment) = random_fleet(&mut gen);
            for app in &apps {
                app.spec.validate(&machine).unwrap();
            }
            // Every other case time-sliced, its windows rotated by a few.
            let discrete = case % 2 == 1;
            let rr_offset: Vec<usize> = (0..machine.num_nodes())
                .map(|node| (case as usize + 3 * node) % 5)
                .collect();
            let effects = EffectModel {
                discrete_timeslice: discrete,
                ..effects(case)
            };
            let (remote_in, seen, some_idle) = assert_matches_dense(
                &machine,
                &effects,
                &apps,
                &assignment,
                0.5,
                &rr_offset,
                case,
            );
            remote_fleets += usize::from(remote_in.iter().any(|&r| r > 0.0));
            targets = [targets[0] + seen[0], targets[1] + seen[1]];
            walks[usize::from(some_idle)] += 1;
            walks[2] += usize::from(some_idle && discrete && effects.jitter > 0.0);
        }
        // The benchmark's all-local fleets, where no target has a remote
        // entry, at instants that catch different phase groups bursting.
        for (case, (nodes, cores)) in [(8, 12), (16, 16), (64, 16)].into_iter().enumerate() {
            let (machine, apps, assignment) = bursting_fleet(nodes, cores, &mut gen);
            let rr_offset = vec![0; nodes];
            for (k, t) in [0.03, 0.27, 0.5, 0.74, 0.98].into_iter().enumerate() {
                let seed = 1000 + 10 * case as u64 + k as u64;
                let (_, seen, _) = assert_matches_dense(
                    &machine,
                    &effects(seed),
                    &apps,
                    &assignment,
                    t,
                    &rr_offset,
                    seed,
                );
                assert_eq!(seen[1], 0, "{nodes} x {cores} at {t} s: all local");
                targets[0] += seen[0];
            }
        }
        assert!(
            remote_fleets > 100,
            "the generator must exercise remote traffic"
        );
        assert!(
            targets.iter().all(|&n| n > 100),
            "targets without / with remote entries: {targets:?}"
        );
        assert!(
            walks.iter().all(|&n| n > 20),
            "all active / some idle / some idle, sliced and jittered: {walks:?}"
        );
    }

    /// The blocks are the app-major expansion sorted by home node: each
    /// node's block holds as many threads as the assignment's column for
    /// it, in ascending `pos`, and the thread at each `pos` is the
    /// expansion's; the remote list holds the threads whose placement
    /// demands another node, in ascending `pos`. One `NodeBlocks` is
    /// re-expanded from fleet to fleet, so nothing of an earlier
    /// assignment may stay behind. Mixed placements reach the merge:
    /// targets whose column holds local and remote entries, some with a
    /// remote entry between two local ones.
    #[test]
    fn node_blocks_hold_each_nodes_threads_in_expansion_order() {
        let mut gen = StdRng::seed_from_u64(0xb10c_5eed);
        let (mut blocks, mut s) = (NodeBlocks::default(), RateScratch::default());
        let mut merged = [0usize; 2];
        for case in 0..200u64 {
            let (machine, apps, assignment) = random_fleet(&mut gen);
            let num_nodes = machine.num_nodes();
            blocks.expand(&cells_of(&assignment), &apps, num_nodes);
            let expansion = expansion(&assignment, num_nodes);
            let mut seen: Vec<usize> = blocks.threads.iter().map(|th| th.pos).collect();
            seen.sort_unstable();
            assert!(
                seen.iter().copied().eq(0..expansion.len()),
                "case {case}: positions"
            );
            for node in 0..num_nodes {
                let column: usize = (0..apps.len()).map(|app| assignment.row(app)[node]).sum();
                let block = &blocks.threads[blocks.block(node)];
                assert_eq!(block.len(), column, "case {case}: node {node}");
                assert!(
                    block.windows(2).all(|w| w[0].pos < w[1].pos),
                    "case {case}: node {node} out of order"
                );
                for th in block {
                    let home = NodeId(node);
                    assert_eq!(
                        expansion[th.pos],
                        Placed { app: th.app, home },
                        "case {case}"
                    );
                }
            }
            let remote: Vec<(usize, NodeId)> = (blocks.remote.iter())
                .map(|&(slot, home)| (blocks.threads[slot].pos, home))
                .collect();
            let expected: Vec<(usize, NodeId)> = (expansion.iter().enumerate())
                .filter(|(_, th)| demands_off_home(&apps[th.app].spec.placement, th.home))
                .map(|(pos, th)| (pos, th.home))
                .collect();
            assert_eq!(remote, expected, "case {case}: remote list");

            let effects = EffectModel::skylake_like();
            let (peak, flags) = (machine.core_peak_gflops(), active_flags(&apps, 0.5));
            let rr_offset = vec![0; num_nodes];
            compute_rates(
                &machine,
                &effects,
                peak,
                &apps,
                &flags,
                &blocks,
                (case, 0),
                &rr_offset,
                &mut s,
            );
            for target in 0..num_nodes {
                let pos = |k: &usize| blocks.threads[s.live[*k]].pos;
                let local: Vec<usize> = (s.live_start[target]..s.live_start[target + 1])
                    .filter(|&k| s.local[k] > 0.0)
                    .map(|k| pos(&k))
                    .collect();
                let remote: Vec<usize> = s.remote.column(target).0.iter().map(pos).collect();
                assert!(remote.windows(2).all(|w| w[0] < w[1]), "case {case}");
                if let (Some(&first), Some(&last), false) =
                    (local.first(), local.last(), remote.is_empty())
                {
                    merged[0] += 1;
                    merged[1] += usize::from(remote.iter().any(|&p| first < p && p < last));
                }
            }
        }
        assert!(
            merged.iter().all(|&n| n > 100),
            "targets merging local and remote entries, interleaved: {merged:?}"
        );
    }
}

/// The per-thread capacity loop [`rates_prologue`] ran before it took duty,
/// switch and sync once per node and app, and before it walked the active
/// threads alone, verbatim, over a census and a time-slicing window of its
/// own: the oracle for those changes, which the dense oracle cannot be, as
/// it shares the prologue.
#[cfg(test)]
mod capacity_reference {
    use super::dense_reference::{
        active_flags, active_slots, bits, bits_by_pos, blocks_of, expansion, Placed,
    };
    use super::*;
    use crate::EffectModel;
    use coop_alloc::rng::StdRng;

    /// What the loop read: the active set, the per-node and per-app
    /// census, and which threads hold a core.
    struct Census {
        active: Vec<bool>,
        runnable_per_node: Vec<usize>,
        app_threads_total: Vec<usize>,
        on_core: Vec<bool>,
    }

    /// One capacity per assigned thread, and which threads held a core.
    #[allow(clippy::too_many_arguments)] // the prologue's bundle
    fn reference_cap(
        machine: &Machine,
        effects: &EffectModel,
        peak: f64,
        apps: &[SimApp],
        threads: &[Placed],
        t: f64,
        (seed, now): (u64, Tick),
        rr_offset: &[usize],
    ) -> (Vec<f64>, Vec<bool>) {
        let discrete = effects.discrete_timeslice;
        let mut s = Census {
            active: apps.iter().map(|app| app.activity.is_active(t)).collect(),
            runnable_per_node: vec![0; machine.num_nodes()],
            app_threads_total: vec![0; apps.len()],
            on_core: vec![true; threads.len()],
        };
        for th in threads {
            if s.active[th.app] {
                s.runnable_per_node[th.home.0] += 1;
                s.app_threads_total[th.app] += 1;
            }
        }
        // Discrete time-slicing: pick which runnable threads hold a core
        // this quantum (a window per node, rotated by `rr_offset`).
        if discrete {
            #[allow(clippy::needless_range_loop)] // indexes three parallel structures
            for node in 0..machine.num_nodes() {
                let cores = machine.node(NodeId(node)).num_cores();
                let runnable: Vec<usize> = threads
                    .iter()
                    .enumerate()
                    .filter(|(_, th)| th.home.0 == node && s.active[th.app])
                    .map(|(i, _)| i)
                    .collect();
                if runnable.len() > cores {
                    for (pos, &i) in runnable.iter().enumerate() {
                        let slot = (pos + runnable.len() - rr_offset[node] % runnable.len())
                            % runnable.len();
                        s.on_core[i] = slot < cores;
                    }
                }
            }
        }
        let mut cap = vec![0.0; threads.len()];
        // Per-thread compute capacity (GFLOPS).
        for (i, th) in threads.iter().enumerate() {
            if !s.active[th.app] {
                continue;
            }
            let cores = machine.node(th.home).num_cores() as f64;
            let runnable = s.runnable_per_node[th.home.0] as f64;
            let duty = if discrete {
                if s.on_core[i] {
                    1.0
                } else {
                    0.0
                }
            } else {
                (cores / runnable).min(1.0)
            };
            let switch = if runnable > cores {
                1.0 - effects.oversub_switch_loss
            } else {
                1.0
            };
            let alpha = apps[th.app].sync_overhead;
            let sync = 1.0 / (1.0 + alpha * (s.app_threads_total[th.app] as f64 - 1.0));
            let jitter = if effects.jitter > 0.0 {
                let segment = splitmix64(splitmix64(seed).wrapping_add(now));
                let u = f64::sample(splitmix64(segment.wrapping_add(i as u64)));
                1.0 + effects.jitter * (u * 2.0 - 1.0)
            } else {
                1.0
            };
            cap[i] = peak * duty * switch * sync * jitter;
        }
        (cap, s.on_core)
    }

    /// Over random fleets — over-subscribed nodes, sync overhead, idle
    /// apps — with jitter on and off, in continuous and discrete time, the
    /// prologue's capacities are the per-thread product's of the active
    /// threads bit for bit.
    #[test]
    fn capacity_factors_match_the_per_thread_product_bit_for_bit() {
        let mut gen = StdRng::seed_from_u64(0x0ca9_f4c7);
        // Fleets with an over-subscribed node, an active app with sync
        // overhead, an idle app, a thread time-sliced off its core, and an
        // idle app while a thread is time-sliced off.
        let mut seen = [0usize; 5];
        for case in 0..480u64 {
            let (machine, apps, assignment) = super::dense_reference::random_fleet(&mut gen);
            let blocks = blocks_of(&assignment, &apps, machine.num_nodes());
            let effects = EffectModel {
                jitter: if case % 4 < 2 { 0.01 } else { 0.0 },
                discrete_timeslice: case % 2 == 1,
                ..EffectModel::skylake_like()
            };
            let rr_offset: Vec<usize> = (0..machine.num_nodes())
                .map(|_| gen.gen_range(0..8usize))
                .collect();
            let (peak, t, key) = (machine.core_peak_gflops(), 0.5, (case, case * 1_000_003));
            let mut s = RateScratch::default();
            let flags = active_flags(&apps, t);
            rates_prologue(
                &machine, &effects, peak, &apps, &flags, &blocks, key, &rr_offset, &mut s,
            );
            let (cap, on_core) = reference_cap(
                &machine,
                &effects,
                peak,
                &apps,
                &expansion(&assignment, machine.num_nodes()),
                t,
                key,
                &rr_offset,
            );
            assert_eq!(s.live(), active_slots(&blocks, &flags), "case {case}");
            assert_eq!(
                bits_by_pos(&blocks, &s, &s.cap),
                bits(&cap),
                "case {case}: cap"
            );

            let oversubscribed = (machine.nodes().zip(s.live_start.windows(2)))
                .any(|(node, live)| live[1] - live[0] > node.num_cores());
            let synced = (0..apps.len()).any(|a| flags[a] && apps[a].sync_overhead > 0.0);
            let idle = flags.contains(&false);
            let sliced = on_core.contains(&false);
            let hits = [oversubscribed, synced, idle, sliced, idle && sliced];
            for (n, hit) in seen.iter_mut().zip(hits) {
                *n += usize::from(hit);
            }
        }
        assert!(seen.iter().all(|&n| n > 50), "{seen:?}");
    }

    /// A segment arbitrated again — a cut taken twice, with other
    /// arbitrations in between — draws the jitter it drew the first time,
    /// and a segment that starts at another tick draws other numbers: a
    /// draw is keyed by (seed, thread, segment start), not read off a
    /// stream.
    #[test]
    fn re_arbitrating_a_segment_draws_the_same_jitter() {
        let mut gen = StdRng::seed_from_u64(0x0de7_a11e);
        let effects = EffectModel {
            jitter: 0.01,
            ..EffectModel::skylake_like()
        };
        let mut jittered = 0;
        for case in 0..64u64 {
            let (machine, apps, assignment) = super::dense_reference::random_fleet(&mut gen);
            let blocks = blocks_of(&assignment, &apps, machine.num_nodes());
            let (peak, flags) = (machine.core_peak_gflops(), active_flags(&apps, 0.5));
            let rr_offset = vec![0; machine.num_nodes()];
            let mut s = RateScratch::default();
            let cap_bits = |now: Tick, s: &mut RateScratch| {
                rates_prologue(
                    &machine,
                    &effects,
                    peak,
                    &apps,
                    &flags,
                    &blocks,
                    (case, now),
                    &rr_offset,
                    s,
                );
                bits_by_pos(&blocks, s, &s.cap)
            };
            let first = cap_bits(1_000_000, &mut s);
            let later = cap_bits(2_000_000, &mut s);
            for now in [0, 1_000_001, 3_000_000] {
                compute_rates(
                    &machine,
                    &effects,
                    peak,
                    &apps,
                    &flags,
                    &blocks,
                    (case, now),
                    &rr_offset,
                    &mut s,
                );
            }
            assert_eq!(cap_bits(1_000_000, &mut s), first, "case {case}");
            if first.iter().any(|&c| c != 0) {
                assert_ne!(later, first, "case {case}: another segment, other draws");
                jittered += 1;
            }
        }
        assert!(jittered > 30, "{jittered} fleets with a running thread");
    }
}

/// Wall-clock cost of one warm [`compute_rates`] call on three shapes:
/// `ctl_paper`'s (the Table III template's uneven assignment, 80 threads on
/// the paper's 4-node Skylake, skylake-like effects, then without their
/// jitter), a 1 024 × 64 bursting
/// fleet with about half its apps idle, and the outage fleet's 16 nodes
/// of 18 cores with 256 apps, 288 threads (32 apps hold a reclaimed core)
/// and 20 apps down. Ignored: it measures the host. Run it with
/// `cargo test --release -p memsim --lib compute_rates_per_call -- --ignored --nocapture`.
#[cfg(test)]
mod kernel_timing {
    use super::dense_reference::{active_flags, blocks_of, bursting_fleet};
    use super::*;
    use crate::EffectModel;
    use coop_alloc::rng::StdRng;
    use numa_topology::MachineBuilder;
    use std::time::Instant;

    type Shape = (Machine, EffectModel, Vec<SimApp>, ThreadAssignment);

    fn ctl_paper() -> Shape {
        let scenario = crate::scenario::template();
        let threads = scenario.assignments[0].threads.clone();
        let apps = scenario.apps;
        let assignment = ThreadAssignment::from_matrix(threads);
        (
            scenario.machine,
            EffectModel::skylake_like(),
            apps,
            assignment,
        )
    }

    fn bursting() -> Shape {
        let (machine, apps, assignment) =
            bursting_fleet(64, 16, &mut StdRng::seed_from_u64(0xb0_2575));
        (machine, EffectModel::ideal(), apps, assignment)
    }

    fn outages() -> Shape {
        let (nodes, tenants) = (16, 256);
        let machine = MachineBuilder::new()
            .symmetric_nodes(nodes, 18)
            .core_peak_gflops(12.8)
            .node_bandwidth_gbs(80.0)
            .uniform_link_gbs(12.0)
            .build()
            .unwrap();
        let down = ActivityPattern::Window {
            start_s: 1.0,
            end_s: 2.0,
        };
        let apps: Vec<SimApp> = (0..tenants)
            .map(|i| {
                let ai = if i % 2 == 0 { 1.0 / 32.0 } else { 1.0 };
                let app = SimApp::numa_local(&format!("t{i}"), ai);
                if (100..120).contains(&i) {
                    app.with_activity(down.clone())
                } else {
                    app
                }
            })
            .collect();
        let rows = (0..tenants)
            .map(|i| {
                let mut row = vec![0; nodes];
                row[i % nodes] = 1 + usize::from(i < 32);
                row
            })
            .collect();
        let assignment = ThreadAssignment::from_matrix(rows);
        (machine, EffectModel::ideal(), apps, assignment)
    }

    #[test]
    #[ignore]
    fn compute_rates_per_call() {
        for (name, (machine, effects, apps, assignment)) in [
            ("ctl_paper 80 x 4", ctl_paper()),
            ("ctl_paper, no jitter", {
                let (machine, effects, apps, assignment) = ctl_paper();
                let effects = EffectModel {
                    jitter: 0.0,
                    ..effects
                };
                (machine, effects, apps, assignment)
            }),
            ("bursting 1024 x 64", bursting()),
            ("outages 288 x 16", outages()),
        ] {
            let num_nodes = machine.num_nodes();
            let blocks = blocks_of(&assignment, &apps, num_nodes);
            let active = active_flags(&apps, 0.5);
            let (peak, rr_offset) = (machine.core_peak_gflops(), vec![0; num_nodes]);
            let mut s = RateScratch::default();
            let mut call = |now: Tick| {
                compute_rates(
                    &machine,
                    &effects,
                    peak,
                    &apps,
                    &active,
                    &blocks,
                    (7, now),
                    &rr_offset,
                    &mut s,
                );
            };
            let calls = 500u64;
            let mut per_call: Vec<f64> = (0..101u64)
                .map(|round| {
                    let started = Instant::now();
                    for k in 0..calls {
                        call(round * calls + k);
                    }
                    started.elapsed().as_secs_f64() * 1e6 / calls as f64
                })
                .collect();
            per_call.sort_by(f64::total_cmp);
            let idle = active.iter().filter(|&&a| !a).count();
            println!(
                "{name} ({} apps, {idle} idle): best {:.2} us, q1 {:.2} us, median {:.2} us",
                apps.len(),
                per_call[0],
                per_call[25],
                per_call[50]
            );
        }
    }
}
