//! Runtime-side wiring into the shared [`coop_telemetry`] hub.
//!
//! When a [`crate::RuntimeConfig`] carries a [`TelemetryHub`], the runtime
//! registers one timeline track (lane 0 = control, lane `w + 1` = worker
//! `w`) and resolves its metric handles once at startup, so the per-task
//! hot path is a handful of relaxed atomic adds plus one per-shard lock —
//! workers use their own worker index as the shard hint and therefore
//! never contend with each other.

use crate::task::TaskPriority;
use coop_telemetry::{
    hop, hop_args, ArgValue, Counter, Gauge, Histogram, TelemetryHub, TrackId, TRACE_CAT,
};
use numa_topology::NodeId;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Handles to the series that come into being on first use, not at
/// startup: each is resolved (label formatting + registry lock) on the
/// occasion that creates the series, and reused from then on.
#[derive(Default)]
pub(crate) struct LazySeries {
    /// `coop_block_latency_us{runtime,option}`, first observed when a
    /// worker first unblocks under that option; indexed by
    /// [`BLOCK_OPTIONS`].
    block_latency_us: [OnceLock<Arc<Histogram>>; BLOCK_OPTIONS.len()],
    /// `coop_running_workers` / `coop_blocked_workers`, first set by the
    /// first `Runtime::stats()` poll.
    occupancy: OnceLock<(Arc<Gauge>, Arc<Gauge>)>,
}

/// The blocking options a worker can block under (the `option` label).
const BLOCK_OPTIONS: [&str; 3] = ["total_threads", "block_cores", "per_node"];

/// Pre-resolved metric handles plus the runtime's timeline track.
#[derive(Clone)]
pub(crate) struct RuntimeTelemetry {
    pub hub: Arc<TelemetryHub>,
    pub track: TrackId,
    /// Task body execution latency, microseconds.
    pub task_latency_us: Arc<Histogram>,
    /// Ready-queue wait (enqueue → pickup), microseconds.
    pub queue_wait_us: Arc<Histogram>,
    /// All steals, any tier or source (aggregate of the labelled
    /// `coop_sched_steals_total` series; kept for dashboards that
    /// predate the per-tier split). Same-node injector takes are *not*
    /// steals and are counted in `local_pops_total` instead.
    pub steals_total: Arc<Counter>,
    /// Pops that stayed local: own deque, own node's injector, or the
    /// global injector.
    pub local_pops_total: Arc<Counter>,
    /// Steals split by tier × source (`coop_sched_steals_total` with
    /// `tier` = high|normal, `source` = sibling|remote).
    pub steals_high_sibling: Arc<Counter>,
    pub steals_high_remote: Arc<Counter>,
    pub steals_normal_sibling: Arc<Counter>,
    pub steals_normal_remote: Arc<Counter>,
    /// Times a worker parked after the idle re-check found nothing.
    pub parks_total: Arc<Counter>,
    /// Wakeups (unpark or backstop timeout) that found no work.
    pub spurious_wakeups_total: Arc<Counter>,
    /// Time spent in one park, microseconds (unpark latency when work
    /// arrives; clipped at the backstop timeout otherwise).
    pub park_latency_us: Arc<Histogram>,
    /// Successfully executed task bodies. Rides the worker's stats batch
    /// like `local_pops_total`: both lag a busy worker by at most
    /// `STATS_FLUSH_EVERY` tasks and are exact at every quiescent point.
    pub tasks_completed_total: Arc<Counter>,
    /// Contained task panics.
    pub tasks_panicked_total: Arc<Counter>,
    /// Thread-control commands applied.
    pub commands_total: Arc<Counter>,
    /// Fuel-exhaustion preemptions (tasks parked into the over-budget
    /// queue at a yield safe point).
    pub preemptions_total: Arc<Counter>,
    /// Watchdog deadline breaches (tasks marked runaway and contained).
    pub runaway_total: Arc<Counter>,
    /// Times the 100 ms parking backstop masked a lost wakeup (a worker
    /// found work after a full-timeout park with no publish in between).
    /// Any non-zero value is a scheduler bug.
    pub backstop_wakeups_total: Arc<Counter>,
    /// Runtime name, used as the metric label and for lazy lookups.
    pub name: Arc<str>,
    /// Series created on first use (shared by every clone).
    lazy: Arc<LazySeries>,
    /// Causal task tracing enabled
    /// ([`RuntimeConfig::with_task_tracing`](crate::RuntimeConfig::with_task_tracing)).
    /// Every trace hop site checks this plain bool first, so tracing-off
    /// runs read no extra clocks and record no extra events.
    pub tracing: bool,
}

impl RuntimeTelemetry {
    pub(crate) fn new(
        hub: Arc<TelemetryHub>,
        name: &str,
        worker_node: &[NodeId],
        tracing: bool,
    ) -> Self {
        let track = hub.register_track(&format!("runtime:{name}"));
        hub.set_lane_name(track, 0, "control");
        for (w, node) in worker_node.iter().enumerate() {
            hub.set_lane_name(
                track,
                w as u32 + 1,
                &format!("worker-{w} (node {})", node.0),
            );
        }
        let reg = hub.registry();
        reg.set_help("coop_task_latency_us", "Task body execution latency (us)");
        reg.set_help(
            "coop_queue_wait_us",
            "Time a ready task waited in a queue before pickup (us)",
        );
        reg.set_help(
            "coop_steals_total",
            "Tasks stolen from another worker's deque or another NUMA node (any tier)",
        );
        reg.set_help(
            "coop_sched_local_pops_total",
            "Tasks popped without stealing: own deque, own node's injector, or the global injector",
        );
        reg.set_help(
            "coop_sched_steals_total",
            "Steals by tier (high|normal) and source (sibling = same-node deque, remote = other node)",
        );
        reg.set_help(
            "coop_sched_parks_total",
            "Times an idle worker parked after re-checking every queue",
        );
        reg.set_help(
            "coop_sched_spurious_wakeups_total",
            "Worker wakeups that found no task (lost the race, or backstop timeout)",
        );
        reg.set_help(
            "coop_sched_park_latency_us",
            "Time a worker spent in one park (us)",
        );
        reg.set_help(
            "coop_block_latency_us",
            "Time a worker spent blocked by thread control, by blocking option (us)",
        );
        reg.set_help(
            "coop_control_commands_total",
            "Thread-control commands applied",
        );
        reg.set_help(
            "coop_task_preemptions_total",
            "Tasks parked into the over-budget queue after exhausting their fuel budget",
        );
        reg.set_help(
            "coop_runaway_tasks_total",
            "Tasks that held a worker past the watchdog deadline and were contained",
        );
        reg.set_help(
            "coop_sched_backstop_wakeups_total",
            "Parking-backstop timeouts that masked a lost wakeup (any non-zero value is a bug)",
        );
        let labels = [("runtime", name)];
        let steal = |tier: &str, source: &str| {
            reg.counter(
                "coop_sched_steals_total",
                &[("runtime", name), ("tier", tier), ("source", source)],
            )
        };
        RuntimeTelemetry {
            track,
            task_latency_us: reg.histogram("coop_task_latency_us", &labels),
            queue_wait_us: reg.histogram("coop_queue_wait_us", &labels),
            steals_total: reg.counter("coop_steals_total", &labels),
            local_pops_total: reg.counter("coop_sched_local_pops_total", &labels),
            steals_high_sibling: steal("high", "sibling"),
            steals_high_remote: steal("high", "remote"),
            steals_normal_sibling: steal("normal", "sibling"),
            steals_normal_remote: steal("normal", "remote"),
            parks_total: reg.counter("coop_sched_parks_total", &labels),
            spurious_wakeups_total: reg.counter("coop_sched_spurious_wakeups_total", &labels),
            park_latency_us: reg.histogram("coop_sched_park_latency_us", &labels),
            tasks_completed_total: reg.counter("coop_tasks_completed_total", &labels),
            tasks_panicked_total: reg.counter("coop_tasks_panicked_total", &labels),
            commands_total: reg.counter("coop_control_commands_total", &labels),
            preemptions_total: reg.counter("coop_task_preemptions_total", &labels),
            runaway_total: reg.counter("coop_runaway_tasks_total", &labels),
            backstop_wakeups_total: reg.counter("coop_sched_backstop_wakeups_total", &labels),
            name: Arc::from(name),
            lazy: Arc::default(),
            tracing,
            hub,
        }
    }

    /// Records a hop of a task no worker holds: lane 0, shard hint = task
    /// id, so concurrent spawners spread over the shards.
    fn unheld_hop(&self, task: u64, name: &str, args: Vec<(String, ArgValue)>) {
        self.hub
            .record_instant(task as usize, self.track, 0, TRACE_CAT, name, args);
    }

    /// Records a hop on `worker`'s lane, in its shard.
    fn worker_hop(&self, worker: Option<usize>, name: &str, args: Vec<(String, ArgValue)>) {
        let lane = Self::lane(worker);
        self.hub
            .record_instant(lane as usize, self.track, lane, TRACE_CAT, name, args);
    }

    /// Record a `spawned` trace hop.
    pub(crate) fn trace_spawned(&self, task: u64, trace: u64, parent: Option<u64>, name: &str) {
        let mut args = hop_args(task, trace);
        if let Some(p) = parent {
            args.push(("parent".to_string(), ArgValue::U64(p)));
        }
        args.push(("task_name".to_string(), ArgValue::Str(name.to_string())));
        self.unheld_hop(task, hop::SPAWNED, args);
    }

    /// Record a `deps_released` trace hop for the releasing dependency.
    pub(crate) fn trace_deps_released(&self, task: u64, trace: u64, event: Option<u64>) {
        let mut args = hop_args(task, trace);
        if let Some(e) = event {
            args.push(("event".to_string(), ArgValue::U64(e)));
        }
        self.unheld_hop(task, hop::DEPS_RELEASED, args);
    }

    /// Record an `enqueued` trace hop; `node` is the queue the task is
    /// headed for (`None` = the global injector).
    pub(crate) fn trace_enqueued(&self, task: u64, trace: u64, node: Option<u64>) {
        let mut args = hop_args(task, trace);
        if let Some(n) = node {
            args.push(("node".to_string(), ArgValue::U64(n)));
        }
        self.unheld_hop(task, hop::ENQUEUED, args);
    }

    /// Record a `stolen` trace hop on the thief's lane.
    pub(crate) fn trace_stolen(
        &self,
        worker: Option<usize>,
        task: u64,
        trace: u64,
        from: u64,
        to: u64,
        tier: TaskPriority,
    ) {
        let tier = match tier {
            TaskPriority::High => "high",
            TaskPriority::Normal => "normal",
        };
        let mut args = hop_args(task, trace);
        args.push(("from".to_string(), ArgValue::U64(from)));
        args.push(("to".to_string(), ArgValue::U64(to)));
        args.push(("tier".to_string(), ArgValue::Str(tier.to_string())));
        self.worker_hop(worker, hop::STOLEN, args);
    }

    /// Record a `started` trace hop on the executing worker's lane.
    pub(crate) fn trace_started(&self, worker: Option<usize>, task: u64, trace: u64, node: u64) {
        let mut args = hop_args(task, trace);
        args.push(("node".to_string(), ArgValue::U64(node)));
        if let Some(w) = worker {
            args.push(("worker".to_string(), ArgValue::U64(w as u64)));
        }
        self.worker_hop(worker, hop::STARTED, args);
    }

    /// Record the terminal `finished`/`panicked` trace hop.
    pub(crate) fn trace_finished(
        &self,
        worker: Option<usize>,
        task: u64,
        trace: u64,
        node: u64,
        panicked: bool,
    ) {
        let mut args = hop_args(task, trace);
        args.push(("node".to_string(), ArgValue::U64(node)));
        let name = if panicked {
            hop::PANICKED
        } else {
            hop::FINISHED
        };
        self.worker_hop(worker, name, args);
    }

    /// The labelled steal counter for a (tier, source) pair; `sibling`
    /// means the victim was a same-node worker's deque.
    pub(crate) fn steal_counter(&self, tier: TaskPriority, sibling: bool) -> &Arc<Counter> {
        match (tier, sibling) {
            (TaskPriority::High, true) => &self.steals_high_sibling,
            (TaskPriority::High, false) => &self.steals_high_remote,
            (TaskPriority::Normal, true) => &self.steals_normal_sibling,
            (TaskPriority::Normal, false) => &self.steals_normal_remote,
        }
    }

    /// Shard + lane for a worker id (`None` = helping external thread,
    /// which shares lane 0 with control events).
    fn lane(worker: Option<usize>) -> u32 {
        worker.map(|w| w as u32 + 1).unwrap_or(0)
    }

    /// Record one executed task: histograms, the panic counter, and a
    /// timeline span (the completed-task counter rides the stats batch).
    pub(crate) fn record_task(
        &self,
        name: &str,
        worker: Option<usize>,
        node: NodeId,
        enqueued_at: Option<Instant>,
        started_at: Instant,
        panicked: bool,
    ) {
        let dur_us = started_at.elapsed().as_micros() as u64;
        self.task_latency_us.observe(dur_us);
        if let Some(enq) = enqueued_at {
            self.queue_wait_us
                .observe(started_at.saturating_duration_since(enq).as_micros() as u64);
        }
        if panicked {
            self.tasks_panicked_total.inc();
        }
        let shard = worker.map(|w| w + 1).unwrap_or(0);
        self.hub.record_task_span(
            shard,
            self.track,
            Self::lane(worker),
            name,
            self.hub.timestamp_us(started_at),
            dur_us.max(1),
            node.0 as u64,
            panicked,
        );
    }

    /// Record one fuel-exhaustion preemption: counter plus a `preempted`
    /// instant on the worker's lane (no task span — the slice is neither
    /// finished nor panicked).
    pub(crate) fn record_preempted(&self, worker: Option<usize>, task: u64, name: &str) {
        self.preemptions_total.inc();
        let shard = worker.map(|w| w + 1).unwrap_or(0);
        self.hub.record_instant(
            shard,
            self.track,
            Self::lane(worker),
            "sched",
            "preempted",
            vec![
                ("task".to_string(), ArgValue::U64(task)),
                ("task_name".to_string(), ArgValue::Str(name.to_string())),
            ],
        );
    }

    /// Record a watchdog deadline breach: counter, a `runaway` timeline
    /// instant on the wedged worker's lane, and a flight-recorder dump
    /// (when one is installed on the hub) capturing the lead-up.
    pub(crate) fn record_runaway(&self, worker: usize, task: u64) {
        self.runaway_total.inc();
        self.hub.record_instant(
            worker + 1,
            self.track,
            Self::lane(Some(worker)),
            "sched",
            "runaway",
            vec![
                ("task".to_string(), ArgValue::U64(task)),
                ("worker".to_string(), ArgValue::U64(worker as u64)),
            ],
        );
        if let Some(rec) = self.hub.flight_recorder() {
            rec.trigger_dump(&format!("runaway-{}-w{worker}", self.name));
        }
    }

    /// Record a runaway task finally returning: the worker is re-admitted
    /// and `over_us` microseconds of past-deadline CPU time are booked.
    pub(crate) fn record_runaway_returned(&self, worker: usize, task: u64, over_us: u64) {
        self.hub.record_instant(
            worker + 1,
            self.track,
            Self::lane(Some(worker)),
            "sched",
            "runaway_returned",
            vec![
                ("task".to_string(), ArgValue::U64(task)),
                ("over_us".to_string(), ArgValue::U64(over_us)),
            ],
        );
    }

    /// Record an applied thread-control command as an instant event.
    pub(crate) fn record_command(&self, command: &str) {
        self.commands_total.inc();
        self.hub.record_instant(
            0,
            self.track,
            0,
            "control",
            command,
            vec![(
                "runtime".to_string(),
                ArgValue::Str(self.name.as_ref().to_string()),
            )],
        );
    }

    /// Record a completed block/unblock cycle of `worker` under blocking
    /// option `option` ("total_threads" | "block_cores" | "per_node").
    pub(crate) fn record_block_span(
        &self,
        worker: usize,
        option: &'static str,
        blocked_at: Instant,
    ) {
        let dur_us = blocked_at.elapsed().as_micros() as u64;
        let resolve = || {
            self.hub.registry().histogram(
                "coop_block_latency_us",
                &[("runtime", self.name.as_ref()), ("option", option)],
            )
        };
        match BLOCK_OPTIONS.iter().position(|&o| o == option) {
            Some(i) => self.lazy.block_latency_us[i]
                .get_or_init(resolve)
                .observe(dur_us),
            None => resolve().observe(dur_us),
        }
        self.hub.record_span(
            worker + 1,
            self.track,
            Self::lane(Some(worker)),
            "control",
            "blocked",
            self.hub.timestamp_us(blocked_at),
            dur_us.max(1),
            vec![("option".to_string(), ArgValue::Str(option.to_string()))],
        );
    }

    /// Refresh occupancy gauges (called from `Runtime::stats`).
    pub(crate) fn set_occupancy(&self, running: usize, blocked: usize) {
        let (running_workers, blocked_workers) = self.lazy.occupancy.get_or_init(|| {
            let reg = self.hub.registry();
            let labels = [("runtime", self.name.as_ref())];
            (
                reg.gauge("coop_running_workers", &labels),
                reg.gauge("coop_blocked_workers", &labels),
            )
        });
        running_workers.set(running as f64);
        blocked_workers.set(blocked as f64);
    }
}
