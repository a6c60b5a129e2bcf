//! The time-advance loop.
//!
//! The simulated fleet is decomposed into [`Component`]s — the supervising
//! agent (assignment edges) and one per distinct activity pattern (the
//! activity edges of every app whose pattern has the same bits) — and a
//! global min-heap orders their wake-ups. Apps that burst in step share
//! one heap entry, one `next_edge` per edge and one `is_active` per
//! segment, which is copied to their per-app flags. Between consecutive
//! events every rate in the system is constant, so bandwidth contention is
//! arbitrated once per segment (`engine::compute_rates`) and work is
//! integrated analytically as `rate × Δt`. The heap is one of two cut
//! sources: under [`EngineKind::Slice`] (or discrete time-slicing) a segment
//! also ends at every multiple of the quantum (rotation, a jitter draw per
//! thread per quantum and windowed samples need that grid) and a run costs
//! `duration / quantum` arbitrations; under [`EngineKind::Event`], the
//! default, cost scales with the number of events, which is what makes
//! 5k-runtime × 256-node fleets tractable (see `docs/performance.md`).
//! Either way a segment's activity is classified at its midpoint, never by
//! component state, so an edge the heap missed costs the grid a quantum of
//! rounding and the event cuts a whole segment: `tests/engine_agreement.rs`
//! holds the two to 1e-9.
//!
//! # Determinism
//!
//! The heap is keyed by `(time, tie, component)` where `tie` is a
//! seeded hash of the component id (`EventHeap::tie`). The log keeps one
//! event per app edge: the apps of every group due at a tick are logged
//! together and the tick's batch is sorted by `(tie, app id)`, the order a
//! heap entry per app would pop them in. Same seed ⇒ the same
//! byte-identical [`EventLog`]. Event times are integer nanoseconds so
//! ordering never depends on float rounding.

use crate::engine::{compute_rates, Entries, EpochTracer, NodeBlocks, RateScratch, SparseSchedule};
use crate::{ActivityPattern, EngineKind, SimApp, Simulation};
use coop_alloc::rng::splitmix64;
use coop_telemetry::json::{self, FromJson, ToJson, Value};
use coop_telemetry::{json_struct, json_write};
use numa_topology::NodeId;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Simulated time in integer nanoseconds.
pub type Tick = u64;

/// Converts simulated seconds to an integer-nanosecond [`Tick`].
pub(crate) fn s_to_tick(t_s: f64) -> Tick {
    (t_s * 1e9).round() as Tick
}

/// Converts a [`Tick`] back to simulated seconds.
pub(crate) fn tick_to_s(t: Tick) -> f64 {
    t as f64 / 1e9
}

/// Something that evolves over simulated time.
///
/// A component declares when it next has intrinsic activity
/// ([`next_tick`](Component::next_tick)) and mutates its internal state
/// when the engine reaches that instant ([`advance`](Component::advance)).
pub trait Component {
    /// The next simulated instant at which this component changes state,
    /// or `None` if it never does (again).
    fn next_tick(&self) -> Option<Tick>;
    /// Advances internal state to `now` (guaranteed `now >=` the tick the
    /// component last advanced to).
    fn advance(&mut self, now: Tick);
}

/// The deterministic global event heap: a min-heap keyed by
/// `(time, tie, component_id)`, where `tie` is a hash of the component id
/// under the heap's seed: deterministic per seed, but different seeds
/// interleave equal-time components differently.
#[derive(Debug, Default)]
pub struct EventHeap {
    heap: BinaryHeap<Reverse<(Tick, u64, u32)>>,
    seed: u64,
}

impl EventHeap {
    /// Empties the heap for a new run under `seed`, keeping its allocation.
    pub(crate) fn reset(&mut self, seed: u64) {
        self.heap.clear();
        self.seed = seed;
    }

    /// The tie key of `component` under the heap's seed: equal-time
    /// wake-ups pop in ascending `(tie, component)` order.
    pub(crate) fn tie(&self, component: u32) -> u64 {
        splitmix64(self.seed ^ component as u64)
    }

    /// Schedules `component` to wake at `tick`.
    pub(crate) fn schedule(&mut self, tick: Tick, component: u32) {
        self.heap
            .push(Reverse((tick, self.tie(component), component)));
    }

    /// Schedules a component's declared next tick, if it has one.
    pub(crate) fn schedule_component(&mut self, id: u32, component: &impl Component) {
        if let Some(t) = component.next_tick() {
            self.schedule(t, id);
        }
    }

    /// The earliest pending tick.
    pub(crate) fn peek_tick(&self) -> Option<Tick> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// The component of the earliest pending wake-up, if that wake-up is
    /// at `now`.
    pub(crate) fn due(&self, now: Tick) -> Option<u32> {
        match self.heap.peek() {
            Some(&Reverse((t, _, c))) if t == now => Some(c),
            _ => None,
        }
    }

    /// Moves the earliest wake-up's component to `next` in place — one
    /// sift where a pop and a push are two — or pops it when `next` is
    /// `None`. A component has one pending key and keys are unique, so
    /// every later pop is what a pop followed by
    /// [`schedule`](EventHeap::schedule) would give.
    pub(crate) fn reschedule_top(&mut self, next: Option<Tick>) {
        if let Some(mut top) = self.heap.peek_mut() {
            match next {
                Some(t) => top.0 .0 = t,
                None => {
                    PeekMut::pop(top);
                }
            }
        }
    }
}

/// What kind of edge a processed event was. Serializes to the same JSON
/// strings the log always used (`"assignment"` / `"activity"`), but as an
/// enum it costs nothing per event — the old `String` field was one of the
/// last per-event heap allocations in the hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventEdge {
    /// The supervising agent applied a dynamic-schedule entry.
    Assignment,
    /// An application crossed an activity-pattern edge.
    Activity,
}

/// The historic wire strings: `"assignment"` / `"activity"`.
impl ToJson for EventEdge {
    fn to_value(&self) -> Value {
        self.as_str().to_value()
    }
}

impl FromJson for EventEdge {
    fn from_value(v: &Value) -> json::Result<Self> {
        [EventEdge::Assignment, EventEdge::Activity]
            .into_iter()
            .find(|edge| v.as_str() == Some(edge.as_str()))
            .ok_or_else(|| json::Error::new("expected \"assignment\" or \"activity\""))
    }
}

json_struct!(SimEvent: t_ns, component, kind);
json_write!(EventLog: seed, events, segments);

impl EventEdge {
    /// The stable lowercase name (`"assignment"` / `"activity"`).
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            EventEdge::Assignment => "assignment",
            EventEdge::Activity => "activity",
        }
    }
}

/// One processed event: when, which component, and what kind of edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimEvent {
    /// Simulated time, nanoseconds.
    pub t_ns: Tick,
    /// Component id (0 = the supervising agent, `1..=num_apps` = apps).
    pub component: u32,
    /// Edge kind.
    pub kind: EventEdge,
}

/// The ordered log of every event the engine processed. Serializes
/// canonically, so same-seed runs are byte-identical
/// ([`EventLog::to_bytes`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventLog {
    /// The simulation seed (also seeds heap tie-breaking).
    pub seed: u64,
    /// Processed events, one per agent or app edge, in `(tick, tie, id)`
    /// order.
    pub events: Vec<SimEvent>,
    /// Number of constant-rate segments integrated (arbitrations
    /// performed): with the quantum grid as a cut source, at least
    /// `duration / quantum` of them.
    pub segments: u64,
    /// Component wake-ups the heap delivered: the agent's, and one per
    /// edge of each distinct activity pattern however many apps share it.
    /// It takes part in equality but is not serialized, so it leaves
    /// [`EventLog::to_bytes`] as it was.
    pub wakeups: u64,
}

impl EventLog {
    /// Number of processed events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were processed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of processed events of `kind`.
    pub fn count_of(&self, kind: EventEdge) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Canonical byte serialization (JSON) for determinism checks.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_value().write().into_bytes()
    }
}

/// Component id of the supervising agent (assignment edges).
pub(crate) const AGENT_ID: u32 = 0;
/// First application component id: app `a` logs as `APP_ID0 + a`, and
/// the group of apps `g` wakes as heap component `APP_ID0 + g`.
pub(crate) const APP_ID0: u32 = 1;

/// An activity pattern: wakes at its edges.
pub(crate) struct AppComponent {
    activity: ActivityPattern,
    next: Option<Tick>,
    end: Tick,
}

impl AppComponent {
    fn new(activity: &ActivityPattern, end: Tick) -> Self {
        // `max(1)` guards against an edge so early it rounds onto tick 0,
        // which would stall the heap before time ever advances.
        let next = activity
            .next_edge(0.0)
            .map(|e| s_to_tick(e).max(1))
            .filter(|&t| t < end);
        AppComponent {
            activity: activity.clone(),
            next,
            end,
        }
    }
}

impl Component for AppComponent {
    fn next_tick(&self) -> Option<Tick> {
        self.next
    }

    fn advance(&mut self, now: Tick) {
        // Fire the pending edge and look up the next one. `max(now + 1)`
        // guards against an edge that rounds back onto `now`, which would
        // stall the heap.
        self.next = self
            .activity
            .next_edge(tick_to_s(now))
            .map(|e| s_to_tick(e).max(now + 1))
            .filter(|&t| t < self.end);
    }
}

/// The apps whose activity patterns have equal bits
/// ([`ActivityPattern::bits`]): one component wakes for all of them, and a
/// segment asks it `is_active` once.
struct AppGroup {
    comp: AppComponent,
    /// The group's apps are `AppGroups::members[first..last]`.
    first: usize,
    last: usize,
    /// `is_active` at the current segment's midpoint, and so each member's
    /// flag in `AppGroups::active`.
    active: bool,
}

/// The run's apps, grouped by the bits of their activity patterns.
#[derive(Default)]
struct AppGroups {
    /// One per distinct pattern, in the order of their bits.
    groups: Vec<AppGroup>,
    /// Every group's apps, group after group, each group's in app order.
    members: Vec<u32>,
    /// Per app: active at the current segment's midpoint, its group's flag.
    active: Vec<bool>,
}

impl AppGroups {
    /// Groups `apps` by the bits of their activity patterns, each group
    /// starting a run that ends at `end`. Within the buffers' capacity,
    /// as on a supervised session's every tick after the first, it
    /// allocates nothing.
    fn regroup(&mut self, apps: &[SimApp], end: Tick) {
        let bits = |a: u32| apps[a as usize].activity.bits();
        self.members.clear();
        self.members.extend(0..apps.len() as u32);
        self.members.sort_unstable_by_key(|&a| (bits(a), a));
        let same_bits = |&a: &u32, &b: &u32| bits(a) == bits(b);
        self.groups.clear();
        self.groups
            .reserve_exact(self.members.chunk_by(same_bits).count());
        let mut first = 0;
        for same in self.members.chunk_by(same_bits) {
            let last = first + same.len();
            self.groups.push(AppGroup {
                comp: AppComponent::new(&apps[same[0] as usize].activity, end),
                first,
                last,
                active: false,
            });
            first = last;
        }
        zeroed(&mut self.active, apps.len());
    }

    /// Sets every app's flag to its group's `is_active(t)`, asking each
    /// pattern once and writing the apps of a group whose flag changed.
    fn classify(&mut self, t: f64) {
        for group in &mut self.groups {
            let active = group.comp.activity.is_active(t);
            if active != group.active {
                group.active = active;
                for &a in &self.members[group.first..group.last] {
                    self.active[a as usize] = active;
                }
            }
        }
    }
}

/// The supervising agent: wakes at every dynamic-schedule entry and moves
/// the applied-assignment index forward.
#[derive(Default)]
pub(crate) struct AgentComponent {
    times: Vec<Tick>,
    pub(crate) idx: usize,
    fired: usize,
}

impl AgentComponent {
    /// Back to the start of `schedule`, keeping the allocation.
    pub(crate) fn reset(&mut self, schedule: &SparseSchedule) {
        self.times.clear();
        self.times
            .extend((0..schedule.len()).map(|entry| s_to_tick(schedule.start_s(entry))));
        self.idx = 0;
        self.fired = 0;
    }
}

impl Component for AgentComponent {
    fn next_tick(&self) -> Option<Tick> {
        self.times.get(self.fired + 1).copied()
    }

    fn advance(&mut self, now: Tick) {
        while self.idx + 1 < self.times.len() && self.times[self.idx + 1] <= now {
            self.idx += 1;
        }
        self.fired = self.fired.max(self.idx);
    }
}

/// The loop's per-run state, kept by the caller: a supervised
/// session hands the same value to every decision tick, so a steady-state
/// tick re-seeds the components and vectors of the previous one and
/// allocates nothing. What the last run delivered in total stays behind.
#[derive(Default)]
pub(crate) struct EventRun {
    agent: AgentComponent,
    apps: AppGroups,
    /// Per node: bandwidth its memory controller delivered so far, GB.
    delivered_gb: Vec<f64>,
    heap: EventHeap,
    /// A dense schedule's cells, converted at the start of each run.
    schedule: SparseSchedule,
    blocks: NodeBlocks,
    tracer: EpochTracer,
    rr_offset: Vec<usize>,
    app_rate: Vec<f64>,
    /// Per app (GFLOP) and per node (GB): banked in the open sample window.
    window_gflop: Vec<f64>,
    window_gb: Vec<f64>,
    rates: RateScratch,
    /// Simulated duration of the last run, seconds.
    pub(crate) duration_s: f64,
    /// Per app: floating-point work the last run completed, GFLOP.
    pub(crate) gflop_done: Vec<f64>,
    /// Per node: average bandwidth served over the last run, GB/s.
    pub(crate) node_avg_gbs: Vec<f64>,
    /// Per node: that average as a fraction of the node's bandwidth.
    pub(crate) node_utilization: Vec<f64>,
}

impl EventRun {
    /// Sustained GFLOPS of one application ([`crate::SimResult::app_gflops`]).
    pub(crate) fn app_gflops(&self, app: usize) -> f64 {
        self.gflop_done[app] / self.duration_s
    }
}

/// A detailed run's sampled per-app GFLOPS, one flat row per sample
/// window: `gflops[w * num_apps + a]` is app `a`'s mean rate over window
/// `w`, whose midpoint is `times_s[w]`. A window appends to two vectors,
/// not to two per app.
#[derive(Default)]
pub(crate) struct Samples {
    pub(crate) times_s: Vec<f64>,
    pub(crate) gflops: Vec<f64>,
}

/// Refills `v` with `len` zeros, keeping its allocation.
fn zeroed<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    v.clear();
    v.resize(len, T::default());
}

/// How many quanta [`EngineKind::Slice`] aggregates into one timeline sample.
const SAMPLE_EVERY: u64 = 10;

/// The time-advance loop. `cuts` names its cut sources: the event heap
/// alone, or the heap and the quantum grid (the run then lasts
/// `⌈duration / quantum⌉` quanta). A dense schedule is converted into
/// `run`'s cells once the run's parameters have passed, so every entry is
/// read as its non-zero cells. The run's totals land in `run`; the per-app
/// [`Samples`] and the processed [`EventLog`] are recorded only for a
/// caller that passes them (both empty) as `detail`.
pub(crate) fn advance_time(
    sim: &Simulation,
    apps: &[SimApp],
    schedule: Entries,
    duration_s: f64,
    cuts: EngineKind,
    run: &mut EventRun,
    mut detail: Option<(&mut Samples, &mut EventLog)>,
) -> crate::Result<()> {
    sim.validate_run(apps, schedule.len(), duration_s)?;
    let machine = &sim.config.machine;
    let effects = &sim.config.effects;
    let num_nodes = machine.num_nodes();
    let schedule = match schedule {
        Entries::Dense(dense) => {
            run.schedule.set_dense(dense, apps.len(), num_nodes);
            &run.schedule
        }
        Entries::Sparse(schedule) => schedule,
    };
    sim.check_schedule(apps.len(), schedule)?;
    let peak = machine.core_peak_gflops();
    // Discrete round-robin time-slicing exists only on a quantum grid.
    let quantum = (cuts == EngineKind::Slice || effects.discrete_timeslice)
        .then(|| s_to_tick(sim.config.quantum_s));
    let window = quantum.map(|q| q.saturating_mul(SAMPLE_EVERY));
    let end = match quantum {
        Some(q) => ((duration_s / sim.config.quantum_s).ceil() as Tick).saturating_mul(q),
        None => s_to_tick(duration_s),
    }
    .max(1);

    let tel = sim.run_telemetry();

    // Components: agent (id 0), app groups (ids 1..=groups).
    run.agent.reset(schedule);
    run.apps.regroup(apps, end);
    zeroed(&mut run.rr_offset, num_nodes);
    zeroed(&mut run.delivered_gb, num_nodes);
    zeroed(&mut run.window_gb, num_nodes);
    zeroed(&mut run.app_rate, apps.len());
    zeroed(&mut run.window_gflop, apps.len());
    zeroed(&mut run.gflop_done, apps.len());

    // Apply the initial assignment (entries at or before t = 0) *before*
    // seeding the heap, so schedule entries that all land at t = 0 do not
    // leave a stale zero-tick wake-up behind.
    run.agent.advance(0);
    let mut applied_idx = run.agent.idx;

    run.heap.reset(sim.config.seed);
    run.heap.schedule_component(AGENT_ID, &run.agent);
    for (g, group) in run.apps.groups.iter().enumerate() {
        run.heap.schedule_component(APP_ID0 + g as u32, &group.comp);
    }
    run.blocks
        .expand(schedule.entry(applied_idx), apps, num_nodes);
    // The epoch tracer's rows exist only in a traced run.
    let traced = tel.as_ref().filter(|_| sim.tracing);
    if let Some(tel) = traced {
        run.tracer.reset(apps.len());
        run.tracer
            .on_assignment(tel, 0.0, applied_idx, schedule.entry(applied_idx), apps);
    }

    let gflop_done = &mut run.gflop_done[..];

    let mut now: Tick = 0;
    let mut window_start: Tick = 0;

    while now < end {
        // The horizon: the next pending event, the next grid point, or the
        // end of the run.
        let grid = quantum.map_or(end, |q| (now / q + 1).saturating_mul(q));
        let horizon = run.heap.peek_tick().map_or(end, |t| t.min(end)).min(grid);
        debug_assert!(horizon > now, "every cut source must advance time");
        let dt_s = tick_to_s(horizon - now);

        // Arbitrate once for the segment `[now, horizon)`. Every activity
        // edge is a heap event, so the active set is constant strictly
        // inside the segment and any interior instant is representative.
        // The midpoint is used rather than the segment start because
        // `tick_to_s(s_to_tick(e))` can land one float ulp before the edge
        // `e` itself, and evaluating `is_active` there would misclassify
        // the whole segment.
        let mid = tick_to_s(now) + dt_s / 2.0;
        run.apps.classify(mid);
        debug_assert!(
            apps.iter()
                .zip(&run.apps.active)
                .all(|(app, &active)| app.activity.is_active(mid) == active),
            "an app's flag is not its own pattern's at {mid} s"
        );
        compute_rates(
            machine,
            effects,
            peak,
            apps,
            &run.apps.active,
            &run.blocks,
            (sim.config.seed, now),
            &run.rr_offset,
            &mut run.rates,
        );

        // Integrate the constant-rate segment analytically, over the
        // arbitration's live threads: an app's threads come node by node,
        // which is their order in the app-major expansion. Slices, so the
        // stores below cannot be taken to rewrite a vector's pointer or
        // length inside `run` (one per cent of `fleet_diurnal`). A thread
        // time-sliced off its core has capacity 0 and is skipped.
        let (cap, granted) = (&run.rates.cap[..], &run.rates.granted[..]);
        let (app_rate, window_gflop) = (&mut run.app_rate[..], &mut run.window_gflop[..]);
        app_rate.fill(0.0);
        for ((&i, &cap), &granted) in run.rates.live().iter().zip(cap).zip(granted) {
            if cap == 0.0 {
                continue;
            }
            let app = run.blocks.threads[i].app;
            let gflops = (apps[app].spec.ai * granted).min(cap);
            let banked = gflops * dt_s;
            gflop_done[app] += banked;
            window_gflop[app] += banked;
            app_rate[app] += gflops;
        }
        for (node, &served) in run.rates.node_served.iter().enumerate() {
            run.delivered_gb[node] += served * dt_s;
            run.window_gb[node] += served * dt_s;
        }
        if let Some((_, log)) = &mut detail {
            log.segments += 1;
        }
        now = horizon;

        // A grid point ends a quantum, every `SAMPLE_EVERY`-th (and the end
        // of the run) a sample window. With no grid the window is the one
        // segment, and its mean rate is the segment's own, which the
        // division would only round.
        let on_grid = |step: Option<Tick>| step.is_none_or(|step| now.is_multiple_of(step));
        if effects.discrete_timeslice && on_grid(quantum) {
            run.rates.rotate(machine, &mut run.rr_offset, tel.as_ref());
        }
        if on_grid(window) || now == end {
            let window_s = tick_to_s(now - window_start);
            let mid_s = tick_to_s(window_start) + window_s / 2.0;
            let mean = |banked: f64, rate: f64| match quantum {
                Some(_) => banked / window_s,
                None => rate,
            };
            if let Some((samples, _)) = &mut detail {
                samples.times_s.push(mid_s);
                samples.gflops.extend(
                    run.window_gflop
                        .iter()
                        .zip(&run.app_rate)
                        .map(|(&banked, &rate)| mean(banked, rate)),
                );
            }
            if let Some(tel) = &tel {
                for node in 0..num_nodes {
                    let gbs = mean(run.window_gb[node], run.rates.node_served[node]);
                    let util = gbs / machine.node(NodeId(node)).bandwidth_gbs;
                    tel.record_bandwidth_sample(node, mid_s, gbs, util);
                }
            }
            run.window_gflop.fill(0.0);
            run.window_gb.fill(0.0);
            window_start = now;
        }
        if now >= end {
            break;
        }

        // Drain and apply every event at `now` before re-arbitrating. The
        // due component's next wake-up replaces its key at the top. A
        // group's edge is logged once per member, and the tick's batch is
        // sorted into the order one heap entry per app would pop it in.
        let batch = detail.as_ref().map_or(0, |(_, log)| log.events.len());
        while let Some(id) = run.heap.due(now) {
            let members = if id == AGENT_ID {
                run.agent.advance(now);
                run.heap.reschedule_top(run.agent.next_tick());
                None
            } else {
                let group = &mut run.apps.groups[(id - APP_ID0) as usize];
                group.comp.advance(now);
                run.heap.reschedule_top(group.comp.next_tick());
                Some(&run.apps.members[group.first..group.last])
            };
            if let Some((_, log)) = &mut detail {
                log.wakeups += 1;
                let event = |component, kind| SimEvent {
                    t_ns: now,
                    component,
                    kind,
                };
                match members {
                    None => log.events.push(event(AGENT_ID, EventEdge::Assignment)),
                    Some(members) => log.events.extend(
                        members
                            .iter()
                            .map(|&a| event(APP_ID0 + a, EventEdge::Activity)),
                    ),
                }
            }
        }
        if let Some((_, log)) = &mut detail {
            log.events[batch..].sort_unstable_by_key(|e| (run.heap.tie(e.component), e.component));
        }
        if run.agent.idx != applied_idx {
            run.blocks
                .expand(schedule.entry(run.agent.idx), apps, num_nodes);
            if let Some(tel) = &tel {
                tel.record_assignment_switch(tick_to_s(now), run.agent.idx);
            }
            if let Some(tel) = traced {
                run.tracer.on_assignment(
                    tel,
                    tick_to_s(now),
                    run.agent.idx,
                    schedule.entry(run.agent.idx),
                    apps,
                );
            }
            applied_idx = run.agent.idx;
        }
    }

    let sim_time = tick_to_s(end);
    run.duration_s = sim_time;
    run.node_avg_gbs.clear();
    run.node_utilization.clear();
    for (n, &delivered_gb) in run.delivered_gb.iter().enumerate() {
        let gbs = delivered_gb / sim_time;
        run.node_avg_gbs.push(gbs);
        run.node_utilization
            .push(gbs / machine.node(NodeId(n)).bandwidth_gbs);
    }
    if let Some(tel) = traced {
        run.tracer.finish(tel, sim_time);
    }
    if let Some(tel) = &tel {
        tel.record_run_summary(&run.node_avg_gbs, &run.node_utilization);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_alloc::cases::Gen;
    use roofline_numa::ThreadAssignment;

    impl EventHeap {
        fn new(seed: u64) -> Self {
            EventHeap {
                heap: BinaryHeap::new(),
                seed,
            }
        }

        /// Pops the earliest `(tick, component)` pair.
        fn pop(&mut self) -> Option<(Tick, u32)> {
            self.heap.pop().map(|Reverse((t, _, c))| (t, c))
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    #[test]
    fn heap_orders_by_time_then_tie() {
        let seed = 9;
        let mut h = EventHeap::new(seed);
        h.schedule(30, 2);
        h.schedule(10, 7);
        h.schedule(30, 1);
        h.schedule(20, 5);
        let order: Vec<(Tick, u32)> = std::iter::from_fn(|| h.pop()).collect();
        let mut tied = [(30, 1), (30, 2)];
        tied.sort_by_key(|&(_, id)| splitmix64(seed ^ u64::from(id)));
        assert_eq!(order, [vec![(10, 7), (20, 5)], tied.to_vec()].concat());
        assert!(h.is_empty());
    }

    /// Re-keying the top in place pops in the order a pop and a push give:
    /// components wake at staggered ticks, stop after tick 40, and tie.
    #[test]
    fn rescheduling_the_top_pops_as_pop_and_push_do() {
        let seed = 3;
        let next = |id: u32, t: Tick| (t < 40).then(|| t + 1 + u64::from(id * 7 % 5));
        let (mut moved, mut popped) = (EventHeap::new(seed), EventHeap::new(seed));
        for id in 0..12u32 {
            moved.schedule(u64::from(id % 4), id);
            popped.schedule(u64::from(id % 4), id);
        }
        let mut order = Vec::new();
        while let Some((t, id)) = popped.pop() {
            assert_eq!((moved.peek_tick(), moved.due(t)), (Some(t), Some(id)));
            moved.reschedule_top(next(id, t));
            if let Some(n) = next(id, t) {
                popped.schedule(n, id);
            }
            order.push((t, id));
        }
        assert!(moved.is_empty());
        assert!(order.len() > 100, "{} pops", order.len());
    }

    #[test]
    fn seeded_tie_break_is_deterministic_per_seed() {
        let pops = |seed: u64| {
            let mut h = EventHeap::new(seed);
            for id in 0..16u32 {
                h.schedule(5, id);
            }
            let mut order = Vec::new();
            while let Some((_, id)) = h.pop() {
                order.push(id);
            }
            order
        };
        assert_eq!(pops(1), pops(1), "same seed, same order");
        assert_ne!(
            pops(1),
            pops(2),
            "different seeds interleave ties differently"
        );
    }

    #[test]
    fn event_edges_serialize_to_the_historic_strings() {
        let e = SimEvent {
            t_ns: 5,
            component: 1,
            kind: EventEdge::Activity,
        };
        let json = e.to_value().write();
        assert!(json.contains("\"kind\":\"activity\""), "{json}");
        assert_eq!(EventEdge::Assignment.as_str(), "assignment");
        let back = SimEvent::from_value(&json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    /// The events one heap entry per app gives: the agent and every app,
    /// each app an `AppComponent` of its own, on one `EventHeap`, popped
    /// until the run's end.
    fn per_app_events(
        apps: &[SimApp],
        schedule: &[(f64, ThreadAssignment)],
        end: Tick,
        seed: u64,
    ) -> Vec<SimEvent> {
        let mut cells = SparseSchedule::default();
        cells.set_dense(schedule, apps.len(), schedule[0].1.num_nodes());
        let mut agent = AgentComponent::default();
        agent.reset(&cells);
        agent.advance(0);
        let mut comps: Vec<AppComponent> = apps
            .iter()
            .map(|app| AppComponent::new(&app.activity, end))
            .collect();
        let mut heap = EventHeap::new(seed);
        heap.schedule_component(AGENT_ID, &agent);
        for (a, comp) in comps.iter().enumerate() {
            heap.schedule_component(APP_ID0 + a as u32, comp);
        }
        let mut events = Vec::new();
        while let Some((t_ns, component)) = heap.pop().filter(|&(t, _)| t < end) {
            let kind = if component == AGENT_ID {
                agent.advance(t_ns);
                heap.schedule_component(component, &agent);
                EventEdge::Assignment
            } else {
                let comp = &mut comps[(component - APP_ID0) as usize];
                comp.advance(t_ns);
                heap.schedule_component(component, comp);
                EventEdge::Activity
            };
            events.push(SimEvent {
                t_ns,
                component,
                kind,
            });
        }
        events
    }

    /// A pattern on a grid of eighths of a second, so that different
    /// patterns and the schedule share edges.
    fn draw_pattern(g: &mut Gen) -> ActivityPattern {
        let eighth = |g: &mut Gen| f64::from(g.range(0..9u32)) / 8.0;
        match g.range(0..3u32) {
            0 => ActivityPattern::AlwaysOn,
            1 => {
                let (a, b) = (eighth(g), eighth(g));
                ActivityPattern::Window {
                    start_s: a.min(b),
                    end_s: a.max(b),
                }
            }
            _ => ActivityPattern::Bursts {
                period_s: *g.pick(&[0.125, 0.25, 0.5]),
                duty: *g.pick(&[0.25, 0.5, 0.75]),
                phase_s: if g.bool(0.3) { 0.0 } else { eighth(g) - 0.5 },
            },
        }
    }

    /// A pattern whose bits differ from `p`'s while it acts (nearly)
    /// alike: `-0.0` for a `0.0` start or phase, else a field one ulp up,
    /// and for `AlwaysOn` a window longer than the run.
    fn twin(p: &ActivityPattern) -> ActivityPattern {
        let nudge = |x: f64| {
            if x == 0.0 {
                -x
            } else {
                f64::from_bits(x.to_bits() + 1)
            }
        };
        match *p {
            ActivityPattern::AlwaysOn => ActivityPattern::Window {
                start_s: 0.0,
                end_s: 2.0,
            },
            // A later start could pass the end.
            ActivityPattern::Window { start_s, end_s } if start_s == 0.0 => {
                ActivityPattern::Window {
                    start_s: -start_s,
                    end_s,
                }
            }
            ActivityPattern::Window { start_s, end_s } => ActivityPattern::Window {
                start_s,
                end_s: nudge(end_s),
            },
            ActivityPattern::Bursts {
                period_s,
                duty,
                phase_s,
            } => ActivityPattern::Bursts {
                period_s,
                duty,
                phase_s: nudge(phase_s),
            },
        }
    }

    /// Over fleets that mix shared patterns, distinct ones and twins whose
    /// bits differ (a phase one ulp apart, `0.0` and `-0.0`, `AlwaysOn`
    /// beside a window that covers the run), the grouped loop logs what a
    /// heap entry per app pops, in its order. One `EventRun` runs the
    /// fleet twice, then the fleet with some patterns swapped for twins or
    /// new ones, then the fleet again: the groups follow the patterns, not
    /// the last run.
    #[test]
    fn grouped_edges_log_what_a_heap_entry_per_app_pops() {
        let seen = std::cell::Cell::new([0usize; 3]);
        coop_alloc::cases::check(0x6e0c_9a11, 64, |g| {
            const NODES: usize = 2;
            let machine = numa_topology::MachineBuilder::new()
                .symmetric_nodes(NODES, 16)
                .core_peak_gflops(12.8)
                .node_bandwidth_gbs(80.0)
                .uniform_link_gbs(12.0)
                .build()
                .unwrap();
            let mut pool = g.vec(1..5, draw_pattern);
            for p in pool.clone() {
                if g.bool(0.6) {
                    pool.push(twin(&p));
                }
            }
            let num_apps = g.size(1..24);
            let fleet: Vec<SimApp> = (0..num_apps)
                .map(|a| {
                    SimApp::numa_local(&format!("a{a}"), 0.25).with_activity(g.pick(&pool).clone())
                })
                .collect();
            let mut changed = fleet.clone();
            for app in &mut changed {
                match g.range(0..10u32) {
                    0..=2 => app.activity = twin(&app.activity),
                    3 => app.activity = draw_pattern(g),
                    _ => {}
                }
            }
            let mut times = g.vec(0..3, |g| f64::from(g.range(1..8u32)) / 8.0);
            times.sort_by(f64::total_cmp);
            let schedule: Vec<(f64, ThreadAssignment)> = std::iter::once(0.0)
                .chain(times)
                .map(|t| {
                    let shift = g.range(0..NODES);
                    let rows = (0..num_apps)
                        .map(|a| {
                            let mut row = vec![0; NODES];
                            row[(a + shift) % NODES] = 1;
                            row
                        })
                        .collect();
                    (t, ThreadAssignment::from_matrix(rows))
                })
                .collect();
            let seed = g.range(0..u64::MAX);
            let sim = Simulation::new(
                crate::SimConfig::new(machine)
                    .with_effects(crate::EffectModel::ideal())
                    .with_seed(seed),
            );

            let end = s_to_tick(1.0);
            let (_, log) = sim.run_logged(&fleet, &schedule, 1.0).unwrap();
            assert_eq!(log.events, per_app_events(&fleet, &schedule, end, seed));
            let mut run = EventRun::default();
            for apps in [&fleet, &fleet, &changed, &fleet] {
                let (mut samples, mut log) = (Samples::default(), EventLog::default());
                advance_time(
                    &sim,
                    apps,
                    Entries::Dense(&schedule),
                    1.0,
                    EngineKind::Event,
                    &mut run,
                    Some((&mut samples, &mut log)),
                )
                .unwrap();
                assert_eq!(log.events, per_app_events(apps, &schedule, end, seed));
                let mut distinct: Vec<[u64; 4]> = apps.iter().map(|a| a.activity.bits()).collect();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(run.apps.groups.len(), distinct.len());
                assert!(log.wakeups <= log.events.len() as u64);
            }

            // Which twins met in one fleet.
            let has = |pred: &dyn Fn(&ActivityPattern, &ActivityPattern) -> bool| {
                [&fleet, &changed].iter().any(|apps| {
                    apps.iter()
                        .any(|a| apps.iter().any(|b| pred(&a.activity, &b.activity)))
                })
            };
            let phase = |p: &ActivityPattern| match *p {
                ActivityPattern::Bursts { phase_s, .. } => Some(phase_s.to_bits()),
                _ => None,
            };
            let hits = [
                has(&|a, b| matches!((phase(a), phase(b)), (Some(x), Some(y)) if x == y + 1)),
                has(&|a, b| a == b && a.bits() != b.bits()),
                has(&|a, b| {
                    matches!(a, ActivityPattern::AlwaysOn)
                        && matches!(b, ActivityPattern::Window { .. })
                }),
            ];
            let mut counts = seen.get();
            for (n, hit) in counts.iter_mut().zip(hits) {
                *n += usize::from(hit);
            }
            seen.set(counts);
        });
        let seen = seen.get();
        assert!(
            seen.iter().all(|&n| n >= 8),
            "fleets with a one-ulp phase, a signed zero, AlwaysOn beside a window: {seen:?}"
        );
    }

    #[test]
    fn tick_conversion_round_trips() {
        for t in [0.0, 1e-3, 0.05, 1.0, 3600.0] {
            assert!((tick_to_s(s_to_tick(t)) - t).abs() < 1e-9);
        }
    }
}
