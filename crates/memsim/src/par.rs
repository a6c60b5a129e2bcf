//! The conservative parallel discrete-event engine.
//!
//! [`run_dynamic_event_par`] runs the same physics as
//! [`crate::event::run_dynamic_event`] across `sim_threads` worker shards,
//! and produces **bit-identical** results — the same [`crate::EventLog`]
//! bytes, the same [`crate::SimResult`] floats — at any shard count.
//!
//! # Design
//!
//! Components are partitioned by a [`ShardPlan`]: each shard owns a
//! contiguous range of applications (and, because assignments expand
//! app-major, the matching contiguous range of simulated threads) plus a
//! contiguous range of NUMA nodes (their controllers and inbound links).
//! Each shard runs its own [`EventHeap`] on a dedicated worker thread.
//!
//! Synchronization is *conservative*: nobody speculates past the **safe
//! horizon** — the lower bound on the timestamp (LBTS) of the next event
//! anywhere in the fleet, i.e. the minimum over every shard's earliest
//! pending tick and the coordinator-owned agent's next schedule edge.
//! Between two horizons every rate in the system is constant, so the
//! segment is integrated analytically, exactly as the single-threaded
//! engine does — except the demand columns and the per-node bandwidth
//! arbitrations are fanned out across the shards.
//!
//! Each segment runs a fixed four-barrier protocol:
//!
//! 1. **publish** — the coordinator computes the horizon and the globally
//!    coupled prologue (active set, census, capacities — the jitter RNG
//!    stays sequential), then releases the workers;
//! 2. **demand** — each shard builds the demand columns of its own threads
//!    (only the non-zero demands, see [`DemandCols`]);
//! 3. **arbitrate** — each shard arbitrates its own target nodes against
//!    every shard's columns (reads cross shards, writes stay home), writing
//!    one grant per column entry;
//! 4. **integrate** — each shard folds the grants of its own column
//!    entries back over its own threads, target-ascending (the identical
//!    float-add sequence the sequential engine performs), banks gflops,
//!    advances its controllers/links, and drains its heap events at the
//!    horizon.
//!
//! The coordinator then merges the shard-drained events with any agent
//! edge by the global heap key `(tie, component)` — reproducing the
//! single heap's pop order — appends them to the log, and applies
//! assignment switches. Determinism follows because no step's result
//! depends on worker scheduling: every cross-shard value is read strictly
//! after the barrier that orders its write.

use crate::engine::{
    arbitrate_node, expand_threads, rates_prologue, DemandCols, DemandView, EpochTracer,
    NodeScratch, RateScratch, Thread,
};
use crate::event::{
    s_to_tick, tick_to_s, AgentComponent, AppComponent, Component, ControllerComponent, EventEdge,
    EventHeap, LinkComponent, SimEvent, Tick, TieBreak, AGENT_ID, APP_ID0,
};
use crate::result::AppSeries;
use crate::{EventLog, ShardPlan, SimApp, SimConfig, SimError, SimResult, Simulation};
use coop_alloc::rng::{splitmix64, StdRng};
use numa_topology::NodeId;
use roofline_numa::ThreadAssignment;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, RwLock};

/// Sentinel for "this shard has no pending event".
const NO_TICK: Tick = Tick::MAX;

/// Barrier crossings per integrated segment (the four-phase protocol).
const BARRIERS_PER_SEGMENT: u64 = 4;

/// The default plan for `config.sim_threads` shards: contiguous app ranges
/// balanced by each app's worst-case thread count across the schedule, and
/// an even split of the NUMA nodes.
pub(crate) fn default_plan(
    config: &SimConfig,
    num_apps: usize,
    schedule: &[(f64, ThreadAssignment)],
) -> ShardPlan {
    let num_nodes = config.machine.num_nodes();
    let mut weights = vec![1usize; num_apps];
    for (_, assignment) in schedule {
        for (app, w) in weights.iter_mut().enumerate() {
            if app >= assignment.num_apps() {
                continue;
            }
            let count: usize = (0..num_nodes).map(|n| assignment.get(app, NodeId(n))).sum();
            *w = (*w).max(count);
        }
    }
    ShardPlan::balanced(num_apps, num_nodes, config.sim_threads, &weights)
}

/// What the coordinator publishes before releasing the workers into a
/// segment.
#[derive(Debug, Clone, Copy, Default)]
struct SegmentHeader {
    horizon: Tick,
    dt_s: f64,
    mid_s: f64,
    /// Events at the horizon are drained (false for the final segment:
    /// the sequential engine ends the run *before* draining ticks at
    /// `end`, and so must we).
    drain: bool,
    /// The run is over; workers exit.
    done: bool,
}

/// One shard's coordinator-visible buffers. Every buffer has exactly one
/// writer per phase, and readers only look after the barrier that ordered
/// the write — the `RwLock`s are never contended, they exist to keep the
/// crate `forbid(unsafe_code)`-clean.
struct ShardBuf {
    /// Own threads' demand columns.
    demand: RwLock<DemandCols>,
    /// Own nodes' grant columns.
    grants: RwLock<GrantCols>,
    /// Per own node: `(served_gbs, remote_in_gbs)` for this segment.
    node_out: RwLock<Vec<(f64, f64)>>,
    /// Component ids drained at the last horizon, in shard pop order.
    staged: RwLock<Vec<u32>>,
    /// Earliest pending tick in this shard's heap ([`NO_TICK`] = none).
    next_tick: AtomicU64,
}

/// The grants of one shard's target nodes. A target's grants follow the
/// order of its demand column across all shards' parts, so the entries of
/// shard `p`'s part sit after those of shards `0..p`.
#[derive(Default)]
struct GrantCols {
    /// Own node `ln`'s grants are `g[start[ln]..start[ln + 1]]`.
    start: Vec<usize>,
    g: Vec<f64>,
}

/// State shared between the coordinator and all workers.
struct Shared<'a> {
    header: RwLock<SegmentHeader>,
    /// Per-thread compute capacity, coordinator-written each segment.
    cap: RwLock<Vec<f64>>,
    /// The expanded thread list for the applied assignment.
    threads: RwLock<Vec<Thread>>,
    /// Shard `s` owns global threads `thread_bounds[s]..thread_bounds[s+1]`
    /// (always aligned to app boundaries).
    thread_bounds: RwLock<Vec<usize>>,
    shards: Vec<ShardBuf>,
    barrier: Barrier,
    plan: &'a ShardPlan,
    num_nodes: usize,
}

/// A worker's private state: its components, heap, and result partials.
/// Moved into the worker thread and recovered at join.
struct WorkerState {
    shard: usize,
    apps_lo: usize,
    nodes_lo: usize,
    nodes_hi: usize,
    comps: Vec<AppComponent>,
    heap: EventHeap,
    /// Per own app.
    gflop_done: Vec<f64>,
    app_rate: Vec<f64>,
    series: Vec<AppSeries>,
    /// Per own node.
    controllers: Vec<ControllerComponent>,
    links: Vec<LinkComponent>,
    node_tmp: NodeScratch,
    /// Per own thread: bandwidth granted this segment.
    granted: Vec<f64>,
}

/// Thread-range boundaries matching `app_bounds` (threads are app-major,
/// so each app's threads are contiguous and never straddle a shard —
/// which keeps every app's gflop accumulation on one worker, in the same
/// ascending-thread order as the sequential engine).
fn thread_bounds_for(threads: &[Thread], app_bounds: &[usize]) -> Vec<usize> {
    let mut bounds = Vec::with_capacity(app_bounds.len());
    let mut i = 0usize;
    for &apps_before in app_bounds {
        while i < threads.len() && threads[i].app < apps_before {
            i += 1;
        }
        bounds.push(i);
    }
    bounds
}

/// One worker's lifetime: segments until the coordinator publishes `done`.
fn worker_run(
    shared: &Shared<'_>,
    st: &mut WorkerState,
    apps: &[SimApp],
    machine: &numa_topology::Machine,
    effects: &crate::EffectModel,
) {
    let s = st.shard;
    let nn = shared.num_nodes;
    let own_nodes = st.nodes_hi - st.nodes_lo;
    loop {
        shared.barrier.wait(); // 1: segment published
        let hdr = *shared.header.read().expect("header lock");
        if hdr.done {
            return;
        }

        // Phase 2: build own threads' demand columns.
        {
            let cap = shared.cap.read().expect("cap lock");
            let threads = shared.threads.read().expect("threads lock");
            let bounds = shared.thread_bounds.read().expect("bounds lock");
            let mut demand = shared.shards[s].demand.write().expect("demand lock");
            demand.build(apps, &threads, &cap, bounds[s]..bounds[s + 1], nn);
        }
        shared.barrier.wait(); // 2: demand columns complete

        // Phase 3: arbitrate own target nodes against every shard's columns.
        {
            let threads = shared.threads.read().expect("threads lock");
            let guards: Vec<_> = shared
                .shards
                .iter()
                .map(|b| b.demand.read().expect("demand lock"))
                .collect();
            let parts: Vec<&DemandCols> = guards.iter().map(|g| &**g).collect();
            let view = DemandView { parts: &parts };
            st.node_tmp.reset(apps.len(), nn);
            let mut grants = shared.shards[s].grants.write().expect("grants lock");
            let GrantCols { start, g } = &mut *grants;
            start.clear();
            g.clear();
            let mut out = shared.shards[s].node_out.write().expect("node_out lock");
            out.clear();
            for target in st.nodes_lo..st.nodes_hi {
                start.push(g.len());
                out.push(arbitrate_node(
                    machine,
                    effects,
                    target,
                    &threads,
                    &view,
                    &mut st.node_tmp,
                    g,
                ));
            }
            start.push(g.len());
        }
        shared.barrier.wait(); // 3: grant columns complete

        // Phase 4: fold grants over own threads, bank work, advance own
        // controllers/links, drain own heap events at the horizon.
        {
            let cap = shared.cap.read().expect("cap lock");
            let threads = shared.threads.read().expect("threads lock");
            let bounds = shared.thread_bounds.read().expect("bounds lock");
            let (lo, hi) = (bounds[s], bounds[s + 1]);
            // Own columns last; the lower shards' say where own grants start.
            let demand_guards: Vec<_> = shared.shards[..=s]
                .iter()
                .map(|b| b.demand.read().expect("demand lock"))
                .collect();
            let (own_demand, lower) = demand_guards.split_last().expect("own shard");
            let grant_guards: Vec<_> = shared
                .shards
                .iter()
                .map(|b| b.grants.read().expect("grants lock"))
                .collect();
            // The same per-thread, ascending-target accumulation as the
            // sequential engine's per-target fold.
            st.granted.clear();
            st.granted.resize(hi - lo, 0.0);
            for target in 0..nn {
                let owner = shared.plan.node_owner(target);
                let grants = &grant_guards[owner];
                let before: usize = lower.iter().map(|p| p.column_len(target)).sum();
                let first = grants.start[target - shared.plan.node_bounds[owner]] + before;
                for ((i, _), &grant) in own_demand.column(target).zip(&grants.g[first..]) {
                    st.granted[i - lo] += grant;
                }
            }
            st.app_rate.fill(0.0);
            for i in lo..hi {
                if cap[i] == 0.0 {
                    continue;
                }
                let app = threads[i].app;
                let gflops = (apps[app].spec.ai * st.granted[i - lo]).min(cap[i]);
                st.gflop_done[app - st.apps_lo] += gflops * hdr.dt_s;
                st.app_rate[app - st.apps_lo] += gflops;
            }
            for (a, series) in st.series.iter_mut().enumerate() {
                series.times_s.push(hdr.mid_s);
                series.gflops_series.push(st.app_rate[a]);
            }
            let out = shared.shards[s].node_out.read().expect("node_out lock");
            for ln in 0..own_nodes {
                let (served, remote_in) = out[ln];
                st.controllers[ln].integrate(served, hdr.dt_s);
                st.controllers[ln].advance(hdr.horizon);
                st.links[ln].remote_gb += remote_in * hdr.dt_s;
                st.links[ln].advance(hdr.horizon);
            }
            if hdr.drain {
                let mut staged = shared.shards[s].staged.write().expect("staged lock");
                staged.clear();
                while st.heap.peek_tick() == Some(hdr.horizon) {
                    let (_, id) = st.heap.pop().expect("peeked");
                    let a = (id - APP_ID0) as usize - st.apps_lo;
                    st.comps[a].advance(hdr.horizon);
                    st.heap.schedule_component(id, &st.comps[a]);
                    staged.push(id);
                }
                shared.shards[s]
                    .next_tick
                    .store(st.heap.peek_tick().unwrap_or(NO_TICK), Ordering::Release);
            }
        }
        shared.barrier.wait(); // 4: segment integrated
    }
}

/// Parallel `run_dynamic_event`: same inputs and outputs, `plan.num_shards()`
/// worker threads, bit-identical results.
pub(crate) fn run_dynamic_event_par(
    sim: &Simulation,
    apps: &[SimApp],
    schedule: &[(f64, ThreadAssignment)],
    duration_s: f64,
    plan: &ShardPlan,
) -> crate::Result<(SimResult, EventLog)> {
    sim.validate_run(apps, schedule, duration_s)?;
    let machine = &sim.config.machine;
    let effects = &sim.config.effects;
    let num_nodes = machine.num_nodes();
    if let Err(reason) = plan.check(apps.len(), num_nodes) {
        return Err(SimError::BadPlan { reason });
    }
    let num_shards = plan.num_shards();
    let peak = machine.core_peak_gflops();
    let end = s_to_tick(duration_s).max(1);
    let seed = sim.config.seed;
    let mut rng = StdRng::seed_from_u64(seed);

    let tel = sim.run_telemetry();

    // The agent lives on the coordinator; apply the initial assignment
    // (entries at or before t = 0) exactly as the sequential engine does.
    let mut agent = AgentComponent::default();
    agent.reset(schedule);
    agent.advance(0);
    let mut applied_idx = agent.idx;
    let mut threads = Vec::new();
    expand_threads(&schedule[applied_idx].1, num_nodes, &mut threads);
    let thread_bounds = thread_bounds_for(&threads, &plan.app_bounds);

    // Build each shard's private world: components, heap, partials.
    let mut states: Vec<WorkerState> = (0..num_shards)
        .map(|s| {
            let (apps_lo, apps_hi) = (plan.app_bounds[s], plan.app_bounds[s + 1]);
            let (nodes_lo, nodes_hi) = (plan.node_bounds[s], plan.node_bounds[s + 1]);
            let mut heap = EventHeap::new(TieBreak::Seeded(seed));
            let comps: Vec<AppComponent> = (apps_lo..apps_hi)
                .map(|a| {
                    let comp = AppComponent::new(&apps[a], end);
                    heap.schedule_component(APP_ID0 + a as u32, &comp);
                    comp
                })
                .collect();
            WorkerState {
                shard: s,
                apps_lo,
                nodes_lo,
                nodes_hi,
                comps,
                heap,
                gflop_done: vec![0.0; apps_hi - apps_lo],
                app_rate: vec![0.0; apps_hi - apps_lo],
                series: apps[apps_lo..apps_hi]
                    .iter()
                    .map(|a| AppSeries::empty(a.name()))
                    .collect(),
                controllers: (nodes_lo..nodes_hi)
                    .map(|_| ControllerComponent {
                        now: 0,
                        delivered_gb: 0.0,
                    })
                    .collect(),
                links: (nodes_lo..nodes_hi)
                    .map(|_| LinkComponent {
                        now: 0,
                        remote_gb: 0.0,
                    })
                    .collect(),
                node_tmp: NodeScratch::default(),
                granted: Vec::new(),
            }
        })
        .collect();

    let shared = Shared {
        header: RwLock::new(SegmentHeader::default()),
        cap: RwLock::new(Vec::new()),
        threads: RwLock::new(threads),
        thread_bounds: RwLock::new(thread_bounds),
        shards: states
            .iter()
            .map(|st| ShardBuf {
                demand: RwLock::new(DemandCols::default()),
                grants: RwLock::new(GrantCols::default()),
                node_out: RwLock::new(Vec::new()),
                staged: RwLock::new(Vec::new()),
                next_tick: AtomicU64::new(st.heap.peek_tick().unwrap_or(NO_TICK)),
            })
            .collect(),
        barrier: Barrier::new(num_shards + 1),
        plan,
        num_nodes,
    };

    let mut log = EventLog {
        seed,
        events: Vec::new(),
        segments: 0,
    };
    let mut tracer = EpochTracer::default();
    tracer.reset(apps.len());
    if sim.tracing {
        if let Some(tel) = &tel {
            tracer.on_assignment(tel, 0.0, applied_idx, &schedule[applied_idx].1, apps);
        }
    }
    let mut scratch = RateScratch::default();
    let mut rr_offset = vec![0usize; num_nodes];
    let mut merged: Vec<u32> = Vec::new();
    let mut now: Tick = 0;

    let final_states = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .drain(..)
            .map(|mut st| {
                let shared = &shared;
                scope.spawn(move || {
                    worker_run(shared, &mut st, apps, machine, effects);
                    st
                })
            })
            .collect();

        loop {
            if now >= end {
                shared.header.write().expect("header lock").done = true;
                shared.barrier.wait();
                break;
            }
            // The safe horizon (LBTS): the earliest pending tick across
            // every shard heap and the agent, capped at the end of the run.
            let mut horizon = end;
            for buf in &shared.shards {
                horizon = horizon.min(buf.next_tick.load(Ordering::Acquire));
            }
            if let Some(t) = agent.next_tick() {
                horizon = horizon.min(t);
            }
            let horizon = horizon.min(end);
            debug_assert!(horizon > now, "the safe horizon must advance time");
            // A shard that crosses this barrier without an event of its own
            // at the horizon advanced purely by LBTS — a horizon stall.
            let stalls = shared
                .shards
                .iter()
                .filter(|b| b.next_tick.load(Ordering::Relaxed) != horizon)
                .count() as u64;
            let dt_s = tick_to_s(horizon - now);
            let mid_s = tick_to_s(now) + dt_s / 2.0;

            // Globally-coupled prologue: active set, census, capacities
            // (the jitter RNG draws stay in sequential thread order).
            {
                let threads = shared.threads.read().expect("threads lock");
                rates_prologue(
                    machine,
                    effects,
                    peak,
                    apps,
                    &threads,
                    mid_s,
                    false,
                    &mut rng,
                    &mut rr_offset,
                    tel.as_ref(),
                    &mut scratch,
                );
                let mut cap = shared.cap.write().expect("cap lock");
                cap.clear();
                cap.extend_from_slice(&scratch.cap);
            }
            *shared.header.write().expect("header lock") = SegmentHeader {
                horizon,
                dt_s,
                mid_s,
                drain: horizon < end,
                done: false,
            };
            shared.barrier.wait(); // 1: publish
            shared.barrier.wait(); // 2: demand
            shared.barrier.wait(); // 3: arbitrate
            shared.barrier.wait(); // 4: integrate

            log.segments += 1;
            if let Some(tel) = &tel {
                // Bandwidth samples in ascending node order, exactly as the
                // sequential engine emits them.
                for (s, buf) in shared.shards.iter().enumerate() {
                    let out = buf.node_out.read().expect("node_out lock");
                    for (ln, &(served, _)) in out.iter().enumerate() {
                        let node = plan.node_bounds[s] + ln;
                        let util = served / machine.node(NodeId(node)).bandwidth_gbs;
                        tel.record_bandwidth_sample(node, mid_s, served, util);
                    }
                }
                tel.record_shard_sync(BARRIERS_PER_SEGMENT, stalls);
            }
            now = horizon;
            if now >= end {
                continue; // the next iteration publishes `done`
            }

            // Merge the shard-drained events (plus any agent edge) by the
            // global heap key: (seeded tie, component id) — the exact pop
            // order of the sequential engine's single heap at this tick.
            merged.clear();
            for buf in &shared.shards {
                merged.extend_from_slice(&buf.staged.read().expect("staged lock"));
            }
            if agent.next_tick() == Some(now) {
                agent.advance(now);
                merged.push(AGENT_ID);
            }
            merged.sort_unstable_by_key(|&id| (splitmix64(seed ^ id as u64), id));
            for &id in &merged {
                log.events.push(SimEvent {
                    t_ns: now,
                    component: id,
                    kind: if id == AGENT_ID {
                        EventEdge::Assignment
                    } else {
                        EventEdge::Activity
                    },
                });
            }

            if agent.idx != applied_idx {
                let mut new_threads = Vec::new();
                expand_threads(&schedule[agent.idx].1, num_nodes, &mut new_threads);
                *shared.thread_bounds.write().expect("bounds lock") =
                    thread_bounds_for(&new_threads, &plan.app_bounds);
                *shared.threads.write().expect("threads lock") = new_threads;
                if let Some(tel) = &tel {
                    tel.record_assignment_switch(tick_to_s(now), agent.idx);
                }
                if sim.tracing {
                    if let Some(tel) = &tel {
                        tracer.on_assignment(
                            tel,
                            tick_to_s(now),
                            agent.idx,
                            &schedule[agent.idx].1,
                            apps,
                        );
                    }
                }
                applied_idx = agent.idx;
            }
        }

        handles
            .into_iter()
            .map(|h| h.join().expect("simulator worker panicked"))
            .collect::<Vec<_>>()
    });

    // Stitch the shard partials back into global order.
    let sim_time = tick_to_s(end);
    let mut series: Vec<AppSeries> = Vec::with_capacity(apps.len());
    let mut node_avg_gbs: Vec<f64> = Vec::with_capacity(num_nodes);
    for st in final_states {
        for (a, mut app_series) in st.series.into_iter().enumerate() {
            app_series.gflop_done = st.gflop_done[a];
            series.push(app_series);
        }
        for c in &st.controllers {
            node_avg_gbs.push(c.delivered_gb / sim_time);
        }
    }
    let node_utilization: Vec<f64> = node_avg_gbs
        .iter()
        .enumerate()
        .map(|(n, &g)| g / machine.node(NodeId(n)).bandwidth_gbs)
        .collect();
    if let Some(tel) = &tel {
        tracer.finish(tel, sim_time);
        tel.record_run_summary(&node_avg_gbs, &node_utilization);
    }

    Ok((
        SimResult {
            machine: machine.name().to_string(),
            duration_s: sim_time,
            apps: series,
            node_avg_gbs,
            node_utilization,
        },
        log,
    ))
}
