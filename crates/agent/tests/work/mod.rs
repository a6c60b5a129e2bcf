//! The real agent's runs whose work `BENCH_work.json` records: eight
//! in-memory runtimes under supervision, a tenant ledger installed, and a
//! policy with no search due — a steady tick, the tick of an eviction and a
//! containment, and a whole life with a kill and a revive. The count covers
//! every thread of the process, so what the agent's runner and the
//! stand-in runtimes allocate to answer a poll is in it. The budget test
//! and the recorder include this file next to the counting allocator.

use super::counting::process_cost_of;
use coop_agent::{Agent, Policy, RuntimeHandle, RuntimeStats, SupervisionConfig, ThreadCommand};
use coop_runtime::NodeOccupancy;
use coop_telemetry::{TelemetryHub, TenantLedger};
use numa_topology::presets::tiny;
use numa_topology::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const RUNTIMES: usize = 8;

/// An in-memory runtime on `tiny()`'s two nodes whose counters
/// advance with every poll, as a working runtime's do. While `dead` is
/// set it fails every call; `runaway` is its watchdog counter.
struct Stub {
    name: String,
    polls: AtomicU64,
    dead: Arc<AtomicBool>,
    runaway: Arc<AtomicU64>,
}

impl Stub {
    fn new(i: usize) -> Self {
        Stub {
            name: format!("app{i}"),
            polls: AtomicU64::new(0),
            dead: Arc::default(),
            runaway: Arc::default(),
        }
    }

    fn down(&self) -> coop_agent::AgentError {
        coop_agent::AgentError::Disconnected {
            runtime: self.name.clone(),
        }
    }
}

impl RuntimeHandle for Stub {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn stats(&self) -> coop_agent::Result<RuntimeStats> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(self.down());
        }
        let n = self.polls.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(RuntimeStats {
            name: self.name.clone(),
            tasks_executed: 200 * n,
            tasks_panicked: 0,
            tasks_spawned: 200 * n,
            tasks_ready: 0,
            tasks_pending: 0,
            running_workers: 2,
            blocked_workers: 2,
            external_threads: 0,
            per_node: (0..2)
                .map(|node| NodeOccupancy {
                    node: NodeId(node),
                    running_workers: 1,
                    tasks_executed: 100 * n,
                })
                .collect(),
            user_counters: HashMap::new(),
            uptime_us: 1_000 * n,
            tasks_preempted: 0,
            tasks_runaway: self.runaway.load(Ordering::Relaxed),
            overbudget_cpu_us: 0,
        })
    }

    fn command(&self, _cmd: ThreadCommand) -> coop_agent::Result<()> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(self.down());
        }
        Ok(())
    }
}

/// No search due: nothing to command, or the same one thread per node to
/// everybody every tick.
struct Fixed {
    commanding: bool,
}

impl Policy for Fixed {
    fn tick(&mut self, stats: &[RuntimeStats], _tick: u64) -> Vec<Option<ThreadCommand>> {
        let cmd = self.commanding.then(|| ThreadCommand::PerNode(vec![1, 1]));
        vec![cmd; stats.len()]
    }
}

/// Allocator calls of one agent's life of `ticks` ticks, set-up and
/// tear-down included.
fn allocations_of_run(ticks: u64, commanding: bool) -> u64 {
    let ((), cost) = process_cost_of(|| {
        let hub = Arc::new(TelemetryHub::new());
        assert!(hub.install_tenant_ledger(Arc::new(TenantLedger::new())));
        let mut agent = Agent::with_telemetry(Box::new(Fixed { commanding }), hub);
        agent.set_supervision(SupervisionConfig::aggressive(Duration::from_secs(5)));
        agent.set_reclaim_machine(tiny());
        for i in 0..RUNTIMES {
            agent.manage(Box::new(Stub::new(i)));
        }
        for _ in 0..ticks {
            agent.tick().expect("a tick never fails");
        }
        let log = agent.log();
        assert_eq!(log.ticks, ticks);
        assert!(log.errors.is_empty(), "{:?}", log.errors);
        let decisions = if commanding { RUNTIMES as u64 } else { 0 };
        assert_eq!(log.decisions.len() as u64, decisions * ticks);
    });
    cost.calls
}

/// The cell of a steady tick, quiet or commanding: its allocator calls,
/// the difference between a 600-tick and a 300-tick run divided by 300, so
/// that what a run sets up once (threads, series, the ledger's tenants)
/// cancels, rounded to whole calls: on a loaded host the runner thread
/// makes a few calls a run more or fewer, as it is scheduled.
pub fn agent_tick(commanding: bool) -> (String, f64) {
    let short = allocations_of_run(300, commanding);
    let long = allocations_of_run(600, commanding);
    let kind = if commanding { "commanding" } else { "quiet" };
    (
        format!("agent.tick.{kind}.calls"),
        ((long - short) as f64 / 300.0).round(),
    )
}

/// The allocator calls of the one tick in which `app0`, dead for two ticks,
/// is evicted and its cores reclaimed by the fair-share fallback, and
/// `app1`, whose runaway counter climbed into the tick before, is
/// contained.
fn chaos_tick_calls() -> u64 {
    let hub = Arc::new(TelemetryHub::new());
    assert!(hub.install_tenant_ledger(Arc::new(TenantLedger::new())));
    let mut agent = Agent::with_telemetry(Box::new(Fixed { commanding: false }), Arc::clone(&hub));
    // No retries: one failed poll is one detector failure, so the third
    // failing tick evicts.
    let mut supervision = SupervisionConfig::aggressive(Duration::from_secs(5));
    supervision.backoff.max_retries = 0;
    agent.set_supervision(supervision);
    agent.set_reclaim_machine(tiny());
    let stubs: Vec<Stub> = (0..RUNTIMES).map(Stub::new).collect();
    let (dead, runaway) = (Arc::clone(&stubs[0].dead), Arc::clone(&stubs[1].runaway));
    for stub in stubs {
        agent.manage(Box::new(stub));
    }
    for tick in 0..7 {
        match tick {
            5 => dead.store(true, Ordering::Relaxed),
            6 => {
                runaway.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        agent.tick().expect("a tick never fails");
    }
    runaway.fetch_add(1, Ordering::Relaxed);
    let ((), cost) = process_cost_of(|| agent.tick().expect("a tick never fails"));
    assert_eq!(agent.evicted(), ["app0"]);
    assert_eq!(
        hub.registry()
            .counter_total("coop_agent_containments_total"),
        1
    );
    let log = agent.log();
    let last: Vec<_> = log.decisions.iter().filter(|d| d.tick == 7).collect();
    assert_eq!(last.len(), RUNTIMES - 1, "{last:?}");
    cost.calls
}

/// The cell of a chaos tick: its allocator calls, the fewest of three runs,
/// so that the runner thread scheduled into the counted tick on a loaded
/// host does not move it.
pub fn agent_chaos_tick() -> (String, f64) {
    let calls = (0..3)
        .map(|_| chaos_tick_calls())
        .min()
        .expect("three runs");
    ("agent.tick.chaos.calls".into(), calls as f64)
}

/// This process's threads that serve an agent's runtimes (Linux only):
/// its `coop-runner`s, and any `<runtime>-courier`, the name a thread per
/// runtime would have. Counted by name, so that threads of anything else
/// starting or ending meanwhile are not.
fn serving_threads() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| {
            let name = comm.trim_end();
            name == "coop-runner" || name.ends_with("-courier")
        })
        .count() as u64
}

/// The cells of one agent's life of 240 ticks over eight runtimes, one of
/// which is killed (tick 80, evicted three ticks later) and revived (tick
/// 160, re-admitted after two probes): the allocator calls of its set-up
/// and ticks, and the serving threads the agent put in front of its
/// runtimes, counted while it lives.
pub fn agent_episode() -> [(String, f64); 2] {
    assert_eq!(serving_threads(), 0, "no other agent serves runtimes");
    let (agent, cost) = process_cost_of(|| {
        let hub = Arc::new(TelemetryHub::new());
        assert!(hub.install_tenant_ledger(Arc::new(TenantLedger::new())));
        let mut agent = Agent::with_telemetry(Box::new(Fixed { commanding: true }), hub);
        let mut supervision = SupervisionConfig::aggressive(Duration::from_secs(5));
        supervision.backoff.max_retries = 0;
        agent.set_supervision(supervision);
        agent.set_reclaim_machine(tiny());
        let stubs: Vec<Stub> = (0..RUNTIMES).map(Stub::new).collect();
        let dead = Arc::clone(&stubs[0].dead);
        for stub in stubs {
            agent.manage(Box::new(stub));
        }
        for tick in 0..240 {
            match tick {
                80 => dead.store(true, Ordering::Relaxed),
                160 => dead.store(false, Ordering::Relaxed),
                _ => {}
            }
            agent.tick().expect("a tick never fails");
        }
        agent
    });
    let threads = serving_threads();
    let log = agent.log();
    assert_eq!(log.ticks, 240);
    assert!(agent.evicted().is_empty(), "{:?}", agent.evicted());
    let hub = agent.hub();
    assert_eq!(
        hub.registry().counter_total("coop_agent_evictions_total"),
        1
    );
    assert_eq!(
        hub.registry().counter_total("coop_agent_recoveries_total"),
        1
    );
    [
        ("agent.episode.calls".into(), cost.calls as f64),
        ("agent.episode.threads".into(), threads as f64),
    ]
}
