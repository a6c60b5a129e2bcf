//! The agent keeps each managed runtime's five `coop_sched_*` counters
//! instead of looking them up by name for every tenant on every tick. This
//! test pins what that exports: the same series, created on the same
//! occasion (the first tick the tenant is sampled for the ledger), feeding
//! the ledger the same locality as `scheduler_locality(registry, name)` per
//! tenant per tick did. Public API only, so it runs unchanged against the
//! lookups it replaced — which is where the literals below come from.

use coop_agent::{
    Agent, AgentError, Policy, RuntimeHandle, RuntimeStats, SupervisionConfig, ThreadCommand,
};
use coop_telemetry::{TelemetryHub, TenantLedger};
use numa_topology::presets::tiny;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Never commands anything: the episode is about what a tick books.
struct Silent;

impl Policy for Silent {
    fn tick(&mut self, stats: &[RuntimeStats], _tick: u64) -> Vec<Option<ThreadCommand>> {
        vec![None; stats.len()]
    }
}

/// An in-memory runtime: every answered poll reports 100 more tasks and
/// 1 ms more uptime than the one before; a down runtime fails in transport.
struct Fake {
    name: &'static str,
    down: Arc<AtomicBool>,
    polls: AtomicU64,
}

impl RuntimeHandle for Fake {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn stats(&self) -> coop_agent::Result<RuntimeStats> {
        if self.down.load(Ordering::SeqCst) {
            return Err(AgentError::Disconnected {
                runtime: self.name.to_string(),
            });
        }
        let n = self.polls.fetch_add(1, Ordering::SeqCst) + 1;
        Ok(RuntimeStats {
            name: self.name.to_string(),
            tasks_executed: 100 * n,
            tasks_panicked: 0,
            tasks_spawned: 100 * n,
            tasks_ready: 0,
            tasks_pending: 0,
            running_workers: 1,
            blocked_workers: 0,
            external_threads: 0,
            per_node: vec![],
            user_counters: HashMap::new(),
            uptime_us: 1_000 * n,
            tasks_preempted: 0,
            tasks_runaway: 0,
            overbudget_cpu_us: 0,
        })
    }

    fn command(&self, _cmd: ThreadCommand) -> coop_agent::Result<()> {
        Ok(())
    }
}

/// The lines of the exposition this test is about: the scheduler's
/// counters and the ledger gauge computed from them. (The rest of the
/// registry holds wall-clock histograms.)
fn sched_lines(hub: &TelemetryHub) -> String {
    hub.registry()
        .to_prometheus()
        .lines()
        .filter(|line| line.contains("coop_sched_") || line.contains("coop_tenant_locality_ratio"))
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn kept_counters_export_what_a_lookup_per_tenant_per_tick_exported() {
    let hub = Arc::new(TelemetryHub::new());
    assert!(hub.install_tenant_ledger(Arc::new(TenantLedger::new())));
    let mut agent = Agent::with_telemetry(Box::new(Silent), Arc::clone(&hub));
    let mut supervision = SupervisionConfig::aggressive(Duration::from_secs(5));
    supervision.backoff.max_retries = 0;
    agent.set_supervision(supervision);
    agent.set_reclaim_machine(tiny());
    let b_down = Arc::new(AtomicBool::new(true));
    agent.manage(Box::new(Fake {
        name: "a",
        down: Arc::new(AtomicBool::new(false)),
        polls: AtomicU64::new(0),
    }));
    agent.manage(Box::new(Fake {
        name: "b",
        down: Arc::clone(&b_down),
        polls: AtomicU64::new(0),
    }));

    // "a" is a runtime that publishes its scheduler counters; the test plays
    // its scheduler. Two of its five series exist before the agent looks.
    let registry = hub.registry();
    let a_local = registry.counter("coop_sched_local_pops_total", &[("runtime", "a")]);
    let a_remote = registry.counter(
        "coop_sched_steals_total",
        &[("runtime", "a"), ("tier", "normal"), ("source", "remote")],
    );

    // "b" is down from the start: three failed polls evict it. It is never
    // sampled, so none of its series may appear; "a" gets its other three.
    for _ in 0..3 {
        a_local.add(90);
        a_remote.add(10);
        agent.tick().unwrap();
    }
    assert_eq!(agent.evicted(), vec!["b".to_string()]);
    const WHILE_B_IS_OUT: &str = concat!(
        "# TYPE coop_sched_local_pops_total counter\n",
        "coop_sched_local_pops_total{runtime=\"a\"} 270\n",
        "# TYPE coop_sched_steals_total counter\n",
        "coop_sched_steals_total{runtime=\"a\",source=\"remote\",tier=\"high\"} 0\n",
        "coop_sched_steals_total{runtime=\"a\",source=\"remote\",tier=\"normal\"} 30\n",
        "coop_sched_steals_total{runtime=\"a\",source=\"sibling\",tier=\"high\"} 0\n",
        "coop_sched_steals_total{runtime=\"a\",source=\"sibling\",tier=\"normal\"} 0\n",
        "# TYPE coop_tenant_locality_ratio gauge\n",
        "coop_tenant_locality_ratio{tenant=\"a\"} 0.9\n",
        // The ledger knows "b" since `manage` opened its epoch.
        "coop_tenant_locality_ratio{tenant=\"b\"} 1.0\n",
    );
    assert_eq!(sched_lines(&hub), WHILE_B_IS_OUT);

    // Back up: two probes re-admit "b", and the tick that does samples it
    // for the first time — the occasion its five series are created. A
    // sibling steal of "a" is local work: its ratio ends at 460 / 500.
    b_down.store(false, Ordering::SeqCst);
    let a_sibling = registry.counter(
        "coop_sched_steals_total",
        &[("runtime", "a"), ("tier", "high"), ("source", "sibling")],
    );
    for _ in 0..2 {
        a_local.add(90);
        a_sibling.add(5);
        a_remote.add(5);
        agent.tick().unwrap();
    }
    assert!(agent.evicted().is_empty());
    const AFTER_READMISSION: &str = concat!(
        "# TYPE coop_sched_local_pops_total counter\n",
        "coop_sched_local_pops_total{runtime=\"a\"} 450\n",
        "coop_sched_local_pops_total{runtime=\"b\"} 0\n",
        "# TYPE coop_sched_steals_total counter\n",
        "coop_sched_steals_total{runtime=\"a\",source=\"remote\",tier=\"high\"} 0\n",
        "coop_sched_steals_total{runtime=\"a\",source=\"remote\",tier=\"normal\"} 40\n",
        "coop_sched_steals_total{runtime=\"a\",source=\"sibling\",tier=\"high\"} 10\n",
        "coop_sched_steals_total{runtime=\"a\",source=\"sibling\",tier=\"normal\"} 0\n",
        "coop_sched_steals_total{runtime=\"b\",source=\"remote\",tier=\"high\"} 0\n",
        "coop_sched_steals_total{runtime=\"b\",source=\"remote\",tier=\"normal\"} 0\n",
        "coop_sched_steals_total{runtime=\"b\",source=\"sibling\",tier=\"high\"} 0\n",
        "coop_sched_steals_total{runtime=\"b\",source=\"sibling\",tier=\"normal\"} 0\n",
        "# TYPE coop_tenant_locality_ratio gauge\n",
        "coop_tenant_locality_ratio{tenant=\"a\"} 0.92\n",
        "coop_tenant_locality_ratio{tenant=\"b\"} 1.0\n",
    );
    assert_eq!(sched_lines(&hub), AFTER_READMISSION);
}
