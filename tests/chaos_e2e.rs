//! End-to-end fault tolerance: three cooperating runtimes under one
//! supervised agent, with a chaos wrapper around the first. Killing it
//! mid-run must walk the detector to Dead within the configured window,
//! evict it, and fair-share its cores to the two survivors (their worker
//! counts rise); reviving it must re-admit it as Healthy and give it its
//! share back — all without `Agent::tick` ever returning an error. The
//! eviction/recovery instants must land on the shared telemetry timeline
//! and the health gauge / retry counters must export via Prometheus.
//!
//! A second test drives the runaway path end to end: fuel budgets and
//! the wall-clock watchdog armed on every runtime, spinners wedged into
//! one tenant until the agent's sustained-runaway detector clamps it to
//! its fair-share row — the offender is Degraded (not evicted), the
//! containment lands on the timeline, the ledger books the over-budget
//! CPU against the offender alone, and a few quiet ticks later the
//! offender is Healthy again.
//!
//! After every tick the commands it applied are held to
//! `control::check_commands` against the agent's live mask and
//! containment rows.

use numa_coop::agent::control::{row_of, INVARIANT_VIOLATIONS};
use numa_coop::agent::SupervisionConfig;
use numa_coop::agent::{policies, Agent, ChaosHandle, FaultPlan, Health, KillSwitch};
use numa_coop::prelude::*;
use numa_coop::topology::presets::tiny;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CONVERGE: Duration = Duration::from_secs(5);

/// One tick, then the commands it applied against the tenancy invariants.
fn tick(agent: &mut Agent) {
    agent.tick().unwrap();
    let log = agent.log();
    let names: Vec<String> = agent.health().into_iter().map(|(n, _)| n).collect();
    let applied = log.decisions.iter().filter(|d| d.tick + 1 == log.ticks);
    let cmds: Vec<(usize, &ThreadCommand)> = applied
        .map(|d| {
            let i = names.iter().position(|n| *n == d.runtime);
            (i.expect("decisions name managed runtimes"), &d.command)
        })
        .collect();
    let rows = cmds.iter().map(|&(i, cmd)| (i, row_of(cmd)));
    agent.tenancy().check(&agent.hub(), rows);
}

/// Raises its flag when dropped: the spinners a test wedges into a runtime
/// watch the flag, and a runtime cannot be dropped while they spin.
struct Release(Arc<AtomicBool>);

impl Drop for Release {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn health_of(agent: &Agent, name: &str) -> Health {
    agent
        .health()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, h)| h)
        .expect("runtime is managed")
}

#[test]
fn kill_evict_reclaim_revive_round_trip() {
    let machine = tiny();
    let hub = Arc::new(TelemetryHub::new());

    // Three cooperating runtimes on one hub; fair share over tiny()
    // (2 nodes x 2 cores) gives them 2 / 1 / 1 threads respectively.
    let runtimes: Vec<Arc<Runtime>> = (0..3)
        .map(|i| {
            Arc::new(
                Runtime::start(
                    RuntimeConfig::new(&format!("app{i}"), machine.clone())
                        .with_telemetry(Arc::clone(&hub)),
                )
                .unwrap(),
            )
        })
        .collect();

    // app0 goes through the chaos wrapper so the test can kill and
    // revive it without touching the real runtime.
    let kill = KillSwitch::new();
    let chaotic = ChaosHandle::new(Box::new(Arc::clone(&runtimes[0])), FaultPlan::new())
        .with_kill_switch(kill.clone());

    let mut agent = Agent::with_telemetry(
        Box::new(policies::FairShare::new(machine.clone())),
        Arc::clone(&hub),
    );
    agent.set_supervision(SupervisionConfig::aggressive(Duration::from_millis(100)));
    agent.set_reclaim_machine(machine.clone());
    agent.manage(Box::new(chaotic));
    agent.manage(Box::new(Arc::clone(&runtimes[1])));
    agent.manage(Box::new(Arc::clone(&runtimes[2])));

    // Phase 1 — healthy steady state: FairShare fires on the first tick.
    for _ in 0..2 {
        tick(&mut agent);
    }
    for (_, h) in agent.health() {
        assert_eq!(h, Health::Healthy);
    }
    assert!(runtimes[0]
        .control()
        .wait_converged(CONVERGE, |total, _| total == 2));
    assert!(runtimes[1]
        .control()
        .wait_converged(CONVERGE, |total, _| total == 1));
    assert!(runtimes[2]
        .control()
        .wait_converged(CONVERGE, |total, _| total == 1));

    // Phase 2 — kill app0. aggressive() allows one retry per call, so
    // each failing tick records two detector failures: Degraded and
    // Suspected on the first failing tick, Dead (and eviction) on the
    // second. Four ticks stay comfortably inside the detection window,
    // and none of them may error.
    kill.kill();
    for _ in 0..4 {
        tick(&mut agent);
    }
    assert_eq!(health_of(&agent, "app0"), Health::Dead);
    assert_eq!(agent.evicted(), vec!["app0".to_string()]);

    // Reclamation: the survivors split the whole machine — both rise to
    // one thread per node (each grows 1 -> 2, combined 2 -> 4).
    assert!(runtimes[1]
        .control()
        .wait_converged(CONVERGE, |total, per_node| total == 2 && per_node == [1, 1]));
    assert!(runtimes[2]
        .control()
        .wait_converged(CONVERGE, |total, per_node| total == 2 && per_node == [1, 1]));

    // The health gauge tracks the transition (Dead exports as 3).
    assert_eq!(
        hub.registry()
            .gauge_value("coop_agent_runtime_health", &[("runtime", "app0")]),
        Some(3.0)
    );

    // Phase 3 — revive: recovery_successes = 2 probes, one per tick.
    kill.revive();
    for _ in 0..3 {
        tick(&mut agent);
    }
    assert!(agent.evicted().is_empty());
    assert_eq!(health_of(&agent, "app0"), Health::Healthy);

    // The re-admitted runtime gets its fair share back and the survivors
    // shrink to theirs: 2 / 1 / 1 again, no node over its two cores.
    let rows: Vec<Vec<usize>> = runtimes
        .iter()
        .zip([2, 1, 1])
        .map(|(rt, want)| {
            let mut row = Vec::new();
            let converged = rt.control().wait_converged(CONVERGE, |total, per_node| {
                row = per_node.to_vec();
                total == want
            });
            assert!(converged, "{} runs {row:?}, not {want} threads", rt.name());
            row
        })
        .collect();
    for node in 0..machine.num_nodes() {
        let threads: usize = rows.iter().map(|row| row[node]).sum();
        assert!(threads <= 2, "node {node} runs {threads} threads: {rows:?}");
    }

    // Eviction and recovery instants are on the shared timeline.
    let events = hub.events();
    assert!(events
        .iter()
        .any(|e| e.cat == "health" && e.name == "evicted"));
    assert!(events
        .iter()
        .any(|e| e.cat == "health" && e.name == "readmitted"));

    // Health and retry series export through the Prometheus endpoint.
    let prom = hub.registry().to_prometheus();
    assert!(prom.contains("coop_agent_runtime_health"));
    assert!(prom.contains("coop_agent_retries_total"));
    assert!(
        hub.registry().counter_total("coop_agent_retries_total") > 0,
        "the killed runtime's calls were retried before being declared dead"
    );

    assert_eq!(hub.registry().counter_total(INVARIANT_VIOLATIONS), 0);
    for rt in &runtimes {
        rt.shutdown();
    }
}

#[test]
fn runaway_is_contained_booked_and_forgiven() {
    let machine = tiny();
    let hub = Arc::new(TelemetryHub::new());
    let ledger = Arc::new(TenantLedger::new());
    hub.install_tenant_ledger(Arc::clone(&ledger));

    // Budgets and the watchdog are armed on *every* tenant; containment
    // must single out the offender by behaviour.
    let runtimes: Vec<Arc<Runtime>> = (0..3)
        .map(|i| {
            Arc::new(
                Runtime::start(
                    RuntimeConfig::new(&format!("app{i}"), machine.clone())
                        .with_telemetry(Arc::clone(&hub))
                        .with_task_fuel(64)
                        .with_watchdog(Duration::from_millis(10)),
                )
                .unwrap(),
            )
        })
        .collect();

    let mut agent = Agent::with_telemetry(
        Box::new(policies::FairShare::new(machine.clone())),
        Arc::clone(&hub),
    );
    agent.set_supervision(SupervisionConfig::aggressive(Duration::from_millis(100)));
    agent.set_reclaim_machine(machine.clone());
    for rt in &runtimes {
        agent.manage(Box::new(Arc::clone(rt)));
    }

    // Steady state first: fair share lands, everyone Healthy.
    for _ in 0..2 {
        tick(&mut agent);
    }
    for (_, h) in agent.health() {
        assert_eq!(h, Health::Healthy);
    }

    // app0, which holds a core on each node, goes rogue: one fresh
    // spinner per tick keeps the runaway counter climbing (each wedges a
    // worker until `stop` flips), and a fuel hog burns through its 4-unit
    // budget so preemptions move too. `stop` flips when `release` drops,
    // so a failed assertion unwinds past spinners that return, not into
    // runtimes whose workers never do.
    let stop = Arc::new(AtomicBool::new(false));
    let release = Release(Arc::clone(&stop));
    for round in 0..2 {
        let stop2 = Arc::clone(&stop);
        runtimes[0]
            .task(&format!("spin-{round}"))
            .body(move |_| {
                while !stop2.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
            .spawn()
            .unwrap();
        if round == 0 {
            let mut steps = 0u32;
            runtimes[0]
                .task("hog")
                .fuel(4)
                .body_step(move |_| {
                    steps += 1;
                    if steps < 64 {
                        numa_coop::runtime::TaskStep::Yield
                    } else {
                        numa_coop::runtime::TaskStep::Done
                    }
                })
                .spawn()
                .unwrap();
        }
        // Let the 10 ms watchdog flag this round's spinner before the
        // agent samples stats: each tick then sees the counter climb.
        std::thread::sleep(Duration::from_millis(60));
        tick(&mut agent);
    }

    // Two climbing ticks is sustained: the offender is clamped to its
    // fair-share row and Degraded — contained, not evicted.
    assert!(
        hub.registry()
            .counter_total("coop_agent_containments_total")
            >= 1,
        "sustained runaways must trigger containment"
    );
    assert_eq!(health_of(&agent, "app0"), Health::Degraded);
    assert!(agent.evicted().is_empty());
    assert_eq!(health_of(&agent, "app1"), Health::Healthy);
    assert_eq!(health_of(&agent, "app2"), Health::Healthy);
    assert!(hub
        .events()
        .iter()
        .any(|e| e.cat == "health" && e.name == "contained"));

    // The spinners relent; their past-deadline CPU is booked when they
    // hand their workers back.
    drop(release);
    runtimes[0].wait_quiescent().unwrap();
    let stats = runtimes[0].stats().unwrap();
    assert!(
        stats.tasks_runaway >= 2,
        "watchdog missed a spinner: {stats:?}"
    );
    assert!(
        stats.tasks_preempted > 0,
        "fuel hog was never preempted: {stats:?}"
    );
    assert!(
        stats.overbudget_cpu_us > 0,
        "returned runaways book CPU: {stats:?}"
    );

    // Quiet ticks: the ledger books the damage against the offender
    // alone, and the forced health floor lifts — the offender recovers.
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(20));
        tick(&mut agent);
    }
    assert_eq!(health_of(&agent, "app0"), Health::Healthy);

    let snap = ledger.snapshot();
    let account = |name: &str| {
        snap.tenants
            .iter()
            .find(|t| t.tenant == name)
            .unwrap_or_else(|| panic!("{name} is accounted"))
            .clone()
    };
    let offender = account("app0");
    assert!(
        offender.preemptions > 0,
        "ledger books preemptions: {offender:?}"
    );
    assert!(
        offender.overbudget_cpu_us > 0,
        "ledger books over-budget CPU: {offender:?}"
    );
    for survivor in ["app1", "app2"] {
        let t = account(survivor);
        assert_eq!(t.preemptions, 0, "{survivor} wrongly charged: {t:?}");
        assert_eq!(t.overbudget_cpu_us, 0, "{survivor} wrongly charged: {t:?}");
    }

    assert_eq!(hub.registry().counter_total(INVARIANT_VIOLATIONS), 0);
    for rt in &runtimes {
        rt.shutdown();
    }
}
