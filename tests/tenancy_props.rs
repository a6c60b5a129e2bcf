//! The tenancy's safety properties over seeded fault schedules, on both
//! plants, with `control::check_commands` after every tick:
//!
//! * the real agent over stub runtimes, each behind a seeded `FaultPlan`
//!   of disconnect windows (kills and revivals), one of them with a
//!   watchdog counter that climbs on seeded ticks — the commands each stub
//!   received in a tick are checked against the agent's live mask and
//!   containment rows, and against the machine's cores;
//! * `memsim`'s supervised runs under a seeded `ChaosPlan` and a
//!   `RunawayTask`, whose loop checks its rows in force every tick (a
//!   violation fails a debug build there and then).
//!
//! Neither may count a violation in `coop_agent_invariant_violations_total`.

use numa_coop::agent::control::{check_commands, row_of, INVARIANT_VIOLATIONS};
use numa_coop::agent::policies::{FairShare, ModelGuided};
use numa_coop::agent::{
    Agent, ChaosHandle, Fault, FaultPlan, Policy, RuntimeHandle, RuntimeStats, SupervisionConfig,
    ThreadCommand,
};
use numa_coop::alloc::cases::{check, Gen};
use numa_coop::model::AppSpec;
use numa_coop::runtime::NodeOccupancy;
use numa_coop::sim::{
    run_supervised, AppOutage, ChaosPlan, EngineKind, Perturbation, Scenario, SupervisorConfig,
};
use numa_coop::telemetry::{TelemetryHub, TenantLedger};
use numa_coop::topology::presets::paper_model_machine;
use numa_coop::topology::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CASES: usize = 12;
const RUNTIMES: usize = 4;
const TICKS: u64 = 40;

/// A runtime stand-in: it runs what it was last commanded per node (all
/// cores' worth of threads before its first command) and keeps every
/// command it receives for the test to take after the tick.
struct Stub {
    name: String,
    nodes: usize,
    running: Mutex<Vec<usize>>,
    runaway: Arc<AtomicU64>,
}

impl RuntimeHandle for Stub {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn stats(&self) -> numa_coop::agent::Result<RuntimeStats> {
        let running = self.running.lock().expect("stub state").clone();
        Ok(RuntimeStats {
            name: self.name.clone(),
            tasks_executed: 0,
            tasks_panicked: 0,
            tasks_spawned: 0,
            tasks_ready: 0,
            tasks_pending: 0,
            running_workers: running.iter().sum(),
            blocked_workers: 0,
            external_threads: 0,
            per_node: (0..self.nodes)
                .map(|n| NodeOccupancy {
                    node: NodeId(n),
                    running_workers: running[n],
                    tasks_executed: 0,
                })
                .collect(),
            user_counters: HashMap::new(),
            uptime_us: 0,
            tasks_preempted: 0,
            tasks_runaway: self.runaway.load(Ordering::SeqCst),
            overbudget_cpu_us: 0,
        })
    }

    fn command(&self, cmd: ThreadCommand) -> numa_coop::agent::Result<()> {
        if let ThreadCommand::PerNode(row) = &cmd {
            *self.running.lock().expect("stub state") = row.clone();
        }
        Ok(())
    }
}

/// Keeps the commands the agent sent, before the fault plan decides
/// whether they arrive.
struct Recorder {
    inner: ChaosHandle,
    sent: Arc<Mutex<Vec<ThreadCommand>>>,
}

impl RuntimeHandle for Recorder {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn stats(&self) -> numa_coop::agent::Result<RuntimeStats> {
        self.inner.stats()
    }

    fn command(&self, cmd: ThreadCommand) -> numa_coop::agent::Result<()> {
        self.sent.lock().expect("recorder").push(cmd.clone());
        self.inner.command(cmd)
    }
}

#[test]
fn agent_commands_keep_the_tenancy_invariants_under_seeded_faults() {
    // Over all cases: evictions and containments, so the schedules bite.
    let (evictions, containments) = (AtomicU64::new(0), AtomicU64::new(0));
    check(1, CASES, |g| {
        let machine = paper_model_machine();
        let nodes = machine.num_nodes();
        let cores = machine.node(NodeId(0)).num_cores();
        let policy: Box<dyn Policy> = if g.bool(0.5) {
            Box::new(FairShare::new(machine.clone()))
        } else {
            let specs = (0..RUNTIMES)
                .map(|i| AppSpec::numa_local(&format!("rt{i}"), g.range(0.05..8.0)))
                .collect();
            Box::new(ModelGuided::new(machine.clone(), specs))
        };
        let hub = Arc::new(TelemetryHub::new());
        assert!(hub.install_tenant_ledger(Arc::new(TenantLedger::new())));
        let mut agent = Agent::with_telemetry(policy, Arc::clone(&hub));
        let mut supervision = SupervisionConfig::aggressive(Duration::from_secs(5));
        supervision.backoff.max_retries = 0;
        agent.set_supervision(supervision);
        agent.set_reclaim_machine(machine.clone());
        let offender = g.range(0..RUNTIMES);
        let runaway = Arc::new(AtomicU64::new(0));
        let logs: Vec<Arc<Mutex<Vec<ThreadCommand>>>> = (0..RUNTIMES)
            .map(|i| {
                // Kills: disconnect windows over this runtime's calls.
                let mut plan = FaultPlan::new();
                for _ in 0..g.range(0..3usize) {
                    let from = g.range(0..2 * TICKS);
                    plan = plan.inject(from..from + g.range(1..12u64), Fault::Disconnect);
                }
                let stub = Stub {
                    name: format!("rt{i}"),
                    nodes,
                    running: Mutex::new(vec![cores; nodes]),
                    runaway: if i == offender {
                        Arc::clone(&runaway)
                    } else {
                        Arc::default()
                    },
                };
                let sent = Arc::new(Mutex::new(Vec::new()));
                agent.manage(Box::new(Recorder {
                    inner: ChaosHandle::new(Box::new(stub), plan),
                    sent: Arc::clone(&sent),
                }));
                sent
            })
            .collect();

        for _ in 0..TICKS {
            if g.bool(0.6) {
                runaway.fetch_add(1, Ordering::SeqCst);
            }
            agent.tick().expect("a tick never fails");
            let evicted = agent.evicted();
            let sent: Vec<(usize, ThreadCommand)> = logs
                .iter()
                .enumerate()
                .flat_map(|(i, log)| {
                    std::mem::take(&mut *log.lock().expect("recorder"))
                        .into_iter()
                        .map(move |cmd| (i, cmd))
                })
                .collect();
            let cmds = sent.iter().map(|(i, cmd)| (*i, row_of(cmd)));
            agent.tenancy().check(&hub, cmds.clone());
            // Independently of the agent's own view: one command a runtime,
            // none to a runtime evicted after the tick, every node within its
            // cores.
            for (i, _) in &sent {
                assert_eq!(sent.iter().filter(|(j, _)| j == i).count(), 1);
                assert!(!evicted.contains(&format!("rt{i}")), "{sent:?}");
            }
            let everyone = [true; RUNTIMES];
            let overfull = check_commands(Some(&machine), &everyone, &[], cmds);
            assert!(overfull.is_empty(), "{overfull:?}");
        }
        let registry = hub.registry();
        assert_eq!(registry.counter_total(INVARIANT_VIOLATIONS), 0);
        evictions.fetch_add(
            registry.counter_total("coop_agent_evictions_total"),
            Ordering::Relaxed,
        );
        containments.fetch_add(
            registry.counter_total("coop_agent_containments_total"),
            Ordering::Relaxed,
        );
    });
    println!("{evictions:?} evictions, {containments:?} containments");
    assert!(evictions.into_inner() > 0 && containments.into_inner() > 0);
}

/// A `Table III` run of 20 ticks with seeded outages (reclaimed or not) and
/// one seeded wedge, re-optimizing when asked.
fn supervised_draw(g: &mut Gen, reoptimize: bool) -> (Scenario, SupervisorConfig) {
    let mut scenario = numa_coop::sim::scenario::template();
    scenario.assignments.truncate(1);
    let apps = scenario.apps.len();
    let duration_s = 0.4;
    let outages = g.vec(0..4, |g| {
        let down_at_s = g.range(0.0..duration_s);
        AppOutage {
            app: g.range(0..apps),
            down_at_s,
            up_at_s: g.bool(0.7).then(|| down_at_s + g.range(0.01..0.2)),
        }
    });
    let config = SupervisorConfig {
        decision_period_s: 0.02,
        duration_s,
        perturbations: vec![Perturbation::RunawayTask {
            at_s: g.range(0.0..duration_s),
            app: g.range(0..apps),
        }],
        reoptimize,
        chaos: Some(ChaosPlan {
            outages,
            reclaim: g.bool(0.7),
        }),
        engine: EngineKind::Event,
        ..SupervisorConfig::default()
    };
    (scenario, config)
}

#[test]
fn supervised_rows_keep_the_tenancy_invariants_under_seeded_outages_and_wedges() {
    check(2, CASES, |g| {
        let reoptimize = g.bool(0.5);
        let (scenario, config) = supervised_draw(g, reoptimize);
        let hub = Arc::new(TelemetryHub::new());
        assert!(hub.install_tenant_ledger(Arc::new(TenantLedger::new())));
        let run = run_supervised(&scenario, &config, Arc::clone(&hub)).expect("a valid run");
        assert_eq!(run.ticks.len(), 20);
        assert_eq!(hub.registry().counter_total(INVARIANT_VIOLATIONS), 0);
    });
}

/// A re-optimizing supervised run applies, on every tick, the rows a
/// standalone `ModelGuided` on the scenario's machine and apps commands
/// when shown the same live sets at the same ticks: the live apps' last
/// commanded rows, the down apps' zero rows, and the wedged app's row no
/// higher once its wedge has set in (containment only lowers a row).
#[test]
fn reoptimizing_supervised_rows_are_what_model_guided_commands() {
    check(4, CASES, |g| {
        let (scenario, config) = supervised_draw(g, true);
        let hub = Arc::new(TelemetryHub::new());
        let run = run_supervised(&scenario, &config, Arc::clone(&hub)).expect("a valid run");
        assert_eq!(hub.registry().counter_total(INVARIANT_VIOLATIONS), 0);
        let specs: Vec<AppSpec> = scenario.apps.iter().map(|a| a.spec.clone()).collect();
        let mut policy = ModelGuided::new(scenario.machine.clone(), specs.clone());
        let mut commanded = scenario.assignments[0].threads.clone();
        let Perturbation::RunawayTask {
            at_s: wedge_s,
            app: wedged,
        } = config.perturbations[0]
        else {
            unreachable!("the draw wedges one app")
        };
        let outages = &config.chaos.as_ref().expect("the draw has a plan").outages;
        for (tick, record) in run.ticks.iter().zip(run.records()) {
            let start_s = tick.start_s;
            let down = |i: usize| {
                let mut outages = outages.iter().filter(|o| o.app == i);
                outages.any(|o| start_s >= o.down_at_s && o.up_at_s.is_none_or(|up| start_s < up))
            };
            let live: Vec<usize> = (0..specs.len()).filter(|&i| !down(i)).collect();
            let stats: Vec<RuntimeStats> = (live.iter())
                .map(|&i| RuntimeStats {
                    name: specs[i].name.clone(),
                    ..RuntimeStats::default()
                })
                .collect();
            for (&i, cmd) in live.iter().zip(policy.tick(&stats, tick.tick)) {
                if let Some(row) = cmd.as_ref().and_then(row_of) {
                    commanded[i] = row.to_vec();
                }
            }
            // The rows in force, as the record the tick opened names them.
            let text = &*record.prediction.assignment;
            let matrix = text[text.find('[').expect("a matrix")..].trim_matches(['[', ']']);
            let rows: Vec<Vec<usize>> = (matrix.split("], ["))
                .map(|row| row.split(", ").map(|n| n.parse().unwrap()).collect())
                .collect();
            for (i, row) in rows.iter().enumerate() {
                let want = if down(i) {
                    vec![0; row.len()]
                } else {
                    commanded[i].clone()
                };
                if i == wedged && wedge_s <= start_s + config.decision_period_s {
                    assert!(
                        row.iter().zip(&want).all(|(r, w)| r <= w),
                        "tick {}",
                        tick.tick
                    );
                } else {
                    assert_eq!(row, &want, "tick {}, app {i}: {text}", tick.tick);
                }
            }
        }
    });
}

/// A tenant outside the live mask, a contained tenant above its cap, and a
/// node over its cores are each one violation.
#[test]
fn check_commands_names_each_broken_property() {
    let machine = paper_model_machine();
    let live = [true, true, false];
    let caps = [None, Some(vec![2, 2, 2, 2])];
    let row = |cells: [usize; 4]| ThreadCommand::PerNode(cells.to_vec());
    let ok = [(0, row([6, 5, 6, 6])), (1, row([2, 1, 2, 0]))];
    let check = |cmds: &[(usize, ThreadCommand)]| {
        check_commands(
            Some(&machine),
            &live,
            &caps,
            cmds.iter().map(|(i, cmd)| (*i, row_of(cmd))),
        )
    };
    assert!(check(&ok).is_empty());
    let to_the_down = [ok[0].clone(), ok[1].clone(), (2, row([0; 4]))];
    assert_eq!(check(&to_the_down).len(), 1);
    let above_cap = [ok[0].clone(), (1, row([2, 3, 2, 0]))];
    assert_eq!(check(&above_cap).len(), 1);
    let uncommanded = [ok[0].clone()];
    assert_eq!(check(&uncommanded).len(), 1);
    let total = [(1, ThreadCommand::TotalThreads(4)), ok[0].clone()];
    assert_eq!(check(&total).len(), 1);
    let overfull = [(0, row([7, 5, 6, 6])), ok[1].clone()];
    assert_eq!(check(&overfull).len(), 1);
}
