//! Churn stress for the work-stealing scheduler.
//!
//! One test, deliberately hostile: 8 workers on a 2-node machine chew
//! through 100k tiny tasks with randomized dependencies on recent finish
//! events (exercising both the satisfied-deps fast path and the events'
//! waiter lists), randomized affinity hints and priorities (exercising
//! node injectors and the high-tier gate), occasional panics (containment
//! under load), occasional child spawns from task bodies (the TLS
//! local-deque fast path), and a thread-control squeeze to 2 workers and
//! back mid-run (parking and the gate interacting).
//!
//! The assertions are conservation laws: every spawned task must be
//! accounted for as executed or panicked — no lost tasks, no lost
//! wakeups (a lost wakeup with an empty runtime deadlocks quiescence and
//! trips the 60 s timeout), and the exact panic count must surface.
//!
//! A second test replays the squeeze with fuel budgets armed and a
//! deliberate runaway spinner wedged in the middle: preemptions must not
//! leak tasks, the watchdog must flag the spinner, and the runtime must
//! still drain to quiescence once the spinner relents.

use coop_runtime::{Runtime, RuntimeConfig, RuntimeError, TaskStep, ThreadCommand};
use numa_topology::{MachineBuilder, NodeId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TASKS: u64 = 100_000;
const PANIC_EVERY: u64 = 1_000;
const CHILD_EVERY: u64 = 50;
const DEP_RING: usize = 64;

/// Deterministic LCG (Knuth's MMIX constants) so failures reproduce.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

#[test]
fn churn_with_control_squeeze_loses_nothing() {
    let machine = MachineBuilder::new()
        .symmetric_nodes(2, 4)
        .core_peak_gflops(1.0)
        .node_bandwidth_gbs(10.0)
        .uniform_link_gbs(5.0)
        .build()
        .unwrap();
    // Strict parking: any wakeup the backstop would paper over becomes a
    // debug assertion instead of a silently-absorbed stall.
    coop_runtime::set_strict_parking(true);
    let rt = Runtime::start(RuntimeConfig::new("sched-stress", machine)).unwrap();
    let control = rt.control();

    let executed = Arc::new(AtomicU64::new(0));
    let child_spawned = Arc::new(AtomicU64::new(0));
    let mut rng = Lcg(0x5eed_5eed_5eed_5eed);
    // Ring of recent finish events to draw dependencies from. Entries may
    // already be satisfied when drawn — both outcomes are interesting.
    let mut recent = Vec::with_capacity(DEP_RING);

    for i in 0..TASKS {
        // Squeeze to 2 workers a third of the way in, release at two
        // thirds: tasks keep flowing while 6 workers sit gate-blocked,
        // then the backlog drains on the full complement.
        if i == TASKS / 3 {
            control.apply(ThreadCommand::TotalThreads(2)).unwrap();
        } else if i == 2 * TASKS / 3 {
            control.apply(ThreadCommand::Unrestricted).unwrap();
        }

        let r = rng.next();
        let panics = i % PANIC_EVERY == PANIC_EVERY - 1;
        let spawns_child = !panics && i % CHILD_EVERY == CHILD_EVERY - 1;
        let executed = executed.clone();
        let child_spawned = child_spawned.clone();
        let mut b = rt.task(&format!("churn-{i}")).body(move |ctx| {
            if panics {
                panic!("churn-{i} scripted panic");
            }
            executed.fetch_add(1, Ordering::Relaxed);
            if spawns_child {
                let executed = executed.clone();
                child_spawned.fetch_add(1, Ordering::Relaxed);
                ctx.task(&format!("child-{i}"))
                    .body(move |_| {
                        executed.fetch_add(1, Ordering::Relaxed);
                    })
                    .spawn()
                    .unwrap();
            }
        });
        if r.is_multiple_of(3) {
            b = b.affinity(NodeId((r as usize >> 3) % 2));
        }
        if r.is_multiple_of(7) {
            b = b.high_priority();
        }
        // Up to two dependencies on recent finish events.
        for pick in 0..(r % 3) {
            if !recent.is_empty() {
                let idx = ((r >> (8 + 8 * pick)) as usize) % recent.len();
                b = b.depends_on(&recent[idx]);
            }
        }
        let (_, finish) = b.spawn_with_finish().unwrap();
        if recent.len() < DEP_RING {
            recent.push(finish);
        } else {
            recent[(i as usize) % DEP_RING] = finish;
        }
    }

    // Everything must drain well inside the timeout; the scripted panics
    // must surface as the quiescence error.
    let res = rt.wait_quiescent_timeout(Duration::from_secs(60));
    match res {
        Err(RuntimeError::TaskPanicked { ref message, .. }) => {
            assert!(message.contains("scripted panic"), "unexpected: {message}");
        }
        other => panic!("expected a contained scripted panic, got {other:?}"),
    }

    let expected_panics = TASKS / PANIC_EVERY;
    let children = child_spawned.load(Ordering::Relaxed);
    let stats = rt.stats();
    assert_eq!(stats.tasks_spawned, TASKS + children);
    assert_eq!(stats.tasks_panicked, expected_panics);
    assert_eq!(stats.tasks_executed, TASKS + children - expected_panics);
    assert_eq!(stats.tasks_pending, 0, "lost tasks: {stats:?}");
    assert_eq!(
        executed.load(Ordering::Relaxed),
        stats.tasks_executed,
        "stats flush missed completions"
    );
    // The squeeze released: all 8 workers report back in.
    assert!(control.wait_converged(Duration::from_secs(5), |run, _| run == 8));
    rt.shutdown();
}

#[test]
fn budgeted_runaway_squeeze_recovers_and_conserves() {
    const STEP_TASKS: u64 = 2_000;
    const STEPS_PER_TASK: u32 = 40;

    let machine = MachineBuilder::new()
        .symmetric_nodes(2, 4)
        .core_peak_gflops(1.0)
        .node_bandwidth_gbs(10.0)
        .uniform_link_gbs(5.0)
        .build()
        .unwrap();
    coop_runtime::set_strict_parking(true);
    // Tight 8-unit budget: every step task (40 yields) is preempted into
    // the over-budget queue several times on its way to completion. The
    // 20 ms watchdog flags the deliberate spinner well inside the run.
    let rt = Runtime::start(
        RuntimeConfig::new("budget-stress", machine)
            .with_task_fuel(8)
            .with_watchdog(Duration::from_millis(20)),
    )
    .unwrap();
    let control = rt.control();

    let executed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // The runaway: wedges one worker until told to relent.
    {
        let stop = stop.clone();
        rt.task("spinner")
            .body(move |_| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
            .spawn()
            .unwrap();
    }

    for i in 0..STEP_TASKS {
        // Mid-run squeeze while budgets churn tasks through the
        // over-budget queue and one worker sits wedged.
        if i == STEP_TASKS / 3 {
            control.apply(ThreadCommand::TotalThreads(2)).unwrap();
        } else if i == 2 * STEP_TASKS / 3 {
            control.apply(ThreadCommand::Unrestricted).unwrap();
        }
        let executed = executed.clone();
        let mut steps = 0u32;
        rt.task(&format!("step-{i}"))
            .body_step(move |_| {
                steps += 1;
                if steps >= STEPS_PER_TASK {
                    executed.fetch_add(1, Ordering::Relaxed);
                    TaskStep::Done
                } else {
                    TaskStep::Yield
                }
            })
            .spawn()
            .unwrap();
    }

    // The watchdog must flag the spinner while the churn is live.
    for _ in 0..500 {
        if rt.stats().tasks_runaway > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        rt.stats().tasks_runaway >= 1,
        "watchdog never flagged the spinner"
    );

    // Let the spinner return, then everything must drain: preemption
    // parks and requeues but never loses a task.
    stop.store(true, Ordering::Release);
    rt.wait_quiescent_timeout(Duration::from_secs(60)).unwrap();

    let stats = rt.stats();
    assert_eq!(stats.tasks_spawned, STEP_TASKS + 1);
    assert_eq!(stats.tasks_executed, STEP_TASKS + 1);
    assert_eq!(stats.tasks_pending, 0, "lost tasks: {stats:?}");
    assert_eq!(executed.load(Ordering::Relaxed), STEP_TASKS);
    assert!(
        stats.tasks_preempted > 0,
        "8-unit budgets must preempt 40-step tasks: {stats:?}"
    );
    assert!(
        stats.overbudget_cpu_us > 0,
        "a returned runaway books its past-deadline CPU: {stats:?}"
    );
    // Recovery: the squeeze released and the wedged worker was
    // re-admitted once its task returned — the full complement is back.
    assert!(control.wait_converged(Duration::from_secs(5), |run, _| run == 8));
    rt.shutdown();
}
