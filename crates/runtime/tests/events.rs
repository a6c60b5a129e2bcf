//! Who an event belongs to, and what it owns.
//!
//! Event ids are per runtime, so an event is known only to the runtime
//! that created it: another runtime refuses to wait on it or satisfy it,
//! instead of wiring the call to its own event of the same id. A task
//! waiting on an event lives in that event, so an event dropped while
//! unsatisfied drops its waiting tasks, and a chain of unstarted tasks,
//! each waiting on the last one's finish event, unlinks without recursion.

use coop_runtime::{Runtime, RuntimeConfig, RuntimeError};
use numa_topology::presets::tiny;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn runtime(name: &str) -> Runtime {
    Runtime::start(RuntimeConfig::new(name, tiny())).unwrap()
}

#[test]
fn another_runtimes_event_is_unknown_to_spawn_and_satisfy() {
    let (a, b) = (runtime("a"), runtime("b"));
    let a_event = a.new_once_event();
    let b_event = b.new_once_event();
    // Both are their runtime's event 0.
    assert_eq!(a_event.id(), b_event.id());
    let unknown = Err(RuntimeError::UnknownEvent {
        event: a_event.id().raw(),
    });

    let ran = Arc::new(AtomicU64::new(0));
    let counted = |ran: &Arc<AtomicU64>| {
        let ran = Arc::clone(ran);
        move |_: &coop_runtime::TaskContext<'_>| {
            ran.fetch_add(1, Ordering::SeqCst);
        }
    };
    // `b` refuses a dependency on `a`'s event and counts no task for it.
    let spawned = b.task("foreign").depends_on(&a_event).body(counted(&ran));
    assert_eq!(spawned.spawn().map(|_| ()), unknown);
    assert_eq!(
        b.task("mixed")
            .depends_on(&b_event)
            .depends_on(&a_event)
            .body(counted(&ran))
            .spawn()
            .map(|_| ()),
        unknown
    );
    assert_eq!(b.stats().tasks_spawned, 0);

    // Each runtime's own event 0 releases its own task, and only that.
    a.task("a-waiter")
        .depends_on(&a_event)
        .body(counted(&ran))
        .spawn()
        .unwrap();
    b.task("b-waiter")
        .depends_on(&b_event)
        .body(counted(&ran))
        .spawn()
        .unwrap();
    b.satisfy(&b_event).unwrap();
    b.wait_quiescent().unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 1);
    assert_eq!(a.stats().tasks_pending, 1);

    // `b` refuses to satisfy `a`'s event, from its API and from a task.
    assert_eq!(b.satisfy(&a_event), unknown);
    let tried = Arc::new(std::sync::Mutex::new(None));
    b.task("try")
        .body({
            let (a_event, tried) = (a_event.clone(), Arc::clone(&tried));
            move |ctx| *tried.lock().unwrap() = Some(ctx.try_satisfy(&a_event))
        })
        .spawn()
        .unwrap();
    b.wait_quiescent().unwrap();
    assert_eq!(tried.lock().unwrap().take(), Some(unknown));
    b.task("panics")
        .body({
            let a_event = a_event.clone();
            move |ctx| ctx.satisfy(&a_event)
        })
        .spawn()
        .unwrap();
    match b.wait_quiescent() {
        Err(RuntimeError::TaskPanicked { message, .. }) => {
            assert!(message.contains("unknown event 0"), "{message}")
        }
        other => panic!("a foreign satisfy must panic the task: {other:?}"),
    }
    assert_eq!(a.stats().tasks_pending, 1);
    a.satisfy(&a_event).unwrap();
    a.wait_quiescent().unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 2);
}

/// Sets its flag when dropped.
struct DropFlag(Arc<AtomicBool>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn a_waiting_body_drops_with_the_last_handle_to_its_event() {
    let rt = runtime("owner");
    // One unsatisfied dependency: the task waits in that event as it is.
    let (once, dropped) = (rt.new_once_event(), Arc::new(AtomicBool::new(false)));
    let flag = DropFlag(Arc::clone(&dropped));
    rt.task("one")
        .depends_on(&once)
        .body(move |_| drop(flag))
        .spawn()
        .unwrap();
    let handle = once.clone();
    drop(once);
    assert!(!dropped.load(Ordering::SeqCst), "a handle is left");
    drop(handle);
    assert!(dropped.load(Ordering::SeqCst));

    // Two: both events hold the task until the last of them goes.
    let (first, second) = (rt.new_once_event(), rt.new_latch_event(2));
    let dropped = Arc::new(AtomicBool::new(false));
    let flag = DropFlag(Arc::clone(&dropped));
    rt.task("two")
        .depends_on_all([&first, &second])
        .body(move |_| drop(flag))
        .spawn()
        .unwrap();
    drop(first);
    assert!(!dropped.load(Ordering::SeqCst), "the latch still holds it");
    drop(second);
    assert!(dropped.load(Ordering::SeqCst));
    assert_eq!(rt.stats().tasks_pending, 2, "dropped, never run");
}

#[test]
fn an_unstarted_200k_task_finish_chain_drops_without_overflow() {
    let rt = runtime("chain");
    let gate = rt.new_once_event();
    let mut last = gate.clone();
    for _ in 0..200_000 {
        let (_, finish) = rt
            .task("link")
            .depends_on(&last)
            .body(|_| {})
            .spawn_with_finish()
            .unwrap();
        last = finish;
    }
    // The gate owns the first task, which owns its finish event, which
    // owns the next task, and so on: dropping the gate unlinks the chain.
    drop(gate);
    assert!(!last.is_satisfied());
    assert_eq!(rt.stats().tasks_pending, 200_000);
}
