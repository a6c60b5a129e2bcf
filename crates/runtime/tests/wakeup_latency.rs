//! Regression tests for the event-counted parking protocol.
//!
//! The old scheduler put idle workers to sleep in a 1 ms condvar poll, so
//! a task enqueued while every worker slept waited up to a millisecond
//! before anyone noticed it. The work-stealing scheduler parks idle
//! workers and has `enqueue_ready` unpark one directly, so wakeup latency
//! is OS-scheduler latency (tens of microseconds), not a poll interval.
//!
//! These tests fail if that regresses: the parking backstop is 100 ms, so
//! a lost wakeup — a worker parked without observing a task that was
//! published before it registered as idle — shows up as a ~100 ms outlier,
//! and a return to 1 ms polling shifts the median to ~500 µs. The bounds
//! below (median well under 1 ms, mean under 10 ms) discriminate both
//! failure modes while tolerating CI scheduling jitter.

use coop_runtime::{Runtime, RuntimeConfig};
use coop_telemetry::sync::Mutex;
use numa_topology::presets::tiny;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUNDS: usize = 200;

fn median_and_mean(mut samples: Vec<Duration>) -> (Duration, Duration) {
    assert!(!samples.is_empty());
    samples.sort();
    let median = samples[samples.len() / 2];
    let total: Duration = samples.iter().sum();
    (median, total / samples.len() as u32)
}

fn assert_prompt(what: &str, samples: Vec<Duration>) {
    let (median, mean) = median_and_mean(samples);
    assert!(
        median < Duration::from_millis(1),
        "{what}: median wakeup latency {median:?} — parked workers are \
         not being unparked promptly (1 ms poll or worse)"
    );
    assert!(
        mean < Duration::from_millis(10),
        "{what}: mean wakeup latency {mean:?} — some enqueues only ran \
         when the 100 ms park backstop fired (lost wakeup?)"
    );
}

/// Main thread enqueues into a fully idle (parked) runtime; the task body
/// records how long it took to start running.
#[test]
fn wakeup_from_main_is_prompt() {
    let rt = Runtime::start(RuntimeConfig::new("wakeup-main", tiny())).unwrap();
    let samples = Arc::new(Mutex::new(Vec::with_capacity(ROUNDS)));
    for round in 0..ROUNDS {
        // The previous round is quiescent, so every worker has re-checked
        // the queues, found nothing, and parked (or is about to; the
        // protocol covers both: a worker between its idle re-check and
        // `park` holds no claim on the task, and the unpark token set by
        // `enqueue_ready` makes its park return immediately).
        let t0 = Instant::now();
        let samples = samples.clone();
        rt.task(&format!("wake-{round}"))
            .body(move |_| samples.lock().push(t0.elapsed()))
            .spawn()
            .unwrap();
        rt.wait_quiescent().unwrap();
    }
    let samples = Arc::try_unwrap(samples).unwrap().into_inner();
    assert_eq!(samples.len(), ROUNDS);
    assert_prompt("enqueue from main", samples);
}

/// A running task body satisfies the event a pending task waits on, while
/// every *other* worker is parked. The release path runs inside a worker
/// (`satisfy_event` → `enqueue_ready` → targeted unpark), which is the
/// common case in real graphs.
#[test]
fn wakeup_from_task_body_is_prompt() {
    let rt = Runtime::start(RuntimeConfig::new("wakeup-body", tiny())).unwrap();
    let samples = Arc::new(Mutex::new(Vec::with_capacity(ROUNDS)));
    for round in 0..ROUNDS {
        let ev = rt.new_once_event();
        let started = Arc::new(Mutex::new(None::<Instant>));
        // Consumer: pending until `ev` satisfies; records its start delay.
        {
            let started = started.clone();
            let samples = samples.clone();
            rt.task(&format!("consumer-{round}"))
                .depends_on(&ev)
                .body(move |_| {
                    let t0 = started.lock().expect("producer stamped t0");
                    samples.lock().push(t0.elapsed());
                })
                .spawn()
                .unwrap();
        }
        // Producer: naps long enough for its siblings to park, then
        // releases the consumer. The nap keeps this round honest — with
        // other workers still spinning down from the previous round the
        // consumer could be grabbed without any unpark happening.
        {
            let ev = ev.clone();
            rt.task(&format!("producer-{round}"))
                .body(move |ctx| {
                    std::thread::sleep(Duration::from_micros(500));
                    *started.lock() = Some(Instant::now());
                    ctx.satisfy(&ev);
                })
                .spawn()
                .unwrap();
        }
        rt.wait_quiescent().unwrap();
    }
    let samples = Arc::try_unwrap(samples).unwrap().into_inner();
    assert_eq!(samples.len(), ROUNDS);
    assert_prompt("enqueue from task body", samples);
}
