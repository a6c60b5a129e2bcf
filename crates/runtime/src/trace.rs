//! Execution tracing: record task events, export Chrome trace JSON.
//!
//! Understanding whether an allocation decision helped requires seeing
//! *where tasks actually ran* — which worker, which NUMA node, when, and
//! how task placement reacted to thread-control commands. The tracer
//! records one event per executed task (plus control-command markers) into
//! a bounded in-memory buffer, and exports the Chrome/Perfetto trace-event
//! format (`chrome://tracing`, <https://ui.perfetto.dev>), where workers
//! appear as threads grouped per NUMA node.
//!
//! Tracing is off by default and costs one branch per task when off.
//!
//! ```
//! use coop_runtime::{Runtime, RuntimeConfig};
//! use numa_topology::presets::tiny;
//!
//! let rt = Runtime::start(RuntimeConfig::new("traced", tiny())).unwrap();
//! rt.trace_start(1024);
//! rt.task("hello").body(|_| {}).spawn().unwrap();
//! rt.wait_quiescent().unwrap();
//! let trace = rt.trace_stop();
//! assert_eq!(trace.task_events().count(), 1);
//! let json = trace.to_chrome_json();
//! assert!(json.contains("\"hello\""));
//! rt.shutdown();
//! ```

use coop_telemetry::json::Value;
use coop_telemetry::json_object;
use coop_telemetry::sync::Mutex;
use numa_topology::NodeId;
use std::collections::VecDeque;
use std::time::Instant;

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A task body ran.
    Task {
        /// Task name.
        name: String,
        /// Worker index that executed it (`None` = helping external thread).
        worker: Option<usize>,
        /// NUMA node it ran on.
        node: NodeId,
        /// Start offset from trace start, microseconds.
        start_us: u64,
        /// Duration, microseconds.
        duration_us: u64,
        /// Whether the body panicked (contained).
        panicked: bool,
    },
    /// A thread-control command was applied.
    Control {
        /// Debug rendering of the command.
        command: String,
        /// Offset from trace start, microseconds.
        at_us: u64,
    },
}

/// A finished trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in record order (bounded; oldest events are dropped first).
    pub events: Vec<TraceEvent>,
    /// Number of events dropped because the buffer was full.
    pub dropped: u64,
}

impl Trace {
    /// Iterates over task events only.
    pub fn task_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Task { .. }))
    }

    /// Tasks executed per NUMA node.
    pub fn tasks_per_node(&self, num_nodes: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_nodes];
        for e in &self.events {
            if let TraceEvent::Task { node, .. } = e {
                if node.0 < num_nodes {
                    counts[node.0] += 1;
                }
            }
        }
        counts
    }

    /// Exports the Chrome trace-event JSON object format (`traceEvents`
    /// plus a `metadata` block recording how many events were dropped).
    /// Workers appear as `tid`s; NUMA nodes as `pid`s, so the viewer
    /// groups lanes by node.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::Task {
                    name,
                    worker,
                    node,
                    start_us,
                    duration_us,
                    panicked,
                } => {
                    let mut event = json_object! {
                        "name": name,
                        "cat": "task",
                        "ph": "X", // complete event
                        "ts": start_us,
                        "dur": (*duration_us).max(1),
                        "pid": node.0,
                        "tid": worker.map_or(0, |w| w + 1), // 0 = helper
                    };
                    if *panicked {
                        event.insert("args", json_object! {"panicked": true});
                    }
                    event
                }
                TraceEvent::Control { command, at_us } => json_object! {
                    "name": command,
                    "cat": "control",
                    "ph": "i", // instant event
                    "ts": at_us,
                    "pid": 0usize,
                    "tid": 0usize,
                },
            })
            .collect();
        json_object! {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": json_object! {"dropped": self.dropped, "events": self.events.len()},
        }
        .write()
    }
}

/// Internal recorder attached to a runtime.
pub(crate) struct Tracer {
    inner: Mutex<Option<Recording>>,
}

struct Recording {
    started: Instant,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Recording {
    /// Ring-buffer push: when full, the **oldest** event is evicted so the
    /// newest data always survives (matching the `Trace::events` doc).
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            inner: Mutex::new(None),
        }
    }

    pub fn start(&self, capacity: usize) {
        *self.inner.lock() = Some(Recording {
            started: Instant::now(),
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        });
    }

    pub fn stop(&self) -> Trace {
        match self.inner.lock().take() {
            Some(rec) => Trace {
                events: rec.events.into(),
                dropped: rec.dropped,
            },
            None => Trace::default(),
        }
    }

    pub fn is_active(&self) -> bool {
        self.inner.lock().is_some()
    }

    pub fn record_task(
        &self,
        name: &str,
        worker: Option<usize>,
        node: NodeId,
        started_at: Instant,
        panicked: bool,
    ) {
        let mut guard = self.inner.lock();
        let Some(rec) = guard.as_mut() else { return };
        let start_us = started_at
            .saturating_duration_since(rec.started)
            .as_micros() as u64;
        let duration_us = started_at.elapsed().as_micros() as u64;
        rec.push(TraceEvent::Task {
            name: name.to_string(),
            worker,
            node,
            start_us,
            duration_us,
            panicked,
        });
    }

    pub fn record_control(&self, command: String) {
        let mut guard = self.inner.lock();
        let Some(rec) = guard.as_mut() else { return };
        let at_us = rec.started.elapsed().as_micros() as u64;
        rec.push(TraceEvent::Control { command, at_us });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Runtime, RuntimeConfig, ThreadCommand};
    use numa_topology::presets::tiny;

    #[test]
    fn records_tasks_and_controls() {
        let rt = Runtime::start(RuntimeConfig::new("tr", tiny())).unwrap();
        rt.trace_start(100);
        for i in 0..5 {
            rt.task(&format!("t{i}")).body(|_| {}).spawn().unwrap();
        }
        rt.wait_quiescent().unwrap();
        rt.control().apply(ThreadCommand::TotalThreads(2)).unwrap();
        let trace = rt.trace_stop();
        assert_eq!(trace.task_events().count(), 5);
        assert!(trace.events.iter().any(
            |e| matches!(e, TraceEvent::Control { command, .. } if command.contains("TotalThreads"))
        ));
        assert_eq!(trace.dropped, 0);
        let per_node: usize = trace.tasks_per_node(2).iter().sum();
        assert_eq!(per_node, 5);
        rt.shutdown();
    }

    #[test]
    fn buffer_bound_drops_excess() {
        let rt = Runtime::start(RuntimeConfig::new("bound", tiny())).unwrap();
        rt.trace_start(3);
        for i in 0..10 {
            rt.task(&format!("t{i}")).body(|_| {}).spawn().unwrap();
        }
        rt.wait_quiescent().unwrap();
        let trace = rt.trace_stop();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.dropped, 7);
        rt.shutdown();
    }

    #[test]
    fn overflow_keeps_newest_drops_oldest() {
        // Regression: the doc promises "oldest events are dropped first",
        // but the buffer used to discard the *newest* once full. Record a
        // known sequence directly through the Tracer so ordering is exact.
        let tracer = Tracer::new();
        tracer.start(3);
        let t0 = Instant::now();
        for i in 0..10 {
            tracer.record_task(&format!("e{i}"), Some(0), NodeId(0), t0, false);
        }
        let trace = tracer.stop();
        let names: Vec<&str> = trace
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::Task { name, .. } => name.as_str(),
                TraceEvent::Control { command, .. } => command.as_str(),
            })
            .collect();
        assert_eq!(names, ["e7", "e8", "e9"], "newest events must survive");
        assert_eq!(trace.dropped, 7);
    }

    #[test]
    fn control_events_share_the_ring() {
        let tracer = Tracer::new();
        tracer.start(2);
        let t0 = Instant::now();
        tracer.record_task("old", Some(0), NodeId(0), t0, false);
        tracer.record_control("mid".to_string());
        tracer.record_control("new".to_string());
        let trace = tracer.stop();
        assert_eq!(trace.dropped, 1);
        assert!(
            matches!(&trace.events[0], TraceEvent::Control { command, .. } if command == "mid")
        );
        assert!(
            matches!(&trace.events[1], TraceEvent::Control { command, .. } if command == "new")
        );
    }

    #[test]
    fn chrome_json_surfaces_drops_in_metadata() {
        let tracer = Tracer::new();
        tracer.start(2);
        let t0 = Instant::now();
        for i in 0..5 {
            tracer.record_task(&format!("e{i}"), Some(0), NodeId(0), t0, false);
        }
        let trace = tracer.stop();
        let v = coop_telemetry::json::parse(&trace.to_chrome_json()).unwrap();
        assert_eq!(v["metadata"]["dropped"], 3);
        assert_eq!(v["metadata"]["events"], 2);
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn chrome_json_is_valid_and_complete() {
        let rt = Runtime::start(RuntimeConfig::new("json", tiny())).unwrap();
        rt.trace_start(100);
        rt.task("alpha").body(|_| {}).spawn().unwrap();
        rt.task("beta").body(|_| panic!("boom")).spawn().unwrap();
        let _ = rt.wait_quiescent_timeout(std::time::Duration::from_secs(10));
        let trace = rt.trace_stop();
        let json = trace.to_chrome_json();
        let v = coop_telemetry::json::parse(&json).unwrap();
        let arr = v["traceEvents"].as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(v["metadata"]["dropped"], 0);
        let panicking = arr
            .iter()
            .find(|e| e["name"] == "beta")
            .expect("beta traced");
        assert_eq!(panicking["args"]["panicked"], true);
        assert_eq!(panicking["ph"], "X");
        rt.shutdown();
    }

    #[test]
    fn tracing_off_records_nothing() {
        let rt = Runtime::start(RuntimeConfig::new("off", tiny())).unwrap();
        rt.task("t").body(|_| {}).spawn().unwrap();
        rt.wait_quiescent().unwrap();
        let trace = rt.trace_stop(); // never started
        assert!(trace.events.is_empty());
        rt.shutdown();
    }

    #[test]
    fn restarting_clears_previous_events() {
        let rt = Runtime::start(RuntimeConfig::new("restart", tiny())).unwrap();
        rt.trace_start(100);
        rt.task("one").body(|_| {}).spawn().unwrap();
        rt.wait_quiescent().unwrap();
        rt.trace_start(100); // restart
        rt.task("two").body(|_| {}).spawn().unwrap();
        rt.wait_quiescent().unwrap();
        let trace = rt.trace_stop();
        assert_eq!(trace.task_events().count(), 1);
        assert!(matches!(
            &trace.events[0],
            TraceEvent::Task { name, .. } if name == "two"
        ));
        rt.shutdown();
    }
}
