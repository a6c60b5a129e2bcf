//! End-to-end causal tracing: a dependent DAG with one forced cross-node
//! steal, assembled from the shared hub, must yield the full hop chain
//! `spawned -> deps_released -> enqueued -> stolen -> started -> finished`
//! with correct node attribution — plus the steal-counter reconciliation
//! invariant (`coop_steals_total` == the sum of its labelled split).

use coop_runtime::{Runtime, RuntimeConfig, TelemetryHub, ThreadCommand};
use coop_telemetry::{hop, TraceAssembler};
use numa_topology::presets::paper_model_machine;
use numa_topology::NodeId;
use std::sync::Arc;
use std::time::Duration;

/// Starts a traced runtime with every node except `open` frozen to zero
/// workers, so any task with an affinity elsewhere must be stolen
/// cross-node by one of `open`'s workers.
fn frozen_runtime(name: &str, open: usize) -> (Arc<TelemetryHub>, Runtime) {
    let hub = Arc::new(TelemetryHub::new());
    let rt = Runtime::start(
        RuntimeConfig::new(name, paper_model_machine())
            .with_telemetry(Arc::clone(&hub))
            .with_task_tracing(),
    )
    .unwrap();
    let mut per_node = vec![0usize; 4];
    per_node[open] = 8;
    rt.control()
        .apply(ThreadCommand::PerNode(per_node))
        .unwrap();
    assert!(
        rt.control()
            .wait_converged(Duration::from_secs(10), |run, _| run == 8),
        "all nodes but node {open} must freeze"
    );
    (hub, rt)
}

#[test]
fn dependent_dag_with_cross_node_steal_yields_full_causal_chain() {
    let (hub, rt) = frozen_runtime("e2e", 2);

    // Parent (runs on node 2, the only live node) spawns a child that
    // depends on `gate` and wants node 0, then satisfies the gate. The
    // child's ready-queue is node 0's injector, and only node-2 workers
    // are awake, so its pickup is necessarily a remote steal.
    let gate = rt.new_once_event();
    {
        let gate = gate.clone();
        rt.task("parent")
            .body(move |ctx| {
                ctx.task("child")
                    .depends_on(&gate)
                    .affinity(NodeId(0))
                    .body(|_| {})
                    .spawn()
                    .unwrap();
                ctx.satisfy(&gate);
            })
            .spawn()
            .unwrap();
    }
    rt.wait_quiescent().unwrap();

    let asm = TraceAssembler::from_hub(&hub);
    let children = asm.find("child");
    assert_eq!(children.len(), 1, "exactly one traced task named 'child'");
    let child = children[0];

    // The full causal chain, in order.
    let kinds: Vec<&str> = child.hops.iter().map(|h| h.kind.as_str()).collect();
    assert_eq!(
        kinds,
        [
            hop::SPAWNED,
            hop::DEPS_RELEASED,
            hop::ENQUEUED,
            hop::STOLEN,
            hop::STARTED,
            hop::FINISHED
        ],
        "child must traverse every hop exactly once"
    );
    assert!(!child.truncated);
    assert!(child.completed());

    // Node attribution: enqueued for node 0, stolen 0 -> 2, ran on node 2.
    assert_eq!(child.hop(hop::ENQUEUED).unwrap().node, Some(0));
    let stolen = child.hop(hop::STOLEN).unwrap();
    assert_eq!(stolen.from_node, Some(0));
    assert_eq!(stolen.node, Some(2));
    assert_eq!(stolen.tier.as_deref(), Some("normal"));
    assert_eq!(child.hop(hop::STARTED).unwrap().node, Some(2));
    assert_eq!(child.hop(hop::FINISHED).unwrap().node, Some(2));
    assert_eq!(child.cross_node(), Some((0, 2)), "one NUMA crossing");

    // The release is attributed to the gate dependency, and causality
    // links back to the parent.
    assert!(child.hop(hop::DEPS_RELEASED).unwrap().event.is_some());
    let parents = asm.find("parent");
    assert_eq!(parents.len(), 1);
    let parent = parents[0];
    assert_eq!(child.parent, Some(parent.task));
    assert_eq!(
        child.trace_id, parent.trace_id,
        "child joins the parent's causal tree"
    );
    let path = asm.critical_path(child);
    assert_eq!(path.len(), 2, "critical path walks child -> parent");
    assert_eq!(path[0].task, parent.task);
    assert_eq!(path[1].task, child.task);

    // The human-readable view carries the cross-node attribution.
    let text = child.to_text();
    assert!(text.contains("stolen"), "text view lists hops: {text}");
    assert!(
        text.contains("node0->node2"),
        "text view shows the crossing: {text}"
    );

    // Perfetto export round-trips as JSON and contains the hop spans.
    let json = asm.to_perfetto_json();
    let v = coop_telemetry::json::parse(&json).unwrap();
    assert!(!v["traceEvents"].as_array().unwrap().is_empty());

    rt.shutdown();
}

#[test]
fn steal_counter_aggregate_reconciles_with_labelled_split() {
    let (hub, rt) = frozen_runtime("inv", 1);

    // A mix of tiers and affinities: everything must be stolen by node 1.
    for i in 0..64 {
        let b = rt
            .task(&format!("pinned{i}"))
            .affinity(NodeId((i % 2) * 2)) // nodes 0 and 2, both frozen
            .body(|_| {});
        let b = if i % 3 == 0 { b.high_priority() } else { b };
        b.spawn().unwrap();
    }
    rt.wait_quiescent().unwrap();

    let reg = hub.registry();
    let total = reg.counter_total("coop_steals_total");
    let split: u64 = ["high", "normal"]
        .iter()
        .flat_map(|tier| {
            ["sibling", "remote"].iter().map(move |source| {
                reg.counter(
                    "coop_sched_steals_total",
                    &[("runtime", "inv"), ("tier", tier), ("source", source)],
                )
                .get()
            })
        })
        .sum();
    assert!(total > 0, "frozen affinities force steals");
    assert_eq!(
        total, split,
        "aggregate steal counter must equal the tier x source split"
    );

    // Every traced `stolen` hop is likewise accounted for: the trace and
    // the counters describe the same steals.
    let asm = TraceAssembler::from_hub(&hub);
    let traced_steals = asm.tasks().filter(|t| t.hop(hop::STOLEN).is_some()).count() as u64;
    assert!(
        traced_steals <= total,
        "hub ring may drop old hops but never invents steals \
         (traced {traced_steals} > counted {total})"
    );
    rt.shutdown();
}

#[test]
fn park_latency_quantiles_flow_through_the_shared_histogram_path() {
    let hub = Arc::new(TelemetryHub::new());
    let rt = Runtime::start(
        RuntimeConfig::new("park", paper_model_machine()).with_telemetry(Arc::clone(&hub)),
    )
    .unwrap();
    let hist = hub
        .registry()
        .histogram("coop_sched_park_latency_us", &[("runtime", "park")]);

    // Workers park when idle; waking one (new work, or the 100ms backstop)
    // records one latency sample. Burst-and-pause until a sample lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while hist.count() == 0 && std::time::Instant::now() < deadline {
        for i in 0..8 {
            rt.task(&format!("burst{i}")).body(|_| {}).spawn().unwrap();
        }
        rt.wait_quiescent().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        hist.count() > 0,
        "a parked worker must record unpark latency"
    );

    // The shared histogram quantile path exports p50/p90/p99 rows for the
    // park-latency series, with proper label escaping conventions (the
    // derived gauges get their own # TYPE family).
    let text = hub.registry().to_prometheus();
    assert!(
        text.contains("# TYPE coop_sched_park_latency_us_quantile gauge"),
        "derived quantile family must be typed:\n{text}"
    );
    for q in ["0.5", "0.9", "0.99"] {
        let needle = format!("quantile=\"{q}\"");
        assert!(
            text.lines()
                .any(|l| l.starts_with("coop_sched_park_latency_us_quantile{")
                    && l.contains("runtime=\"park\"")
                    && l.contains(&needle)),
            "p{q} park-latency quantile series must be exported:\n{text}"
        );
    }
    // And the underlying histogram family is there too.
    assert!(text.contains("coop_sched_park_latency_us_bucket{"));
    assert!(text.contains("coop_sched_park_latency_us_count{"));
    rt.shutdown();
}

#[test]
fn tracing_off_runs_emit_no_trace_hops() {
    let hub = Arc::new(TelemetryHub::new());
    let rt = Runtime::start(
        RuntimeConfig::new("off", paper_model_machine()).with_telemetry(Arc::clone(&hub)),
    )
    .unwrap();
    for i in 0..8 {
        rt.task(&format!("t{i}")).body(|_| {}).spawn().unwrap();
    }
    rt.wait_quiescent().unwrap();
    assert!(
        hub.events().iter().all(|e| e.cat != "trace"),
        "tracing off must record no trace-category events"
    );
    assert!(TraceAssembler::from_hub(&hub).is_empty());
    rt.shutdown();
}
