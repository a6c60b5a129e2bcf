//! End-to-end observability: the paper's Figure-1 producer-consumer
//! pipeline runs with two telemetry-attached runtimes and an agent, then a
//! memsim reallocation run joins the same hub — and the merged Perfetto
//! trace must carry all three sources on one clock, with the Prometheus
//! exposition carrying the task-latency histogram.

use numa_coop::agent::{policies, Agent};
use numa_coop::prelude::*;
use numa_coop::sim;
use numa_coop::topology::presets::tiny;
use numa_coop::workloads::pipeline::{run_pipeline, PipelineConfig};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn figure1_pipeline_exports_one_merged_timeline() {
    let machine = tiny();
    let hub = Arc::new(TelemetryHub::new());

    // Two runtimes on one hub, per Figure 1.
    let producer = Arc::new(
        Runtime::start(
            RuntimeConfig::new("producer", machine.clone()).with_telemetry(Arc::clone(&hub)),
        )
        .unwrap(),
    );
    let consumer = Arc::new(
        Runtime::start(
            RuntimeConfig::new("consumer", machine.clone()).with_telemetry(Arc::clone(&hub)),
        )
        .unwrap(),
    );

    // FairShare decides on tick 0, so agent-decision instants are
    // guaranteed on the timeline.
    let mut agent = Agent::with_telemetry(
        Box::new(policies::FairShare::new(machine.clone())),
        Arc::clone(&hub),
    );
    agent.manage(Box::new(Arc::clone(&producer)));
    agent.manage(Box::new(Arc::clone(&consumer)));
    let agent_thread = agent.spawn(Duration::from_millis(1)).unwrap();

    let config = PipelineConfig {
        iterations: 6,
        tasks_per_iteration: 4,
        work_per_task: 2_000,
        item_bytes: 1 << 10,
        consumer_work_factor: 1.0,
        sample_interval: Duration::from_micros(200),
    };
    let report = run_pipeline(&producer, &consumer, &config);
    let log = agent_thread.stop();
    producer.shutdown();
    consumer.shutdown();
    assert_eq!(report.consumed, 6);
    assert!(
        !log.decisions.is_empty(),
        "fair share must decide on tick 0"
    );

    // The memory simulator joins the same hub: a dynamic reallocation run
    // emitting per-node bandwidth counter tracks.
    let simulation = sim::Simulation::new(
        sim::SimConfig::new(machine.clone()).with_effects(sim::EffectModel::ideal()),
    )
    .with_telemetry(Arc::clone(&hub));
    let apps = vec![
        sim::SimApp::numa_local("a", 1.0),
        sim::SimApp::numa_local("b", 1.0),
    ];
    let all_a = ThreadAssignment::from_matrix(vec![vec![2, 2], vec![0, 0]]);
    let all_b = ThreadAssignment::from_matrix(vec![vec![0, 0], vec![2, 2]]);
    simulation
        .run_dynamic(&apps, &[(0.0, all_a), (0.05, all_b)], 0.1)
        .unwrap();

    // --- The merged Perfetto/Chrome JSON ---
    let json = hub.to_perfetto_json();
    let v = coop_telemetry::json::parse(&json).expect("trace must be valid JSON");
    let events = v["traceEvents"].as_array().unwrap();

    // Runtime task events: complete spans, category "task".
    let task_spans: Vec<_> = events
        .iter()
        .filter(|e| e["ph"] == "X" && e["cat"] == "task")
        .collect();
    assert!(!task_spans.is_empty(), "runtime task spans missing");

    // Agent decisions: instant events on the agent's own track.
    let decisions: Vec<_> = events
        .iter()
        .filter(|e| e["ph"] == "i" && e["cat"] == "agent")
        .collect();
    assert!(!decisions.is_empty(), "agent decision instants missing");

    // Memsim bandwidth: counter tracks.
    let counters: Vec<_> = events
        .iter()
        .filter(|e| e["ph"] == "C" && e["cat"] == "bandwidth")
        .collect();
    assert!(!counters.is_empty(), "memsim counter tracks missing");

    // Distinct tracks (Perfetto processes) per source…
    let pid = |e: &&coop_telemetry::json::Value| e["pid"].as_u64().unwrap();
    assert_ne!(pid(&task_spans[0]), pid(&decisions[0]));
    assert_ne!(pid(&task_spans[0]), pid(&counters[0]));

    // …but one clock: memsim ran after the pipeline, so its samples must
    // carry later timestamps than the first task span — all microseconds
    // since the same hub epoch.
    let min_ts = |evs: &[&coop_telemetry::json::Value]| {
        evs.iter().map(|e| e["ts"].as_u64().unwrap()).min().unwrap()
    };
    assert!(
        min_ts(&counters) >= min_ts(&task_spans),
        "memsim samples must sort after the pipeline start on the shared clock"
    );

    // Track metadata names all three processes.
    let process_names: Vec<&str> = events
        .iter()
        .filter(|e| e["ph"] == "M" && e["name"] == "process_name")
        .map(|e| e["args"]["name"].as_str().unwrap())
        .collect();
    assert!(
        process_names.contains(&"runtime:producer"),
        "{process_names:?}"
    );
    assert!(process_names.contains(&"runtime:consumer"));
    assert!(process_names.contains(&"agent"));
    assert!(process_names.contains(&"memsim"));

    // --- The Prometheus exposition ---
    let prom = hub.registry().to_prometheus();
    assert!(
        prom.contains("coop_task_latency_us_bucket{"),
        "task latency histogram buckets missing:\n{prom}"
    );
    assert!(prom.contains("le=\"+Inf\"}"));
    assert!(prom.contains("coop_agent_decisions_total"));
    assert!(prom.contains("memsim_node_utilization"));
}
