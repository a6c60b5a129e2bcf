//! The exporters hand-roll their JSON; these tests keep them honest by
//! parsing the output with the in-tree reader.

use coop_telemetry::{ArgValue, EventKind, TelemetryHub, TimelineEvent};

fn busy_hub() -> TelemetryHub {
    let hub = TelemetryHub::with_config(4, 8);
    let rt = hub.register_track("runtime:pipeline");
    let agent = hub.register_track("agent");
    hub.set_lane_name(rt, 1, "worker-0");
    hub.set_lane_name(agent, 0, "decisions");
    for i in 0..20u64 {
        hub.record_span(
            i as usize,
            rt,
            1,
            "task",
            &format!("task \"{}\"\n", i),
            i * 10,
            5,
            vec![
                ("id".to_string(), ArgValue::U64(i)),
                ("ok".to_string(), ArgValue::Bool(true)),
                ("note".to_string(), ArgValue::Str("a\\b".to_string())),
            ],
        );
    }
    hub.record_instant(
        0,
        agent,
        0,
        "agent",
        "decision",
        vec![("tick".to_string(), ArgValue::U64(1))],
    );
    hub.record(
        1,
        TimelineEvent {
            track: agent,
            lane: 1,
            cat: "bandwidth".to_string(),
            name: "node0".to_string(),
            ts_us: 55,
            kind: EventKind::Counter { value: f64::NAN },
            args: Vec::new(),
        },
    );
    hub.registry().set_help("coop_task_latency_us", "latency");
    hub.registry()
        .histogram("coop_task_latency_us", &[("runtime", "p")])
        .observe(42);
    hub.registry().gauge("util", &[("node", "0")]).set(0.25);
    hub
}

#[test]
fn perfetto_export_is_valid_json_with_drop_metadata() {
    let hub = busy_hub();
    let parsed = coop_telemetry::json::parse(&hub.to_perfetto_json())
        .expect("perfetto export must be valid JSON");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    // Process metadata for both tracks.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e["ph"] == "M" && e["name"] == "process_name")
        .map(|e| e["args"]["name"].as_str().unwrap())
        .collect();
    assert!(names.contains(&"runtime:pipeline"));
    assert!(names.contains(&"agent"));
    // Spans, instants and counters all present; the NaN counter sample
    // was sanitised to a number the parser accepts.
    assert!(events.iter().any(|e| e["ph"] == "X" && e["cat"] == "task"));
    assert!(events.iter().any(|e| e["ph"] == "i" && e["cat"] == "agent"));
    assert!(events
        .iter()
        .any(|e| e["ph"] == "C" && e["args"]["value"].as_f64().is_some()));
    // 4 shards x 8 capacity = 32 slots for 22 events: nothing dropped on
    // an even spread... except shard overflow if hints collide; recompute
    // from the hub and check the metadata agrees either way.
    assert_eq!(
        parsed["metadata"]["dropped"].as_u64().unwrap(),
        hub.dropped()
    );
    assert_eq!(
        parsed["metadata"]["events"].as_u64().unwrap() as usize,
        hub.event_count()
    );
}

#[test]
fn overflowing_hub_reports_drops_in_metadata() {
    let hub = TelemetryHub::with_config(1, 4);
    let t = hub.register_track("t");
    for i in 0..10u64 {
        hub.record_span(0, t, 0, "c", "e", i, 1, Vec::new());
    }
    let parsed = coop_telemetry::json::parse(&hub.to_perfetto_json()).unwrap();
    assert_eq!(parsed["metadata"]["dropped"], 6);
    assert_eq!(parsed["metadata"]["events"], 4);
}

#[test]
fn summary_export_is_valid_json() {
    let hub = busy_hub();
    let parsed =
        coop_telemetry::json::parse(&hub.summary_json()).expect("summary must be valid JSON");
    assert!(parsed["events"].as_u64().is_some());
    let metrics = parsed["metrics"].as_array().unwrap();
    assert!(metrics
        .iter()
        .any(|m| m["name"] == "coop_task_latency_us_count" && m["value"] == 1.0));
    assert!(metrics
        .iter()
        .any(|m| m["name"] == "util" && m["labels"]["node"] == "0"));
}
