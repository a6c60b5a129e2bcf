//! Exporters: merged Perfetto/Chrome trace JSON and the JSON summary.
//!
//! Both are hand-rolled (see [`crate::json`]) so this crate stays
//! dependency-free; integration tests parse the output with [`crate::json::parse`]
//! to keep the writers honest.

use crate::json::{push_f64, push_str_literal, Value};
use crate::json_object;
use crate::timeline::{ArgValue, EventKind, TelemetryHub, TimelineEvent};

fn push_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => out.push_str(&n.to_string()),
        ArgValue::I64(n) => out.push_str(&n.to_string()),
        ArgValue::F64(f) => push_f64(out, *f),
        ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        ArgValue::Str(s) => push_str_literal(out, s),
    }
}

fn push_args(out: &mut String, args: &[(String, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_literal(out, k);
        out.push(':');
        push_arg_value(out, v);
    }
    out.push('}');
}

/// Perfetto/Chrome "process" ids start at 1 (0 renders oddly), so a
/// track's pid is its id + 1.
fn pid(track: u32) -> u32 {
    track + 1
}

fn push_event(out: &mut String, ev: &TimelineEvent) {
    out.push_str("{\"name\":");
    push_str_literal(out, &ev.name);
    out.push_str(",\"cat\":");
    push_str_literal(out, &ev.cat);
    match &ev.kind {
        EventKind::Span { dur_us } => {
            out.push_str(&format!(
                ",\"ph\":\"X\",\"ts\":{},\"dur\":{}",
                ev.ts_us, dur_us
            ));
        }
        EventKind::Instant => {
            out.push_str(&format!(",\"ph\":\"i\",\"s\":\"t\",\"ts\":{}", ev.ts_us));
        }
        EventKind::Counter { .. } => {
            out.push_str(&format!(",\"ph\":\"C\",\"ts\":{}", ev.ts_us));
        }
    }
    out.push_str(&format!(",\"pid\":{},\"tid\":{}", pid(ev.track.0), ev.lane));
    out.push_str(",\"args\":");
    match &ev.kind {
        EventKind::Counter { value } => {
            // Chrome counter tracks plot every numeric key in args; put
            // the sampled value first under a stable key.
            out.push_str("{\"value\":");
            push_f64(out, *value);
            for (k, v) in &ev.args {
                out.push(',');
                push_str_literal(out, k);
                out.push(':');
                push_arg_value(out, v);
            }
            out.push('}');
        }
        _ => push_args(out, &ev.args),
    }
    out.push('}');
}

fn push_metadata_event(out: &mut String, name: &str, pid_v: u32, tid: Option<u32>, label: &str) {
    out.push_str("{\"name\":");
    push_str_literal(out, name);
    out.push_str(&format!(",\"ph\":\"M\",\"pid\":{}", pid_v));
    if let Some(tid) = tid {
        out.push_str(&format!(",\"tid\":{}", tid));
    }
    out.push_str(",\"args\":{\"name\":");
    push_str_literal(out, label);
    out.push_str("}}");
}

impl TelemetryHub {
    /// Export the merged timeline as Perfetto/Chrome trace JSON (object
    /// form). Tracks become processes, lanes become threads, spans are
    /// `ph:"X"`, instants `ph:"i"`, counter samples `ph:"C"`. Trace-level
    /// metadata records how many events were dropped to ring overflow.
    pub fn to_perfetto_json(&self) -> String {
        let events = self.events();
        let tracks = self.track_table();
        let mut out = String::with_capacity(events.len() * 96 + 512);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (idx, (name, lanes)) in tracks.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            push_metadata_event(&mut out, "process_name", pid(idx as u32), None, name);
            for (lane, lane_name) in lanes {
                out.push(',');
                push_metadata_event(
                    &mut out,
                    "thread_name",
                    pid(idx as u32),
                    Some(*lane),
                    lane_name,
                );
            }
        }
        for ev in &events {
            if !first {
                out.push(',');
            }
            first = false;
            push_event(&mut out, ev);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"metadata\":{");
        out.push_str(&format!(
            "\"dropped\":{},\"events\":{},\"tracks\":{}",
            self.dropped(),
            events.len(),
            tracks.len()
        ));
        out.push_str("}}");
        out
    }

    /// Export a compact JSON summary: event/drop totals plus every metric
    /// flattened to `{name, labels, value}` rows.
    pub fn summary_json(&self) -> String {
        let metrics: Vec<Value> = self
            .registry()
            .summary_rows()
            .iter()
            .map(|(name, labels, value)| {
                json_object! {"name": name, "labels": Value::object(labels), "value": value}
            })
            .collect();
        json_object! {
            "events": self.event_count(),
            "dropped": self.dropped(),
            "tracks": self.track_table().len(),
            "metrics": metrics,
        }
        .write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_hub() -> TelemetryHub {
        let hub = TelemetryHub::with_config(2, 64);
        let rt = hub.register_track("runtime:pipe");
        let agent = hub.register_track("agent");
        hub.set_lane_name(rt, 1, "worker-0");
        hub.record_span(
            1,
            rt,
            1,
            "task",
            "produce \"x\"",
            10,
            25,
            vec![("task_id".to_string(), ArgValue::U64(7))],
        );
        hub.record(
            0,
            TimelineEvent {
                track: agent,
                lane: 0,
                cat: "agent".to_string(),
                name: "decision".to_string(),
                ts_us: 20,
                kind: EventKind::Instant,
                args: vec![("tick".to_string(), ArgValue::U64(0))],
            },
        );
        hub.record_packed(
            0,
            agent,
            1,
            "bandwidth",
            "node0_gbs",
            30,
            EventKind::Counter { value: 12.5 },
            [],
        );
        hub
    }

    #[test]
    fn perfetto_json_has_expected_fragments() {
        let out = demo_hub().to_perfetto_json();
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"ph\":\"M\""));
        assert!(out.contains("\"runtime:pipe\""));
        assert!(out.contains("\"worker-0\""));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"dur\":25"));
        assert!(out.contains("\"produce \\\"x\\\"\""));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"s\":\"t\""));
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.contains("\"value\":12.5"));
        assert!(out.contains("\"metadata\":{\"dropped\":0,\"events\":3,\"tracks\":2}"));
    }

    #[test]
    fn perfetto_json_surfaces_drops() {
        let hub = TelemetryHub::with_config(1, 2);
        let t = hub.register_track("t");
        for i in 0..5 {
            hub.record_instant(0, t, 0, "c", &format!("e{}", i), Vec::new());
        }
        let out = hub.to_perfetto_json();
        assert!(out.contains("\"dropped\":3"));
    }

    #[test]
    fn summary_json_lists_metrics() {
        let hub = demo_hub();
        hub.registry()
            .counter("coop_steals_total", &[("node", "0")])
            .add(4);
        hub.registry().histogram("lat_us", &[]).observe(10);
        let out = hub.summary_json();
        assert!(out.contains("\"events\":3"));
        assert!(out.contains("\"coop_steals_total\""));
        assert!(out.contains("\"labels\":{\"node\":\"0\"}"));
        assert!(out.contains("\"lat_us_count\""));
        assert!(out.contains("\"lat_us_mean\""));
    }
}
