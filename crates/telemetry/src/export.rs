//! The one serialized form of a timeline event, a Chrome trace-event
//! object: `push_trace_event` writes it and `FromJson for TimelineEvent`
//! reads it back. The merged Perfetto export, the causal-trace export,
//! flight-recorder dumps and `/trace/recent` all write it; the JSON summary
//! lives here too.
//!
//! The writers append straight to a `String` with [`crate::json`]'s
//! primitives, so this crate stays dependency-free; integration tests parse
//! the output with [`crate::json::parse`] to keep them honest.

use crate::json::{self, push_f64, push_str_literal, Error, FromJson, Value};
use crate::json_object;
use crate::timeline::{ArgValue, EventKind, TelemetryHub, TimelineEvent, TrackId};
use std::fmt::Write as _;

fn push_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::F64(f) => push_f64(out, *f),
        ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        ArgValue::Str(s) => push_str_literal(out, s),
    }
}

/// Separates an item of a JSON list from the one before it: every list
/// written here opens with `[`.
pub(crate) fn push_separator(out: &mut String) {
    if !out.ends_with('[') {
        out.push(',');
    }
}

/// What a trace-event object carries besides its name, process and
/// thread: a timeline event's category, timestamp (µs) and kind (span `X`,
/// instant `i`, counter `C`), or nothing for a record naming a process or
/// a thread (`M`).
pub(crate) enum Phase<'a> {
    Event(&'a str, u64, &'a EventKind),
    Metadata,
}

/// Appends one Chrome trace-event object: `name`, then the phase's `cat`,
/// `ph` and timing, `pid`, `tid` when given, and `args` in order (a
/// counter's sampled value first, as `value`: counter tracks plot every
/// numeric argument). The only writer of `"ph"`.
pub(crate) fn push_trace_event<K: AsRef<str>>(
    out: &mut String,
    name: &str,
    phase: Phase<'_>,
    pid: u64,
    tid: Option<u64>,
    args: &[(K, ArgValue)],
) {
    out.push_str("{\"name\":");
    push_str_literal(out, name);
    let mut counter = None;
    match phase {
        Phase::Event(cat, ts_us, kind) => {
            out.push_str(",\"cat\":");
            push_str_literal(out, cat);
            let _ = match kind {
                EventKind::Span { dur_us } => {
                    write!(out, ",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{dur_us}")
                }
                EventKind::Instant => write!(out, ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us}"),
                EventKind::Counter { value } => {
                    counter = Some(*value);
                    write!(out, ",\"ph\":\"C\",\"ts\":{ts_us}")
                }
            };
        }
        Phase::Metadata => out.push_str(",\"ph\":\"M\""),
    }
    let _ = write!(out, ",\"pid\":{pid}");
    if let Some(tid) = tid {
        let _ = write!(out, ",\"tid\":{tid}");
    }
    out.push_str(",\"args\":{");
    if let Some(value) = counter {
        out.push_str("\"value\":");
        push_f64(out, value);
    }
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 || counter.is_some() {
            out.push(',');
        }
        push_str_literal(out, k.as_ref());
        out.push(':');
        push_arg_value(out, v);
    }
    out.push_str("}}");
}

/// Appends `ev` as its trace-event object. Perfetto/Chrome process ids
/// start at 1 (0 renders oddly), so a track's pid is its id + 1; its lane
/// is the thread.
pub(crate) fn push_event(out: &mut String, ev: &TimelineEvent) {
    let phase = Phase::Event(&ev.cat, ev.ts_us, &ev.kind);
    let (pid, tid) = (u64::from(ev.track.0) + 1, Some(u64::from(ev.lane)));
    push_trace_event(out, &ev.name, phase, pid, tid, &ev.args);
}

/// Appends a metadata record giving process `pid` (or its thread `tid`)
/// the display name `label`.
pub(crate) fn push_metadata(out: &mut String, name: &str, pid: u64, tid: Option<u64>, label: &str) {
    let args = [("name", ArgValue::Str(label.to_string()))];
    push_trace_event(out, name, Phase::Metadata, pid, tid, &args);
}

impl FromJson for ArgValue {
    fn from_value(v: &Value) -> json::Result<Self> {
        Ok(match v {
            Value::Int(_) => ArgValue::U64(u64::from_value(v)?),
            Value::Float(x) => ArgValue::F64(*x),
            Value::Bool(b) => ArgValue::Bool(*b),
            Value::Str(s) => ArgValue::Str(s.clone()),
            _ => return Err(Error::new("expected a number, a boolean or a string")),
        })
    }
}

/// Reads back the object `push_event` writes; metadata records and any
/// other phase are an error.
impl FromJson for TimelineEvent {
    fn from_value(v: &Value) -> json::Result<Self> {
        let track = u32::try_from(v.field::<u64>("pid")?.wrapping_sub(1))
            .map_err(|_| Error::new("field `pid`: expected 1 ..= 2^32"))?;
        let mut args = v["args"]
            .as_object()
            .ok_or_else(|| Error::new("field `args`: expected an object"))?
            .iter();
        let kind = match v.field::<String>("ph")?.as_str() {
            "X" => EventKind::Span {
                dur_us: v.field("dur")?,
            },
            "i" => EventKind::Instant,
            "C" => match args.next() {
                Some((key, value)) if key == "value" => EventKind::Counter {
                    value: f64::from_value(value)?,
                },
                _ => return Err(Error::new("a counter's first argument is not `value`")),
            },
            other => return Err(Error::new(format!("phase `{other}` is not an event"))),
        };
        Ok(TimelineEvent {
            track: TrackId(track),
            lane: v.field("tid")?,
            cat: v.field("cat")?,
            name: v.field("name")?,
            ts_us: v.field("ts")?,
            kind,
            args: args
                .map(|(key, value)| Ok((key.clone(), ArgValue::from_value(value)?)))
                .collect::<json::Result<_>>()?,
        })
    }
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
        for (idx, (name, lanes)) in tracks.iter().enumerate() {
            let pid = idx as u64 + 1;
            push_separator(&mut out);
            push_metadata(&mut out, "process_name", pid, None, name);
            for (lane, lane_name) in lanes {
                push_separator(&mut out);
                let tid = Some(u64::from(*lane));
                push_metadata(&mut out, "thread_name", pid, tid, lane_name);
            }
        }
        for ev in &events {
            push_separator(&mut out);
            push_event(&mut out, ev);
        }
        let (dropped, count, tracks) = (self.dropped(), events.len(), tracks.len());
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"metadata\":{{\"dropped\":{dropped},\"events\":{count},\"tracks\":{tracks}}}}}"
        );
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
            &[],
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
