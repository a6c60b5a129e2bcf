//! A task span is kept packed, 64 bytes in a ring of its own; an event
//! with literal or shared labels (a bandwidth sample, a provenance instant)
//! is kept packed in another; everything else stays a full `TimelineEvent`.
//! These tests pin that no reader can tell: the event read back, the
//! rings' eviction order and counts, the flight recorder's log and the
//! Chrome-trace export are what `record` gives for the full event, and a
//! flight dump decodes back to exactly the events recorded, floats bit for
//! bit.

use coop_telemetry::{
    ArgValue, EventKind, FlightRecorder, Label, PackedArg, SeriesKey, TelemetryHub, TimelineEvent,
    TrackId, TASK_NAME_INLINE,
};
use std::sync::Arc;

/// One task span, as the runtime describes it.
#[derive(Debug, Clone)]
struct Span {
    lane: u32,
    name: String,
    ts_us: u64,
    dur_us: u64,
    node: u64,
    panicked: bool,
}

impl Span {
    fn packed(&self, hub: &TelemetryHub, shard: usize, track: TrackId) {
        hub.record_task_span(
            shard,
            track,
            self.lane,
            &self.name,
            self.ts_us,
            self.dur_us,
            self.node,
            self.panicked,
        );
    }

    /// The full event the span stands for.
    fn event(&self, track: TrackId) -> TimelineEvent {
        let mut args = vec![("node".to_string(), ArgValue::U64(self.node))];
        if self.panicked {
            args.push(("panicked".to_string(), ArgValue::Bool(true)));
        }
        TimelineEvent {
            track,
            lane: self.lane,
            cat: "task".to_string(),
            name: self.name.clone(),
            ts_us: self.ts_us,
            kind: EventKind::Span {
                dur_us: self.dur_us,
            },
            args,
        }
    }

    /// The span the way the runtime recorded it before the packed slot.
    fn full(&self, hub: &TelemetryHub, shard: usize, track: TrackId) {
        let mut args = vec![("node".to_string(), ArgValue::U64(self.node))];
        if self.panicked {
            args.push(("panicked".to_string(), ArgValue::Bool(true)));
        }
        hub.record_span(
            shard,
            track,
            self.lane,
            "task",
            &self.name,
            self.ts_us,
            self.dur_us,
            args,
        );
    }
}

/// Field for field, floats bit for bit.
fn assert_same(a: &TimelineEvent, b: &TimelineEvent, what: &str) {
    assert_eq!(a.track, b.track, "{what}: track");
    assert_eq!(a.lane, b.lane, "{what}: lane");
    assert_eq!(a.cat, b.cat, "{what}: cat");
    assert_eq!(a.name, b.name, "{what}: name");
    assert_eq!(a.ts_us, b.ts_us, "{what}: ts_us");
    assert_eq!(a.kind, b.kind, "{what}: kind");
    assert_eq!(a.args, b.args, "{what}: args");
    assert_eq!(float_bits(a), float_bits(b), "{what}: float bits");
}

/// The bits of an event's counter value and float arguments, in order.
fn float_bits(e: &TimelineEvent) -> Vec<u64> {
    let value = match e.kind {
        EventKind::Counter { value } => Some(value),
        _ => None,
    };
    let args = e.args.iter().filter_map(|(_, v)| match v {
        ArgValue::F64(x) => Some(*x),
        _ => None,
    });
    value.into_iter().chain(args).map(f64::to_bits).collect()
}

/// Dumps `rec` and decodes the dump.
fn dump_and_decode(rec: &FlightRecorder, file: &str) -> Vec<TimelineEvent> {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    rec.dump_to(&path).unwrap();
    FlightRecorder::decode(&std::fs::read(&path).unwrap()).unwrap()
}

/// splitmix64: the cases below repeat exactly for a seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Names around every edge of the inline buffer: empty, short, exactly
/// the limit, one past it, far past it, and multi-byte UTF-8 that ends
/// at, straddles and exceeds the limit.
fn edge_names() -> Vec<String> {
    let two_byte = "é"; // 2 bytes
    let three_byte = "核"; // 3 bytes
    vec![
        String::new(),
        "fan".to_string(),
        "a".repeat(TASK_NAME_INLINE - 1),
        "b".repeat(TASK_NAME_INLINE),
        "c".repeat(TASK_NAME_INLINE + 1),
        "d".repeat(4 * TASK_NAME_INLINE),
        two_byte.repeat(TASK_NAME_INLINE / 2),
        format!("x{}", two_byte.repeat(TASK_NAME_INLINE / 2)),
        three_byte.repeat(TASK_NAME_INLINE / 3),
        three_byte.repeat(TASK_NAME_INLINE / 3 + 1),
        "stage \"核\"\n\\tab".to_string(),
    ]
}

fn seeded_spans(seed: u64) -> Vec<Span> {
    let mut state = seed;
    let names = edge_names();
    let nodes = [0, 1, 7, u32::MAX as u64, u32::MAX as u64 + 1, u64::MAX];
    let mut spans = Vec::new();
    for (i, name) in names.iter().enumerate() {
        for &node in &nodes {
            let r = next(&mut state);
            spans.push(Span {
                lane: (r >> 40) as u32,
                name: name.clone(),
                // Distinct, increasing timestamps keep `events()` (sorted
                // by time) in recording order on both hubs.
                ts_us: spans.len() as u64 * 1000 + (r & 0xFF),
                dur_us: match i % 3 {
                    0 => 1,
                    1 => r >> 20,
                    _ => u64::MAX,
                },
                node,
                panicked: r & 1 == 1,
            });
        }
    }
    spans
}

#[test]
fn a_packed_span_reads_back_as_the_event_record_span_stores() {
    for seed in [20200518u64, 77003] {
        let spans = seeded_spans(seed);
        assert!(spans.iter().any(|s| s.panicked) && spans.iter().any(|s| !s.panicked));
        let (packed, full) = (TelemetryHub::new(), TelemetryHub::new());
        let track_p = packed.register_track("runtime:t");
        let track_f = full.register_track("runtime:t");
        for (i, span) in spans.iter().enumerate() {
            span.packed(&packed, i, track_p);
            span.full(&full, i, track_f);
        }
        let (got, want) = (packed.events(), full.events());
        assert_eq!(got.len(), spans.len());
        assert_eq!(want.len(), spans.len());
        for ((g, w), span) in got.iter().zip(&want).zip(&spans) {
            assert_same(g, w, &format!("seed {seed}, {span:?}"));
            assert_eq!(g.name, span.name);
            assert_eq!(
                g.kind,
                EventKind::Span {
                    dur_us: span.dur_us
                }
            );
        }
        assert_eq!(packed.event_count(), full.event_count());
        assert_eq!(packed.dropped(), 0);
    }
}

#[test]
fn a_mixed_ring_keeps_the_newest_five_in_order() {
    const RECORDED: u64 = 23;
    let long = "n".repeat(TASK_NAME_INLINE + 5);
    // Once with increasing timestamps, once with every timestamp equal:
    // `events()` sorts by time and keeps recording order among equals, so
    // the second pass reads the shard's own order across both rings.
    for ts_of in [|i: u64| i, |_| 7] {
        let hub = TelemetryHub::with_config(1, 5);
        let track = hub.register_track("runtime:mixed");
        for i in 0..RECORDED {
            let ts = ts_of(i);
            match i % 4 {
                // Packed task spans.
                0 | 1 => hub.record_task_span(0, track, 1, &format!("t{i}"), ts, 1, 0, i % 8 == 0),
                // A task span too long to pack.
                2 => hub.record_task_span(0, track, 1, &format!("{long}{i}"), ts, 1, 0, false),
                // A full event.
                _ => hub.record_instant_at(
                    0,
                    track,
                    0,
                    "control",
                    &format!("c{i}"),
                    ts,
                    vec![("k".to_string(), ArgValue::U64(i))],
                ),
            }
            assert_eq!(hub.event_count() as u64 + hub.dropped(), i + 1);
            assert_eq!(hub.event_count() as u64, (i + 1).min(5));
        }
        let events = hub.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        let (n18, n22) = (format!("{long}18"), format!("{long}22"));
        assert_eq!(
            names,
            [&n18[..], "c19", "t20", "t21", &n22[..]],
            "the newest five, oldest first"
        );
        assert_eq!(events[1].kind, EventKind::Instant);
        assert_eq!(events[2].cat, "task");
        assert_eq!(hub.dropped(), RECORDED - 5);
    }
}

#[test]
fn an_installed_flight_recorder_logs_every_task_span() {
    let spans = seeded_spans(7);
    let (packed, full) = (
        TelemetryHub::with_config(2, 4),
        TelemetryHub::with_config(2, 4),
    );
    let (rec_p, rec_f) = (
        Arc::new(FlightRecorder::new(4096)),
        Arc::new(FlightRecorder::new(4096)),
    );
    assert!(packed.install_flight_recorder(Arc::clone(&rec_p)));
    assert!(full.install_flight_recorder(Arc::clone(&rec_f)));
    let track_p = packed.register_track("runtime:r");
    let track_f = full.register_track("runtime:r");
    for (i, span) in spans.iter().enumerate() {
        span.packed(&packed, i, track_p);
        span.full(&full, i, track_f);
    }
    // The hub rings evicted most of them; the recorders saw them all, and
    // each dump decodes to exactly the spans recorded, whichever way they
    // went in.
    assert_eq!(packed.event_count(), 8);
    assert_eq!(rec_p.recorded(), spans.len() as u64);
    assert_eq!(rec_f.recorded(), spans.len() as u64);
    for (rec, file) in [(&rec_p, "packed.flight"), (&rec_f, "full.flight")] {
        let decoded = dump_and_decode(rec, file);
        assert_eq!(decoded.len(), spans.len());
        for (event, span) in decoded.iter().zip(&spans) {
            assert_same(event, &span.event(track_p), &format!("{file}: {span:?}"));
        }
    }
}

#[test]
fn the_chrome_trace_is_byte_equal_whichever_way_the_spans_went_in() {
    let spans = seeded_spans(20200518);
    let (packed, full) = (
        TelemetryHub::with_config(4, 16),
        TelemetryHub::with_config(4, 16),
    );
    for hub in [&packed, &full] {
        let track = hub.register_track("runtime:x");
        hub.set_lane_name(track, 0, "control");
        hub.set_lane_name(track, 1, "worker-0 (node 0)");
    }
    let track = TrackId(0);
    let name: SeriesKey = "node0".into();
    for (i, span) in spans.iter().enumerate() {
        span.packed(&packed, i, track);
        span.full(&full, i, track);
        if i % 5 == 0 {
            let sample = Sample {
                track,
                lane: 0,
                name: Arc::clone(&name),
                ts_us: span.ts_us,
                mid_s: 1.5,
                gbs: 1.5,
                utilization: 1.5,
            };
            Op::Bandwidth(sample).record(&packed, &full, i);
        }
    }
    assert!(packed.dropped() > 0, "the export covers an overflowed ring");
    assert_eq!(packed.to_perfetto_json(), full.to_perfetto_json());
    assert_eq!(packed.summary_json(), full.summary_json());
}

/// A bandwidth sample in the shape `memsim` records one.
#[derive(Debug, Clone)]
struct Sample {
    track: TrackId,
    lane: u32,
    name: SeriesKey,
    ts_us: u64,
    mid_s: f64,
    gbs: f64,
    utilization: f64,
}

/// A provenance instant in the shape `ModelObservatory` records one.
#[derive(Debug, Clone)]
struct Decision {
    track: TrackId,
    id: u64,
    tick: u64,
    source: SeriesKey,
    command: SeriesKey,
    ts_us: u64,
}

/// One operation of a seeded sequence, as each hub takes it.
#[derive(Debug, Clone)]
enum Op {
    Span(Span),
    Bandwidth(Sample),
    Decision(Decision),
    /// A packed instant with six arguments, as many as one holds: a flag,
    /// a literal string, and four numbers as a drift alarm has.
    Marker {
        ts_us: u64,
        ok: bool,
    },
    Full(TimelineEvent),
}

impl Op {
    /// Records the operation packed into `packed` and as the full event
    /// into `full`, both on `shard`.
    fn record(&self, packed: &TelemetryHub, full: &TelemetryHub, shard: usize) {
        match self {
            Op::Span(span) => {
                span.packed(packed, shard, TrackId(0));
                span.full(full, shard, TrackId(0));
                return;
            }
            Op::Bandwidth(s) => packed.record_packed(
                shard,
                s.track,
                s.lane,
                "bandwidth",
                Arc::clone(&s.name),
                s.ts_us,
                EventKind::Counter { value: s.gbs },
                &["t_s", "utilization"],
                [PackedArg::F64(s.mid_s), PackedArg::F64(s.utilization)],
            ),
            Op::Decision(d) => packed.record_packed(
                shard,
                d.track,
                0,
                "provenance",
                "decision",
                d.ts_us,
                EventKind::Instant,
                &["id", "tick", "source", "command"],
                [
                    PackedArg::U64(d.id),
                    PackedArg::U64(d.tick),
                    PackedArg::Str(Arc::clone(&d.source).into()),
                    PackedArg::Str(Arc::clone(&d.command).into()),
                ],
            ),
            Op::Marker { ts_us, ok } => packed.record_packed(
                shard,
                TrackId(1),
                2,
                "control",
                "marker",
                *ts_us,
                EventKind::Instant,
                &["ok", "note", "residual", "ewma", "cusum", "decision"],
                [
                    PackedArg::Bool(*ok),
                    PackedArg::Str(Label::Static("a \"b\"\n")),
                    PackedArg::F64(*ts_us as f64 / 3.0),
                    PackedArg::F64(-0.25),
                    PackedArg::F64(1.5e300),
                    PackedArg::U64(*ts_us),
                ],
            ),
            Op::Full(event) => packed.record(shard, event.clone()),
        }
        full.record(shard, self.event());
    }

    /// The full event the operation records: the reference each packed
    /// record must read back as.
    fn event(&self) -> TimelineEvent {
        match self {
            Op::Span(span) => span.event(TrackId(0)),
            // memsim's sample as the full event it was.
            Op::Bandwidth(s) => TimelineEvent {
                track: s.track,
                lane: s.lane,
                cat: "bandwidth".to_string(),
                name: s.name.to_string(),
                ts_us: s.ts_us,
                kind: EventKind::Counter { value: s.gbs },
                args: vec![
                    ("t_s".to_string(), ArgValue::F64(s.mid_s)),
                    ("utilization".to_string(), ArgValue::F64(s.utilization)),
                ],
            },
            // The observatory's instant as the full event
            // `record_instant_at` stores.
            Op::Decision(d) => TimelineEvent {
                track: d.track,
                lane: 0,
                cat: "provenance".to_string(),
                name: "decision".to_string(),
                ts_us: d.ts_us,
                kind: EventKind::Instant,
                args: vec![
                    ("id".to_string(), ArgValue::U64(d.id)),
                    ("tick".to_string(), ArgValue::U64(d.tick)),
                    ("source".to_string(), ArgValue::Str(d.source.to_string())),
                    ("command".to_string(), ArgValue::Str(d.command.to_string())),
                ],
            },
            Op::Marker { ts_us, ok } => TimelineEvent {
                track: TrackId(1),
                lane: 2,
                cat: "control".to_string(),
                name: "marker".to_string(),
                ts_us: *ts_us,
                kind: EventKind::Instant,
                args: vec![
                    ("ok".to_string(), ArgValue::Bool(*ok)),
                    ("note".to_string(), ArgValue::Str("a \"b\"\n".to_string())),
                    ("residual".to_string(), ArgValue::F64(*ts_us as f64 / 3.0)),
                    ("ewma".to_string(), ArgValue::F64(-0.25)),
                    ("cusum".to_string(), ArgValue::F64(1.5e300)),
                    ("decision".to_string(), ArgValue::U64(*ts_us)),
                ],
            },
            Op::Full(event) => event.clone(),
        }
    }
}

/// A seeded interleaving of every kind of record: task spans (packed and
/// spilled), the supervised tick's bandwidth samples and provenance
/// instants, packed instants with six arguments, and full events.
/// Timestamps repeat in runs of three, so `events()` reads each shard's own
/// order among equal times.
fn seeded_ops(seed: u64, len: usize) -> Vec<Op> {
    let mut state = seed;
    let spans = seeded_spans(seed);
    let nodes: Vec<SeriesKey> = (0..4).map(|n| format!("node{n}_bw_gbs").into()).collect();
    let source: SeriesKey = "memsim-supervisor".into();
    let commands: [SeriesKey; 2] = [
        "simulate 0.0200s on paper-skylake".into(),
        "simulate 0.0100s on \"核\"\n".into(),
    ];
    (0..len)
        .map(|i| {
            let r = next(&mut state);
            let ts_us = i as u64 / 3;
            match r % 6 {
                0 => Op::Span(Span {
                    ts_us,
                    ..spans[(r >> 8) as usize % spans.len()].clone()
                }),
                1 | 2 => {
                    let node = (r >> 8) as usize % nodes.len();
                    Op::Bandwidth(Sample {
                        track: TrackId(2),
                        lane: node as u32 + 1,
                        name: Arc::clone(&nodes[node]),
                        ts_us,
                        mid_s: i as f64 * 0.01,
                        gbs: (r >> 11) as f64 / (1u64 << 40) as f64,
                        utilization: (r >> 40) as f64 / (1u64 << 24) as f64,
                    })
                }
                3 => Op::Decision(Decision {
                    track: TrackId(3),
                    id: i as u64 + 1,
                    tick: i as u64,
                    source: Arc::clone(&source),
                    command: Arc::clone(&commands[(r >> 8) as usize % 2]),
                    ts_us,
                }),
                4 => Op::Marker {
                    ts_us,
                    ok: r & (1 << 8) != 0,
                },
                _ => Op::Full(TimelineEvent {
                    track: TrackId(1),
                    lane: 0,
                    cat: "agent".to_string(),
                    name: format!("full{i}"),
                    ts_us,
                    kind: EventKind::Instant,
                    args: vec![
                        ("tick".to_string(), ArgValue::U64(u64::MAX - i as u64)),
                        ("lag".to_string(), ArgValue::F64(-(i as f64) / 3.0)),
                    ],
                }),
            }
        })
        .collect()
}

/// Two hubs of `shards` x `capacity`, each with a flight recorder and the
/// same four tracks.
fn hub_pair(shards: usize, capacity: usize) -> [(TelemetryHub, Arc<FlightRecorder>); 2] {
    [(); 2].map(|()| {
        let hub = TelemetryHub::with_config(shards, capacity);
        let rec = Arc::new(FlightRecorder::new(4096));
        assert!(hub.install_flight_recorder(Arc::clone(&rec)));
        for name in ["runtime:r", "agent", "memsim", "model-drift"] {
            hub.register_track(name);
        }
        hub.set_lane_name(TrackId(2), 1, "node 0 bandwidth");
        (hub, rec)
    })
}

#[test]
fn packed_events_read_back_as_the_events_record_stores() {
    for seed in [20200518u64, 77003, 1, 2, 3, 4, 5, 6] {
        let ops = seeded_ops(seed, 240);
        let [(packed, rec_p), (full, rec_f)] = hub_pair(3, 7);
        let mut state = seed ^ 0x5EED;
        for (i, op) in ops.iter().enumerate() {
            let shard = (next(&mut state) % 5) as usize;
            op.record(&packed, &full, shard);
            assert_eq!(
                packed.event_count(),
                full.event_count(),
                "seed {seed}, op {i}"
            );
            assert_eq!(packed.dropped(), full.dropped(), "seed {seed}, op {i}");
            if i % 40 == 39 {
                // Eviction order: the survivors, in order, at every stage.
                let (got, want) = (packed.events(), full.events());
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_same(g, w, &format!("seed {seed}, after op {i}"));
                }
            }
        }
        assert!(packed.dropped() > 0, "seed {seed}: the rings overflowed");
        assert_eq!(packed.event_count(), 3 * 7);
        assert_eq!(packed.to_perfetto_json(), full.to_perfetto_json());
        assert_eq!(packed.summary_json(), full.summary_json());

        // The recorders saw every event, and each dump decodes to exactly
        // the events recorded.
        assert_eq!(rec_p.recorded(), ops.len() as u64);
        for (rec, side) in [(&rec_p, "packed"), (&rec_f, "full")] {
            let decoded = dump_and_decode(rec, &format!("ops-{side}-{seed}.flight"));
            assert_eq!(decoded.len(), ops.len());
            for (i, (event, op)) in decoded.iter().zip(&ops).enumerate() {
                assert_same(
                    event,
                    &op.event(),
                    &format!("seed {seed}, {side} dump, op {i}"),
                );
            }
        }
    }
}

#[test]
fn every_kind_of_op_appears_in_the_seeded_sequences() {
    let ops = seeded_ops(20200518, 240);
    let has = |f: fn(&Op) -> bool| ops.iter().any(f);
    assert!(has(
        |op| matches!(op, Op::Span(s) if s.name.len() <= TASK_NAME_INLINE)
    ));
    assert!(has(
        |op| matches!(op, Op::Span(s) if s.name.len() > TASK_NAME_INLINE)
    ));
    assert!(has(|op| matches!(op, Op::Bandwidth(_))));
    assert!(has(|op| matches!(op, Op::Decision(_))));
    assert!(has(|op| matches!(op, Op::Marker { ok: true, .. })));
    assert!(has(|op| matches!(op, Op::Marker { ok: false, .. })));
    assert!(has(|op| matches!(op, Op::Full(_))));
}
