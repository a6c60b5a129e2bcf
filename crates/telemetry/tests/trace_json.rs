//! A timeline event has one serialized form, the Chrome trace-event object.
//! These tests pin the two Perfetto exports of a fixed seeded hub byte for
//! byte, and feed mutated flight dumps of such a hub to
//! `FlightRecorder::decode` on the seeded case runner: a truncated dump
//! decodes to a prefix of its events, anything else is `Ok` or `Err`, and
//! nothing panics.

use coop_alloc::cases::{check, Gen};
use coop_telemetry::{
    hop, hop_args, ArgValue, EventKind, FlightRecorder, PackedArg, SeriesKey, TelemetryHub,
    TimelineEvent, TraceAssembler, TRACE_CAT,
};
use std::sync::Arc;

/// splitmix64: the hub below repeats exactly for a seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a (64 bit).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Floats at the edges of what a trace writes: negative zero, subnormal
/// and huge magnitudes, a NaN (written as 0).
const FLOATS: [f64; 6] = [0.5, -0.0, 1e-310, 1.5e300, -2.25, f64::NAN];

/// A hub holding every kind of record the exports and the recorder write:
/// packed and spilled task spans, packed counters and instants, full spans,
/// instants and counters with every argument type, named lanes, causal-trace
/// hops, and rings that overflowed. Timestamps are explicit, so the hub's
/// contents depend on `seed` alone.
fn seeded_hub(seed: u64, recorder: Option<Arc<FlightRecorder>>) -> TelemetryHub {
    let hub = TelemetryHub::with_config(3, 40);
    if let Some(rec) = recorder {
        assert!(hub.install_flight_recorder(rec));
    }
    let rt = hub.register_track("runtime:pipe \"x\"");
    let agent = hub.register_track("agent");
    let sim = hub.register_track("memsim");
    hub.set_lane_name(rt, 0, "control");
    hub.set_lane_name(rt, 1, "worker-0 (node 0)");
    hub.set_lane_name(sim, 1, "node 0 bandwidth");
    let series: SeriesKey = "node0_bw_gbs".into();
    let command: SeriesKey = "simulate 0.0100s on \"核\"\n".into();
    let long = "spilled-".repeat(6);
    let mut state = seed;
    for i in 0..120u64 {
        let r = next(&mut state);
        let ts = i * 7 + (r & 3);
        let shard = (r >> 8) as usize % 3;
        let float = FLOATS[(r >> 12) as usize % FLOATS.len()];
        match r % 6 {
            0 => {
                let name = if r & (1 << 20) == 0 { "stage" } else { &long };
                hub.record_task_span(
                    shard,
                    rt,
                    1,
                    name,
                    ts,
                    r >> 44,
                    (r >> 24) % 4,
                    r & (1 << 28) != 0,
                );
            }
            1 => hub.record_packed(
                shard,
                sim,
                1,
                "bandwidth",
                Arc::clone(&series),
                ts,
                EventKind::Counter { value: float },
                &["t_s", "saturated"],
                [PackedArg::F64(i as f64 * 0.01), PackedArg::Bool(r & 1 == 0)],
            ),
            2 => hub.record_packed(
                shard,
                agent,
                0,
                "provenance",
                "decision",
                ts,
                EventKind::Instant,
                &["id", "command"],
                [
                    PackedArg::U64(i + 1),
                    PackedArg::Str(Arc::clone(&command).into()),
                ],
            ),
            3 => hub.record(
                shard,
                TimelineEvent {
                    track: agent,
                    lane: 2,
                    cat: "agent".to_string(),
                    name: format!("tick \"{i}\"\t"),
                    ts_us: ts,
                    kind: EventKind::Span { dur_us: r >> 40 },
                    args: vec![
                        ("tick".to_string(), ArgValue::U64(i)),
                        ("max".to_string(), ArgValue::U64(u64::MAX)),
                        ("load".to_string(), ArgValue::F64(float)),
                        ("ok".to_string(), ArgValue::Bool(r & 2 == 0)),
                        ("note".to_string(), ArgValue::Str("a\\b \u{1} é😀".into())),
                    ],
                },
            ),
            4 => hub.record(
                shard,
                TimelineEvent {
                    track: sim,
                    lane: 0,
                    cat: "memsim".to_string(),
                    name: "switches".to_string(),
                    ts_us: ts,
                    kind: EventKind::Counter { value: float },
                    args: Vec::new(),
                },
            ),
            _ => record_hops(&hub, shard, ts, i, r),
        }
    }
    hub
}

/// The causal chain of task `i`: spawned (by task `i - 5` when there is
/// one), released, enqueued, stolen across nodes, started and finished.
fn record_hops(hub: &TelemetryHub, shard: usize, ts: u64, i: u64, r: u64) {
    let rt = coop_telemetry::TrackId(0);
    let trace = i % 3;
    let mut spawned = vec![("task_name".to_string(), ArgValue::Str(format!("stage{i}")))];
    if i >= 5 {
        spawned.push(("parent".to_string(), ArgValue::U64(i - 5)));
    }
    let from = (r >> 16) % 4;
    let hops: [(&str, Vec<(String, ArgValue)>); 6] = [
        (hop::SPAWNED, spawned),
        (
            hop::DEPS_RELEASED,
            vec![("event".to_string(), ArgValue::U64(r >> 50))],
        ),
        (
            hop::ENQUEUED,
            vec![("node".to_string(), ArgValue::U64(from))],
        ),
        (
            hop::STOLEN,
            vec![
                ("from".to_string(), ArgValue::U64(from)),
                ("to".to_string(), ArgValue::U64((from + 1) % 4)),
                ("tier".to_string(), ArgValue::Str("normal".into())),
            ],
        ),
        (
            hop::STARTED,
            vec![("node".to_string(), ArgValue::U64((from + 1) % 4))],
        ),
        (hop::FINISHED, Vec::new()),
    ];
    for (k, (name, extra)) in hops.into_iter().enumerate() {
        let mut args = hop_args(i, trace);
        args.extend(extra);
        hub.record_instant_at(shard, rt, 0, TRACE_CAT, name, ts + k as u64, args);
    }
}

#[test]
fn both_perfetto_exports_are_the_pinned_bytes() {
    let hub = seeded_hub(20200518, None);
    assert!(hub.dropped() > 0, "the fixture covers overflowed rings");
    let timeline = hub.to_perfetto_json();
    let assembled = TraceAssembler::from_hub(&hub);
    assert!(assembled.len() > 3);
    let hops = assembled.to_perfetto_json();
    assert_eq!(
        (fnv1a(timeline.as_bytes()), timeline.len()),
        (0x14e05518d9024592, 15914),
        "{timeline}"
    );
    assert_eq!(
        (fnv1a(hops.as_bytes()), hops.len()),
        (0x40f90ddf03435e6c, 7701),
        "{hops}"
    );
}

/// Real dumps of the seeded hub for a few seeds: every event it recorded,
/// one per line, task spans, packed events and full events alike.
fn real_dumps() -> Vec<Vec<u8>> {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    [20200518u64, 77003, 1]
        .into_iter()
        .map(|seed| {
            let rec = Arc::new(FlightRecorder::new(4096));
            seeded_hub(seed, Some(Arc::clone(&rec)));
            let path = dir.join(format!("hostile-{seed}.json"));
            rec.dump_to(&path).unwrap();
            std::fs::read(&path).unwrap()
        })
        .collect()
}

/// Every field of every event, floats bit for bit.
fn fingerprint(events: &[TimelineEvent]) -> Vec<String> {
    events.iter().map(|e| format!("{e:?}")).collect()
}

/// Numbers no event field holds: past `u64`, past `f64`, negative,
/// fractional where an integer belongs.
const HUGE: [&str; 5] = [
    "18446744073709551616",
    "1e999",
    "-1",
    "0.5",
    "100000000000000000000000000000000000000000",
];

/// One seeded mutation of `dump`, never a truncation.
fn mutate(g: &mut Gen, dump: &[u8]) -> Vec<u8> {
    let mut lines: Vec<Vec<u8>> = dump.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    match g.range(0..6u32) {
        // Flip a few bytes anywhere, header and brackets included.
        0 => {
            let mut bytes = dump.to_vec();
            for _ in 0..g.size(1..8) {
                let at = g.range(0..bytes.len());
                bytes[at] = g.range(0..=255u8);
            }
            return bytes;
        }
        // Splice: move a line elsewhere.
        1 => {
            let line = lines.remove(g.range(0..lines.len()));
            lines.insert(g.range(0..=lines.len()), line);
        }
        // Duplicate a line.
        2 => {
            let line = lines[g.range(0..lines.len())].clone();
            lines.insert(g.range(0..=lines.len()), line);
        }
        // A number no field can hold, in place of the first one on a line.
        3 => {
            let at = g.range(0..lines.len());
            let text = String::from_utf8(lines[at].clone()).unwrap();
            if let Some(start) = text.find(|c: char| c.is_ascii_digit()) {
                let end = text[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .map_or(text.len(), |n| start + n);
                let huge = *g.pick(&HUGE);
                lines[at] = format!("{}{huge}{}", &text[..start], &text[end..]).into_bytes();
            }
        }
        // Arguments nested far past the reader's depth limit.
        4 => {
            let at = g.range(0..lines.len());
            let depth = g.range(1..20_000usize);
            let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            let text = String::from_utf8(lines[at].clone()).unwrap();
            lines[at] = text
                .replacen("\"args\":{", &format!("\"args\":{deep},\"x\":{{"), 1)
                .into_bytes();
        }
        // A line of garbage.
        _ => {
            let garbage = g.vec(0..64, |g| g.range(0..=255u8));
            lines.insert(g.range(0..=lines.len()), garbage);
        }
    }
    lines.join(&b'\n')
}

#[test]
fn a_hostile_flight_dump_is_a_prefix_ok_or_err_never_a_panic() {
    let dumps = real_dumps();
    let originals: Vec<Vec<String>> = dumps
        .iter()
        .map(|d| fingerprint(&FlightRecorder::decode(d).unwrap()))
        .collect();
    assert!(originals.iter().all(|events| events.len() > 120));
    check(30, 300, |g| {
        let which = g.range(0..dumps.len());
        let (dump, original) = (&dumps[which], &originals[which]);
        // A truncation decodes to a prefix: every whole line, and the cut
        // line only when the cut left it whole.
        let cut = g.range(1..=dump.len());
        let decoded = FlightRecorder::decode(&dump[..cut]).expect("a truncated dump decodes");
        let whole = dump[..cut]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            .saturating_sub(1);
        let whole = whole.min(original.len());
        assert!(
            (whole..=whole + 1).contains(&decoded.len()),
            "cut at {cut}: {} events from {whole} whole lines",
            decoded.len()
        );
        assert_eq!(fingerprint(&decoded), original[..decoded.len()]);
        // Anything else is `Ok` or `Err`; the runner fails on a panic.
        let _ = FlightRecorder::decode(&mutate(g, dump));
    });
}

#[test]
fn garbage_and_old_binary_dumps_are_errors() {
    let mut binary = b"COOPFREC\x01\x00".to_vec();
    binary.extend_from_slice(&[0x2a; 40]);
    for bytes in [
        &binary[..],
        b"",
        b"nonsense",
        b"{\"traceEvents\":[]}",
        b"[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"t\"}},\n]\n",
        b"[\n{\"name\":\"e\",\"cat\":\"c\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1,\"pid\":0,\"tid\":0,\"args\":{}},\n]\n",
        b"[\n]\n{}\n",
    ] {
        assert!(FlightRecorder::decode(bytes).is_err(), "{bytes:?}");
    }
    assert_eq!(FlightRecorder::decode(b"[\n]\n").unwrap().len(), 0);
}
