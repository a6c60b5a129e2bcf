//! The black-box flight recorder: a fixed-size, drop-oldest ring of
//! recent events that can be dumped to disk after the fact — so
//! post-mortems don't depend on having tracing enabled (or the process
//! surviving) ahead of time.
//!
//! Once installed on a [`TelemetryHub`](crate::TelemetryHub) via
//! [`TelemetryHub::install_flight_recorder`](crate::TelemetryHub::install_flight_recorder),
//! every event flowing through `record()` — task spans, causal-trace
//! hops, health transitions, drift alarms — is also written into the
//! recorder's ring. Dumps are triggered automatically by the supervision
//! layer (a runtime marked Suspected/Dead) and the drift observatory (an
//! alarm firing), or on demand via `coop observe --dump`.
//!
//! The ring holds each event as its Chrome trace-event object, the text
//! the Perfetto export writes for it. A dump is Chrome's array trace
//! format with one event per line: `[`, the events, `]`. That format lets
//! the closing bracket be missing, so a dump cut short by a crash still
//! opens in ui.perfetto.dev, and [`FlightRecorder::decode`] reads it back
//! up to its last whole line.

use crate::export::push_event;
use crate::json::{parse_bytes, FromJson};
use crate::sync::Mutex;
use crate::timeline::TimelineEvent;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default ring capacity (events).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Fixed-size drop-oldest ring of events, each kept as its trace-event
/// object.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<String>>,
    capacity: usize,
    dump_dir: Mutex<Option<PathBuf>>,
    dropped: AtomicU64,
    recorded: AtomicU64,
    dumps: AtomicU64,
    dump_seq: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("buffered", &self.len())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .field("dumps", &self.dumps())
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

/// Turn an arbitrary trigger reason into a filesystem-safe name fragment.
fn sanitize(reason: &str) -> String {
    let mut out: String = reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    out.truncate(64);
    if out.is_empty() {
        out.push_str("dump");
    }
    out
}

impl FlightRecorder {
    /// Recorder holding the most recent `capacity` events (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
            dump_dir: Mutex::new(None),
            dropped: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            dump_seq: AtomicU64::new(0),
        }
    }

    /// Directory [`trigger_dump`](Self::trigger_dump) writes into. Until
    /// set, automatic triggers are no-ops (callers that only want
    /// explicit [`dump_to`](Self::dump_to) never touch the filesystem).
    pub fn set_dump_dir(&self, dir: impl Into<PathBuf>) {
        *self.dump_dir.lock() = Some(dir.into());
    }

    /// Append one event to the ring, evicting the oldest when full.
    pub fn log(&self, event: &TimelineEvent) {
        let mut record = String::with_capacity(160);
        push_event(&mut record, event);
        let mut ring = self.ring.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Events currently buffered.
    pub(crate) fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Total events ever logged.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Dumps written (explicit and triggered).
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Write the current ring contents to `path`, one event per line
    /// between a `[` line and a `]` line. Returns the number of events
    /// written. The ring is not cleared, so overlapping triggers each
    /// capture the full recent window.
    pub fn dump_to(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let (text, written) = {
            let ring = self.ring.lock();
            let records: Vec<&str> = ring.iter().map(String::as_str).collect();
            (format!("[\n{}\n]\n", records.join(",\n")), records.len())
        };
        std::fs::write(path, text)?;
        self.dumps.fetch_add(1, Ordering::Relaxed);
        Ok(written)
    }

    /// Automatic-trigger entry point: write a dump named after `reason`
    /// into the configured dump directory. Returns the written path, or
    /// `None` when no directory is configured or the write failed (the
    /// recorder never panics the caller — it is post-mortem machinery).
    pub fn trigger_dump(&self, reason: &str) -> Option<PathBuf> {
        let dir = self.dump_dir.lock().clone()?;
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("flight-{}-{}.json", sanitize(reason), seq));
        if std::fs::create_dir_all(&dir).is_err() {
            return None;
        }
        match self.dump_to(&path) {
            Ok(_) => Some(path),
            Err(_) => None,
        }
    }

    /// Decode a dump back into events, parsing each line. A dump cut short
    /// (a crash mid-write loses at most its final partial line) decodes to
    /// the events of its whole lines; anything else that is not one event
    /// object per line between `[` and `]` (blank lines aside) is an `Err`.
    pub fn decode(bytes: &[u8]) -> Result<Vec<TimelineEvent>, String> {
        let mut lines = bytes.split(|&b| b == b'\n').map(<[u8]>::trim_ascii);
        if lines.next() != Some(b"[") {
            return Err("not a flight-recorder dump (no opening `[` line)".to_string());
        }
        let mut lines = lines.enumerate().peekable();
        let mut events = Vec::new();
        while let Some((at, line)) = lines.next() {
            if line == b"]" {
                if lines.any(|(_, rest)| !rest.is_empty()) {
                    return Err("data after the closing `]`".to_string());
                }
                break;
            }
            let item = line.strip_suffix(b",").unwrap_or(line);
            if item.is_empty() {
                continue;
            }
            match parse_bytes(item).and_then(|v| TimelineEvent::from_value(&v)) {
                Ok(event) => events.push(event),
                // The tail after the last newline: a cut-off write.
                Err(_) if lines.peek().is_none() => break,
                Err(e) => return Err(format!("line {}: {e}", at + 2)),
            }
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{ArgValue, EventKind, TrackId};

    fn event(name: &str, ts_us: u64) -> TimelineEvent {
        TimelineEvent {
            track: TrackId(3),
            lane: 2,
            cat: "trace".to_string(),
            name: name.to_string(),
            ts_us,
            kind: EventKind::Span { dur_us: 42 },
            args: vec![
                ("task".to_string(), ArgValue::U64(7)),
                ("node".to_string(), ArgValue::U64(u64::MAX)),
                ("load".to_string(), ArgValue::F64(0.5)),
                ("hot".to_string(), ArgValue::Bool(true)),
                (
                    "tier".to_string(),
                    ArgValue::Str("normal \"q\"".to_string()),
                ),
            ],
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("coop-frec-{}-{}", std::process::id(), tag))
    }

    #[test]
    fn encode_decode_roundtrip_preserves_events() {
        let rec = FlightRecorder::new(16);
        rec.log(&event("started", 100));
        rec.log(&TimelineEvent {
            kind: EventKind::Counter { value: 2.5 },
            ..event("bw", 200)
        });
        rec.log(&TimelineEvent {
            kind: EventKind::Instant,
            args: Vec::new(),
            ..event("drift_alarm", 300)
        });
        let path = temp_path("roundtrip.json");
        let written = rec.dump_to(&path).unwrap();
        assert_eq!(written, 3);
        let bytes = std::fs::read(&path).unwrap();
        // A whole dump is one JSON array of trace-event objects.
        let doc = crate::json::parse_bytes(&bytes).unwrap();
        assert_eq!(doc.as_array().unwrap().len(), 3);
        assert_eq!(doc[1]["ph"], "C");
        let decoded = FlightRecorder::decode(&bytes).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0].name, "started");
        assert_eq!(decoded[0].track, TrackId(3));
        assert_eq!(decoded[0].lane, 2);
        assert_eq!(decoded[0].kind, EventKind::Span { dur_us: 42 });
        assert_eq!(decoded[0].args, event("started", 100).args);
        assert_eq!(decoded[1].kind, EventKind::Counter { value: 2.5 });
        assert_eq!(decoded[2].kind, EventKind::Instant);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let rec = FlightRecorder::new(3);
        for i in 0..10u64 {
            rec.log(&event(&format!("e{i}"), i));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 7);
        assert_eq!(rec.recorded(), 10);
        let path = temp_path("overflow.json");
        rec.dump_to(&path).unwrap();
        let decoded = FlightRecorder::decode(&std::fs::read(&path).unwrap()).unwrap();
        let names: Vec<&str> = decoded.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["e7", "e8", "e9"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trigger_dump_requires_dir_and_sanitizes_reason() {
        let rec = FlightRecorder::new(8);
        rec.log(&event("x", 1));
        // No dir configured: trigger is a no-op.
        assert!(rec.trigger_dump("health-app0-dead").is_none());
        let dir = temp_path("dumps");
        rec.set_dump_dir(&dir);
        let path = rec.trigger_dump("health app0/Dead!").expect("dump written");
        let fname = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(fname.starts_with("flight-health-app0-Dead--0"), "{fname}");
        assert!(path.exists());
        assert_eq!(rec.dumps(), 1);
        // Second trigger gets a fresh sequence number.
        let path2 = rec.trigger_dump("drift-latency").unwrap();
        assert_ne!(path, path2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_tolerates_truncated_tail_and_rejects_garbage() {
        let rec = FlightRecorder::new(8);
        rec.log(&event("a", 1));
        rec.log(&event("b", 2));
        let path = temp_path("trunc.json");
        rec.dump_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Chop mid-way through the second record.
        let cut = bytes.len() - 10;
        let decoded = FlightRecorder::decode(&bytes[..cut]).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].name, "a");
        // Without the closing bracket, every whole line still decodes.
        assert_eq!(
            FlightRecorder::decode(&bytes[..bytes.len() - 2])
                .unwrap()
                .len(),
            2
        );
        // A damaged line that is not the tail is an error, not a skip.
        let text = String::from_utf8(bytes)
            .unwrap()
            .replacen("\"a\"", "\"a\"}", 1);
        assert!(FlightRecorder::decode(text.as_bytes()).is_err());
        assert!(FlightRecorder::decode(b"nonsense").is_err());
        // The binary dumps of earlier versions are not dumps any more.
        assert!(FlightRecorder::decode(b"COOPFREC\x01\x00\x05\x00\x00").is_err());
        let _ = std::fs::remove_file(&path);
    }
}
