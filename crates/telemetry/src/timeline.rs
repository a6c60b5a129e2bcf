//! The sharded event timeline and the [`TelemetryHub`] tying it to the
//! metrics registry.
//!
//! Writers record events into one of several independent shards (each a
//! small mutex around a bounded ring). A runtime passes its worker index
//! as the shard hint, so workers on different shards never contend — this
//! replaces the single global `Mutex` the legacy runtime tracer took on
//! every `record_task`. Each shard is a true ring: when full, the oldest
//! event is evicted so the newest data always survives.
//!
//! Two kinds of event are kept packed, with no heap pieces of their own,
//! each in a ring of its own:
//!
//! * the event a runtime emits per task — a `task` span carrying its node
//!   — in 64 bytes ([`TelemetryHub::record_task_span`]);
//! * an event whose labels are string literals or shared strings
//!   ([`Label`]), whose argument keys are literals and whose argument
//!   values are numbers, flags or such labels ([`PackedArg`]) — a decision
//!   tick's bandwidth samples, its provenance instant and its drift alarms
//!   ([`TelemetryHub::record_packed`]).
//!
//! Every other event, and a task span whose name is longer than
//! [`TASK_NAME_INLINE`] bytes, is kept as the [`TimelineEvent`] it is.
//! The three rings of a shard share one capacity and one recording order,
//! so readers cannot tell them apart: a packed entry expands to exactly the
//! event [`TelemetryHub::record`] would have stored, and is evicted when
//! that event would have been.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::accounting::TenantLedger;
use crate::metrics::MetricsRegistry;
use crate::provenance::SeriesKey;
use crate::recorder::FlightRecorder;
use crate::slo::SloEngine;

/// Identifies a timeline track (one per data source: a runtime, the
/// agent, the memory simulator). Exported as a Perfetto "process".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId(pub u32);

/// A typed event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Floating point (non-finite values export as 0).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

/// What kind of timeline event this is (maps onto Chrome trace phases).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A complete span with a duration (`ph: "X"`).
    Span {
        /// Duration in microseconds.
        dur_us: u64,
    },
    /// A point-in-time marker (`ph: "i"`), e.g. an agent decision.
    Instant,
    /// A sampled counter value (`ph: "C"`), e.g. per-node bandwidth.
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One event on the unified timeline. Timestamps are microseconds since
/// the owning hub's epoch, so events from every crate sort onto one
/// clock.
#[derive(Debug, Clone)]
pub struct TimelineEvent {
    /// Which track (data source) the event belongs to.
    pub track: TrackId,
    /// Lane within the track (exported as a Perfetto "thread"; runtimes
    /// use worker-index + 1, 0 is the control/helper lane).
    pub lane: u32,
    /// Category (e.g. `task`, `control`, `agent`, `bandwidth`).
    pub cat: String,
    /// Event name.
    pub name: String,
    /// Microseconds since the hub epoch.
    pub ts_us: u64,
    /// Span / instant / counter payload.
    pub kind: EventKind,
    /// Extra key/value arguments. They become the members of one JSON
    /// object, so keys are unique, and a counter's are not `value`.
    pub args: Vec<(String, ArgValue)>,
}

/// Longest task name, in bytes of UTF-8, that a packed task span holds
/// inline; a longer name spills the span to a full [`TimelineEvent`].
pub const TASK_NAME_INLINE: usize = 34;

/// A task span packed into 64 bytes: no heap pieces.
struct TaskSpan {
    ts_us: u64,
    dur_us: u64,
    track: TrackId,
    lane: u32,
    node: u32,
    panicked: bool,
    name_len: u8,
    name: [u8; TASK_NAME_INLINE],
}

const _: () = assert!(std::mem::size_of::<TaskSpan>() <= 64);

impl TaskSpan {
    /// `None` when the span does not fit (name too long, or a node index
    /// beyond `u32`): the caller spills it.
    fn pack(
        track: TrackId,
        lane: u32,
        name: &str,
        ts_us: u64,
        dur_us: u64,
        node: u64,
        panicked: bool,
    ) -> Option<Self> {
        let node = u32::try_from(node).ok()?;
        let mut inline = [0u8; TASK_NAME_INLINE];
        inline
            .get_mut(..name.len())?
            .copy_from_slice(name.as_bytes());
        Some(TaskSpan {
            ts_us,
            dur_us,
            track,
            lane,
            node,
            panicked,
            name_len: name.len() as u8,
            name: inline,
        })
    }

    fn to_event(&self) -> TimelineEvent {
        let name = std::str::from_utf8(&self.name[..self.name_len as usize])
            .expect("packed from a whole &str");
        task_span_event(
            self.track,
            self.lane,
            name,
            self.ts_us,
            self.dur_us,
            self.node as u64,
            self.panicked,
        )
    }
}

/// The one definition of what a task span looks like as a full event.
fn task_span_event(
    track: TrackId,
    lane: u32,
    name: &str,
    ts_us: u64,
    dur_us: u64,
    node: u64,
    panicked: bool,
) -> TimelineEvent {
    let mut args = vec![("node".to_string(), ArgValue::U64(node))];
    if panicked {
        args.push(("panicked".to_string(), ArgValue::Bool(true)));
    }
    TimelineEvent {
        track,
        lane,
        cat: "task".to_string(),
        name: name.to_string(),
        ts_us,
        kind: EventKind::Span { dur_us },
        args,
    }
}

/// A label a packed event holds: a string literal, or a string shared with
/// whoever else keeps it. A clone is at most a reference-count increment.
#[derive(Debug, Clone, PartialEq)]
pub enum Label {
    /// A string literal.
    Static(&'static str),
    /// A shared string.
    Shared(SeriesKey),
}

impl Label {
    /// The label's text.
    pub(crate) fn as_str(&self) -> &str {
        match self {
            Label::Static(s) => s,
            Label::Shared(s) => s,
        }
    }
}

impl From<&'static str> for Label {
    fn from(s: &'static str) -> Self {
        Label::Static(s)
    }
}

impl From<SeriesKey> for Label {
    fn from(s: SeriesKey) -> Self {
        Label::Shared(s)
    }
}

/// An argument value a packed event holds: each expands to the
/// [`ArgValue`] of the same name.
#[derive(Debug, Clone, PartialEq)]
pub enum PackedArg {
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(Label),
}

impl PackedArg {
    fn expand(&self) -> ArgValue {
        match self {
            PackedArg::U64(n) => ArgValue::U64(*n),
            PackedArg::F64(x) => ArgValue::F64(*x),
            PackedArg::Bool(b) => ArgValue::Bool(*b),
            PackedArg::Str(s) => ArgValue::Str(s.as_str().to_string()),
        }
    }
}

/// Most arguments a packed event holds.
const PACKED_ARGS: usize = 6;

/// An event with shared or literal labels: no heap pieces of its own. Its
/// argument keys are the literals `keys`, naming the first of `values`.
struct PackedEvent {
    ts_us: u64,
    track: TrackId,
    lane: u32,
    kind: EventKind,
    cat: Label,
    name: Label,
    keys: &'static [&'static str],
    values: [PackedArg; PACKED_ARGS],
}

impl PackedEvent {
    fn to_event(&self) -> TimelineEvent {
        TimelineEvent {
            track: self.track,
            lane: self.lane,
            cat: self.cat.as_str().to_string(),
            name: self.name.as_str().to_string(),
            ts_us: self.ts_us,
            kind: self.kind.clone(),
            args: (self.keys.iter().zip(&self.values))
                .map(|(key, value)| (key.to_string(), value.expand()))
                .collect(),
        }
    }
}

/// Which of a shard's three rings an entry went into.
#[derive(Clone, Copy, PartialEq)]
enum Ring {
    Tasks,
    Packed,
    Events,
}

/// One shard: packed task spans, packed events and full events in a ring
/// each, holding `capacity` entries between them. `runs` is the recording
/// order across the three, run-length encoded — "n entries of this ring,
/// then m of that one" — which is all eviction (oldest entry first,
/// whichever ring it is in) and the ordered read-out need.
struct ShardBuf {
    tasks: VecDeque<TaskSpan>,
    packed: VecDeque<PackedEvent>,
    events: VecDeque<TimelineEvent>,
    runs: VecDeque<(Ring, usize)>,
    capacity: usize,
}

impl ShardBuf {
    fn len(&self) -> usize {
        self.tasks.len() + self.packed.len() + self.events.len()
    }

    /// Makes room for one entry of `ring` and notes it in the recording
    /// order; the caller pushes the entry. Returns whether the oldest
    /// entry was evicted to make the room.
    fn admit(&mut self, ring: Ring) -> bool {
        let evict = self.len() >= self.capacity;
        if evict {
            let (oldest, left) = self
                .runs
                .front_mut()
                .expect("a full shard has a recording order");
            match oldest {
                Ring::Tasks => {
                    self.tasks.pop_front();
                }
                Ring::Packed => {
                    self.packed.pop_front();
                }
                Ring::Events => {
                    self.events.pop_front();
                }
            }
            *left -= 1;
            if *left == 0 {
                self.runs.pop_front();
            }
        }
        match self.runs.back_mut() {
            Some((newest, n)) if *newest == ring => *n += 1,
            _ => self.runs.push_back((ring, 1)),
        }
        evict
    }

    /// Appends every entry as a full event, in recording order.
    fn append_to(&self, out: &mut Vec<TimelineEvent>) {
        let mut tasks = self.tasks.iter();
        let mut packed = self.packed.iter();
        let mut events = self.events.iter();
        for &(ring, n) in &self.runs {
            match ring {
                Ring::Tasks => out.extend(tasks.by_ref().take(n).map(TaskSpan::to_event)),
                Ring::Packed => out.extend(packed.by_ref().take(n).map(PackedEvent::to_event)),
                Ring::Events => out.extend(events.by_ref().take(n).cloned()),
            }
        }
    }
}

struct Shard {
    buf: Mutex<ShardBuf>,
    dropped: AtomicU64,
}

impl Shard {
    /// Locks the shard with room made, and the order noted, for one more
    /// entry of `ring`, which the caller pushes.
    fn admit(&self, ring: Ring) -> MutexGuard<'_, ShardBuf> {
        let mut buf = lock(&self.buf);
        if buf.admit(ring) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf
    }
}

struct Track {
    name: String,
    lanes: Vec<(u32, String)>,
}

/// The shared telemetry hub: one epoch, one metrics registry, one sharded
/// event timeline.
pub struct TelemetryHub {
    epoch: Instant,
    registry: MetricsRegistry,
    shards: Vec<Shard>,
    tracks: Mutex<Vec<Track>>,
    recorder: OnceLock<Arc<FlightRecorder>>,
    tenants: OnceLock<Arc<TenantLedger>>,
    slo: OnceLock<Arc<SloEngine>>,
}

impl std::fmt::Debug for TelemetryHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHub")
            .field("shards", &self.shards.len())
            .field("events", &self.event_count())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for TelemetryHub {
    fn default() -> Self {
        Self::new()
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl TelemetryHub {
    /// Default hub: 16 shards of 4096 events each.
    pub fn new() -> Self {
        Self::with_config(16, 4096)
    }

    /// Hub with `shards` independent ring buffers of `capacity_per_shard`
    /// events each. Both values are clamped to at least 1.
    pub fn with_config(shards: usize, capacity_per_shard: usize) -> Self {
        let shards = shards.max(1);
        let capacity = capacity_per_shard.max(1);
        TelemetryHub {
            epoch: Instant::now(),
            registry: MetricsRegistry::new(),
            shards: (0..shards)
                .map(|_| Shard {
                    buf: Mutex::new(ShardBuf {
                        tasks: VecDeque::new(),
                        packed: VecDeque::new(),
                        events: VecDeque::with_capacity(capacity.min(1024)),
                        runs: VecDeque::new(),
                        capacity,
                    }),
                    dropped: AtomicU64::new(0),
                })
                .collect(),
            tracks: Mutex::new(Vec::new()),
            recorder: OnceLock::new(),
            tenants: OnceLock::new(),
            slo: OnceLock::new(),
        }
    }

    /// Install a [`FlightRecorder`]: from now on every recorded event is
    /// also written into its ring. Install-once — a second call returns
    /// `false` and leaves the first recorder in place. When no recorder
    /// is installed the hot path pays a single relaxed atomic load.
    pub fn install_flight_recorder(&self, recorder: Arc<FlightRecorder>) -> bool {
        self.recorder.set(recorder).is_ok()
    }

    /// The installed flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.get()
    }

    /// Install a [`TenantLedger`]: the agent and the memsim supervisor
    /// feed any installed ledger once per decision tick, and the HTTP
    /// server's `/tenants` route serves it. Install-once — a second call
    /// returns `false` and leaves the first ledger in place.
    pub fn install_tenant_ledger(&self, ledger: Arc<TenantLedger>) -> bool {
        self.tenants.set(ledger).is_ok()
    }

    /// The installed tenant ledger, if any.
    pub fn tenant_ledger(&self) -> Option<&Arc<TenantLedger>> {
        self.tenants.get()
    }

    /// Install an [`SloEngine`]: the agent and the memsim supervisor
    /// evaluate any installed engine once per decision tick, and the
    /// HTTP server's `/slo` route serves it. Install-once — a second
    /// call returns `false` and leaves the first engine in place.
    pub fn install_slo_engine(&self, engine: Arc<SloEngine>) -> bool {
        self.slo.set(engine).is_ok()
    }

    /// The installed SLO engine, if any.
    pub fn slo_engine(&self) -> Option<&Arc<SloEngine>> {
        self.slo.get()
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Microseconds elapsed since the hub was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Convert an [`Instant`] to microseconds on the hub clock (0 if it
    /// predates the epoch).
    pub fn timestamp_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Register (or look up) a track by name and return its id.
    pub fn register_track(&self, name: &str) -> TrackId {
        let mut tracks = lock(&self.tracks);
        if let Some(idx) = tracks.iter().position(|t| t.name == name) {
            return TrackId(idx as u32);
        }
        tracks.push(Track {
            name: name.to_string(),
            lanes: Vec::new(),
        });
        TrackId((tracks.len() - 1) as u32)
    }

    /// Give lane `lane` of `track` a display name in the exported trace.
    pub fn set_lane_name(&self, track: TrackId, lane: u32, name: &str) {
        let mut tracks = lock(&self.tracks);
        if let Some(t) = tracks.get_mut(track.0 as usize) {
            if let Some(entry) = t.lanes.iter_mut().find(|(l, _)| *l == lane) {
                entry.1 = name.to_string();
            } else {
                t.lanes.push((lane, name.to_string()));
            }
        }
    }

    /// Record an event into the shard selected by `shard_hint % shards`.
    /// Writers with distinct hints (e.g. worker indices) hit distinct
    /// shards and do not contend. When a shard is full its **oldest**
    /// event is evicted (and counted in [`dropped`](Self::dropped)).
    pub fn record(&self, shard_hint: usize, event: TimelineEvent) {
        if let Some(rec) = self.recorder.get() {
            rec.log(&event);
        }
        let shard = &self.shards[shard_hint % self.shards.len()];
        shard.admit(Ring::Events).events.push_back(event);
    }

    /// Record the span of one executed task: exactly
    /// `record_span(shard_hint, track, lane, "task", name, ts_us, dur_us,
    /// [("node", U64(node)), ("panicked", Bool(true)) if panicked])`,
    /// but kept packed — no allocation — when the name is at most
    /// [`TASK_NAME_INLINE`] bytes. An installed flight recorder is handed
    /// the expanded event, as for any other record.
    #[allow(clippy::too_many_arguments)]
    pub fn record_task_span(
        &self,
        shard_hint: usize,
        track: TrackId,
        lane: u32,
        name: &str,
        ts_us: u64,
        dur_us: u64,
        node: u64,
        panicked: bool,
    ) {
        match TaskSpan::pack(track, lane, name, ts_us, dur_us, node, panicked) {
            Some(span) => {
                if let Some(rec) = self.recorder.get() {
                    rec.log(&span.to_event());
                }
                let shard = &self.shards[shard_hint % self.shards.len()];
                shard.admit(Ring::Tasks).tasks.push_back(span);
            }
            None => self.record(
                shard_hint,
                task_span_event(track, lane, name, ts_us, dur_us, node, panicked),
            ),
        }
    }

    /// Convenience: record a completed span.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        shard_hint: usize,
        track: TrackId,
        lane: u32,
        cat: &str,
        name: &str,
        ts_us: u64,
        dur_us: u64,
        args: Vec<(String, ArgValue)>,
    ) {
        self.record(
            shard_hint,
            TimelineEvent {
                track,
                lane,
                cat: cat.to_string(),
                name: name.to_string(),
                ts_us,
                kind: EventKind::Span { dur_us },
                args,
            },
        );
    }

    /// Convenience: record an instant event at the current time.
    pub fn record_instant(
        &self,
        shard_hint: usize,
        track: TrackId,
        lane: u32,
        cat: &str,
        name: &str,
        args: Vec<(String, ArgValue)>,
    ) {
        let ts_us = self.now_us();
        self.record(
            shard_hint,
            TimelineEvent {
                track,
                lane,
                cat: cat.to_string(),
                name: name.to_string(),
                ts_us,
                kind: EventKind::Instant,
                args,
            },
        );
    }

    /// Convenience: record an instant event at an explicit hub-clock
    /// timestamp (simulators map simulated seconds onto the hub clock,
    /// so "now" is not always the right time).
    #[allow(clippy::too_many_arguments)]
    pub fn record_instant_at(
        &self,
        shard_hint: usize,
        track: TrackId,
        lane: u32,
        cat: &str,
        name: &str,
        ts_us: u64,
        args: Vec<(String, ArgValue)>,
    ) {
        self.record(
            shard_hint,
            TimelineEvent {
                track,
                lane,
                cat: cat.to_string(),
                name: name.to_string(),
                ts_us,
                kind: EventKind::Instant,
                args,
            },
        );
    }

    /// Record an event whose labels are literals or shared strings, with at
    /// most six arguments (checked at compile time), `keys[i]` naming
    /// `values[i]`: exactly `record(shard_hint, event)` for the event with
    /// these fields, each label and key copied into a `String` and each
    /// [`PackedArg`] expanded to its [`ArgValue`], but kept packed — no
    /// allocation. An installed flight recorder is handed the expanded
    /// event, as for any other record.
    #[allow(clippy::too_many_arguments)]
    pub fn record_packed<const N: usize>(
        &self,
        shard_hint: usize,
        track: TrackId,
        lane: u32,
        cat: impl Into<Label>,
        name: impl Into<Label>,
        ts_us: u64,
        kind: EventKind,
        keys: &'static [&'static str; N],
        values: [PackedArg; N],
    ) {
        const {
            assert!(
                N <= PACKED_ARGS,
                "a packed event holds at most six arguments"
            )
        };
        let mut slots = [const { PackedArg::Bool(false) }; PACKED_ARGS];
        for (slot, value) in slots.iter_mut().zip(values) {
            *slot = value;
        }
        let event = PackedEvent {
            ts_us,
            track,
            lane,
            kind,
            cat: cat.into(),
            name: name.into(),
            keys,
            values: slots,
        };
        if let Some(rec) = self.recorder.get() {
            rec.log(&event.to_event());
        }
        let shard = &self.shards[shard_hint % self.shards.len()];
        shard.admit(Ring::Packed).packed.push_back(event);
    }

    /// Merge every shard into one timeline sorted by timestamp.
    pub fn events(&self) -> Vec<TimelineEvent> {
        let mut all: Vec<TimelineEvent> = Vec::with_capacity(self.event_count());
        for shard in &self.shards {
            lock(&shard.buf).append_to(&mut all);
        }
        all.sort_by_key(|e| e.ts_us);
        all
    }

    /// Current number of buffered events across all shards.
    pub fn event_count(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.buf).len()).sum()
    }

    /// Total events evicted because a shard overflowed.
    pub fn dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Registered track names, indexed by [`TrackId`].
    pub(crate) fn track_table(&self) -> Vec<(String, Vec<(u32, String)>)> {
        lock(&self.tracks)
            .iter()
            .map(|t| (t.name.clone(), t.lanes.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn instant(name: &str, ts_us: u64) -> TimelineEvent {
        TimelineEvent {
            track: TrackId(0),
            lane: 0,
            cat: "test".to_string(),
            name: name.to_string(),
            ts_us,
            kind: EventKind::Instant,
            args: Vec::new(),
        }
    }

    #[test]
    fn tracks_dedupe_by_name() {
        let hub = TelemetryHub::new();
        let a = hub.register_track("runtime:a");
        let b = hub.register_track("agent");
        let a2 = hub.register_track("runtime:a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(hub.track_table()[a.0 as usize].0, "runtime:a");
    }

    #[test]
    fn ring_keeps_newest_drops_oldest() {
        let hub = TelemetryHub::with_config(1, 3);
        for i in 0..10u64 {
            hub.record(0, instant(&format!("e{}", i), i));
        }
        let events = hub.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["e7", "e8", "e9"]);
        assert_eq!(hub.dropped(), 7);
    }

    #[test]
    fn overflow_conserves_event_counts() {
        // Satellite invariant: nothing is silently lost — every recorded
        // event is either still buffered or counted as dropped, on every
        // shard independently.
        let hub = TelemetryHub::with_config(3, 5);
        const RECORDED: u64 = 100;
        for i in 0..RECORDED {
            hub.record(i as usize, instant(&format!("e{}", i), i));
        }
        assert_eq!(hub.event_count() as u64 + hub.dropped(), RECORDED);
        // Survivors are exactly the newest per shard, still sorted.
        let events = hub.events();
        assert_eq!(events.len(), 15);
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert!(events.iter().all(|e| e.ts_us >= RECORDED - 15));
    }

    #[test]
    fn installed_flight_recorder_sees_every_event_even_evicted_ones() {
        use crate::recorder::FlightRecorder;
        let hub = TelemetryHub::with_config(1, 2);
        let rec = Arc::new(FlightRecorder::new(64));
        assert!(hub.install_flight_recorder(Arc::clone(&rec)));
        // Second install is rejected, first stays.
        assert!(!hub.install_flight_recorder(Arc::new(FlightRecorder::new(1))));
        for i in 0..10u64 {
            hub.record(0, instant(&format!("e{}", i), i));
        }
        // The hub ring kept only 2, but the recorder logged all 10.
        assert_eq!(hub.event_count(), 2);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(hub.flight_recorder().unwrap().len(), 10);
    }

    #[test]
    fn events_merge_sorted_across_shards() {
        let hub = TelemetryHub::with_config(4, 64);
        hub.record(2, instant("late", 300));
        hub.record(0, instant("early", 100));
        hub.record(3, instant("mid", 200));
        let names: Vec<String> = hub.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["early", "mid", "late"]);
    }

    #[test]
    fn concurrent_writers_lose_nothing_below_capacity() {
        // The acceptance criterion for the hot path: >= 8 threads
        // recording concurrently, each into its own shard, with no lost
        // events while under capacity.
        const THREADS: usize = 8;
        const PER_THREAD: usize = 500;
        let hub = Arc::new(TelemetryHub::with_config(THREADS, PER_THREAD));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        hub.record(
                            t,
                            instant(&format!("t{}e{}", t, i), (t * PER_THREAD + i) as u64),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hub.event_count(), THREADS * PER_THREAD);
        assert_eq!(hub.dropped(), 0);
        assert_eq!(hub.events().len(), THREADS * PER_THREAD);
    }

    #[test]
    fn timestamp_helpers_are_monotonic_on_hub_clock() {
        let hub = TelemetryHub::new();
        let t0 = hub.now_us();
        let later = Instant::now();
        let t1 = hub.timestamp_us(later);
        assert!(t1 >= t0);
        // An instant before the epoch clamps to 0 rather than panicking:
        // hub.epoch predates hub2's epoch because hub2 is created later.
        let hub2 = TelemetryHub::new();
        assert_eq!(hub2.timestamp_us(hub.epoch), 0);
    }
}
