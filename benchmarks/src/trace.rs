//! The harness's span recorder. Spans are recorded around the calls the
//! benchmark makes into a layer crate (never inside one), kept in memory,
//! and written out as JSON when the run ends.
//!
//! Because `run_supervised`, `run_logged` and `Agent::tick` are single calls
//! from outside, a traced round also *replays* the work it handed the top
//! layer against the lower layers' public entry points; each replayed call
//! is recorded as a child of the call it came from (`replay: true`). A
//! layer's self time is its spans' time minus the time their children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The round (or tick) the span belongs to.
    pub op: u64,
    pub replay: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Record nothing and read no clock: the untraced run.
    Off,
    /// Record only root spans (one per round): the baseline the tracing
    /// overhead is measured against.
    Roots,
    /// Record every span and replay the lower layers.
    Full,
}

pub struct Tracer {
    epoch: Instant,
    pub depth: Depth,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(depth: Depth) -> Self {
        Tracer {
            epoch: Instant::now(),
            depth,
            spans: Vec::new(),
        }
    }

    /// Whether rounds should replay their inputs against the lower layers.
    pub fn replays(&self) -> bool {
        self.depth == Depth::Full
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` (and no clock read) when this depth skips it.
    pub fn begin(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
    ) -> Option<SpanId> {
        self.begin_kind(layer, name, parent, op, false)
    }

    fn begin_kind(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        replay: bool,
    ) -> Option<SpanId> {
        let recorded = match self.depth {
            Depth::Off => false,
            Depth::Roots => parent.is_none(),
            Depth::Full => true,
        };
        if !recorded {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            replay,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span and returns the span's id with the result.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (Option<SpanId>, T) {
        let id = self.begin(layer, name, parent, op);
        let out = f();
        self.end(id);
        (id, out)
    }

    /// A replayed call: work repeated after the fact to attribute the
    /// parent's time to a lower layer. Only call when [`Tracer::replays`].
    pub fn replay<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (Option<SpanId>, T) {
        let id = self.begin_kind(layer, name, parent, op, true);
        let out = f();
        self.end(id);
        (id, out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in nanoseconds: each span's duration minus what
    /// its children cover (capped at the span's own duration, since a replay
    /// can run slower than the original call did).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(*covered);
        }
        out
    }

    /// The share of the root spans' (rounds') time that their direct
    /// children cover: how much of a round is attributed below its top call.
    pub fn root_coverage(&self) -> f64 {
        let is_root = |id: SpanId| self.spans[id].parent.is_none();
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(is_root))
            .map(Span::dur_ns)
            .sum();
        children as f64 / roots.max(1) as f64
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"replay\":{}}}",
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.replay
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
