//! Causal task tracing: the shared span-event schema and the
//! [`TraceAssembler`] that reconstructs per-task critical paths.
//!
//! Every traced task carries a **trace id** (inherited from its spawning
//! parent; root tasks use their own task id) and emits typed *hop* events
//! on the timeline as it moves through the system:
//!
//! | hop            | recorded when                              | extra args |
//! |----------------|--------------------------------------------|------------|
//! | `spawned`      | the task is created                        | `parent`, `task_name` |
//! | `deps_released`| one dependency event satisfies             | `event` |
//! | `enqueued`     | the task lands on a ready queue            | `node` (absent = global queue) |
//! | `stolen`       | a worker pops it from a non-local source   | `from`, `to`, `tier` |
//! | `started`      | a worker begins executing the body         | `node`, `worker` |
//! | `finished`     | the body returns                           | `node` |
//! | `panicked`     | the body panics (contained)                | `node` |
//!
//! All hops share category [`TRACE_CAT`] and the args `task` (the task's
//! id within its runtime) and `trace` (the causal-tree id). Hops are
//! recorded through the hub's per-worker shards, so the hot path stays
//! exactly as lock-free as ordinary task spans. Simulated runs (memsim's
//! supervisor) emit the same schema, so fleet scenarios assemble with the
//! same code.
//!
//! The assembler tolerates truncated traces: a shard ring that overflowed
//! may have evicted a task's earliest hops, in which case the task is
//! flagged [`TaskTrace::truncated`] and the surviving suffix is still
//! ordered and timed.

use crate::export::{push_metadata, push_separator, push_trace_event, Phase};
use crate::timeline::{ArgValue, EventKind, TelemetryHub, TimelineEvent, TrackId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Timeline category shared by every causal-trace hop event.
pub const TRACE_CAT: &str = "trace";

/// Hop names of the causal span schema, in canonical lifecycle order.
pub mod hop {
    /// Task created (`parent` arg when spawned from another task).
    pub const SPAWNED: &str = "spawned";
    /// One dependency event satisfied (`event` arg).
    pub const DEPS_RELEASED: &str = "deps_released";
    /// Task pushed onto a ready queue (`node` arg when hinted).
    pub const ENQUEUED: &str = "enqueued";
    /// Task popped from a non-local source (`from`, `to`, `tier` args).
    pub const STOLEN: &str = "stolen";
    /// Body execution began (`node`, `worker` args).
    pub const STARTED: &str = "started";
    /// Body returned normally.
    pub const FINISHED: &str = "finished";
    /// Body panicked (contained by the runtime).
    pub const PANICKED: &str = "panicked";
}

/// Canonical ordering index of a hop name, used to break timestamp ties
/// (hops recorded within the same microsecond still sort causally).
fn hop_order(name: &str) -> u8 {
    match name {
        hop::SPAWNED => 0,
        hop::DEPS_RELEASED => 1,
        hop::ENQUEUED => 2,
        hop::STOLEN => 3,
        hop::STARTED => 4,
        hop::FINISHED | hop::PANICKED => 5,
        _ => 6,
    }
}

fn arg_u64(args: &[(String, ArgValue)], key: &str) -> Option<u64> {
    args.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            ArgValue::U64(n) => Some(*n),
            _ => None,
        })
}

fn arg_str<'a>(args: &'a [(String, ArgValue)], key: &str) -> Option<&'a str> {
    args.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            ArgValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

/// One hop of a task's causal chain.
#[derive(Debug, Clone)]
pub struct TraceHop {
    /// Hop name (one of the [`hop`] constants).
    pub kind: String,
    /// Hub-clock timestamp, microseconds.
    pub ts_us: u64,
    /// Wall time until the next hop (0 for the last hop).
    pub wall_us: u64,
    /// Node attribution: where the task was headed (`enqueued`), landed
    /// (`stolen`/`started`/`finished`), or `None` when unplaced.
    pub node: Option<u64>,
    /// Steal victim node (`stolen` hops only).
    pub from_node: Option<u64>,
    /// Priority tier of a steal (`stolen` hops only).
    pub tier: Option<String>,
    /// Dependency event id (`deps_released` hops only).
    pub event: Option<u64>,
}

/// The assembled causal chain of one task.
#[derive(Debug, Clone)]
pub struct TaskTrace {
    /// Track the task's hops were recorded on (one per runtime).
    pub track: TrackId,
    /// Task id within its runtime.
    pub task: u64,
    /// Causal-tree id (root task's id).
    pub trace_id: u64,
    /// Task name, when the `spawned` hop survived.
    pub name: Option<String>,
    /// Spawning task's id, when spawned from another task.
    pub parent: Option<u64>,
    /// Hops in causal order, wall times filled in.
    pub hops: Vec<TraceHop>,
    /// True when the earliest hops were evicted by ring overflow (the
    /// chain does not begin with `spawned`).
    pub truncated: bool,
}

impl TaskTrace {
    /// The hop of the given kind, if present.
    pub fn hop(&self, kind: &str) -> Option<&TraceHop> {
        self.hops.iter().find(|h| h.kind == kind)
    }

    /// Total wall time spawn (or first surviving hop) → last hop.
    pub fn total_wall_us(&self) -> u64 {
        match (self.hops.first(), self.hops.last()) {
            (Some(a), Some(b)) => b.ts_us.saturating_sub(a.ts_us),
            _ => 0,
        }
    }

    /// `Some((from, to))` when the task crossed NUMA nodes via a steal.
    pub fn cross_node(&self) -> Option<(u64, u64)> {
        self.hops.iter().find_map(|h| {
            if h.kind != hop::STOLEN {
                return None;
            }
            match (h.from_node, h.node) {
                (Some(f), Some(t)) if f != t => Some((f, t)),
                _ => None,
            }
        })
    }

    /// True when the chain ends in `finished` or `panicked`.
    pub fn completed(&self) -> bool {
        self.hops
            .last()
            .map(|h| h.kind == hop::FINISHED || h.kind == hop::PANICKED)
            .unwrap_or(false)
    }

    /// Render the per-hop view: one line per hop with wall time and node
    /// attribution, plus a cross-node summary line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let name = self.name.as_deref().unwrap_or("?");
        out.push_str(&format!(
            "task {} \"{}\" (trace {}{}){}\n",
            self.task,
            name,
            self.trace_id,
            match self.parent {
                Some(p) => format!(", parent {p}"),
                None => ", root".to_string(),
            },
            if self.truncated { " [truncated]" } else { "" },
        ));
        for h in &self.hops {
            let mut detail = String::new();
            if let Some(e) = h.event {
                detail.push_str(&format!(" event={e}"));
            }
            if h.kind == hop::STOLEN {
                if let (Some(f), Some(t)) = (h.from_node, h.node) {
                    detail.push_str(&format!(" node{f}->node{t}"));
                }
                if let Some(tier) = &h.tier {
                    detail.push_str(&format!(" tier={tier}"));
                }
            } else if let Some(n) = h.node {
                detail.push_str(&format!(" node={n}"));
            }
            out.push_str(&format!(
                "  {:>10}us  {:<13} +{}us{}\n",
                h.ts_us, h.kind, h.wall_us, detail
            ));
        }
        match self.cross_node() {
            Some((f, t)) => out.push_str(&format!(
                "  cross-node: yes (stolen from node {f} to node {t})\n"
            )),
            None => out.push_str("  cross-node: no\n"),
        }
        out.push_str(&format!("  total: {}us\n", self.total_wall_us()));
        out
    }
}

/// Reconstructs per-task causal chains from the merged timeline.
#[derive(Debug, Default)]
pub struct TraceAssembler {
    tasks: BTreeMap<(u32, u64), TaskTrace>,
}

impl TraceAssembler {
    /// Assemble from a hub's current timeline.
    pub fn from_hub(hub: &TelemetryHub) -> Self {
        Self::from_events(&hub.events())
    }

    /// Assemble from an explicit event slice (category-filters to
    /// [`TRACE_CAT`] itself, so the full merged timeline can be passed).
    pub fn from_events(events: &[TimelineEvent]) -> Self {
        let mut tasks: BTreeMap<(u32, u64), TaskTrace> = BTreeMap::new();
        for ev in events {
            if ev.cat != TRACE_CAT {
                continue;
            }
            let Some(task) = arg_u64(&ev.args, "task") else {
                continue;
            };
            let trace_id = arg_u64(&ev.args, "trace").unwrap_or(task);
            let entry = tasks
                .entry((ev.track.0, task))
                .or_insert_with(|| TaskTrace {
                    track: ev.track,
                    task,
                    trace_id,
                    name: None,
                    parent: None,
                    hops: Vec::new(),
                    truncated: false,
                });
            if ev.name == hop::SPAWNED {
                entry.parent = arg_u64(&ev.args, "parent");
                if let Some(n) = arg_str(&ev.args, "task_name") {
                    entry.name = Some(n.to_string());
                }
            }
            entry.hops.push(TraceHop {
                kind: ev.name.clone(),
                ts_us: ev.ts_us,
                wall_us: 0,
                node: arg_u64(&ev.args, "node").or_else(|| arg_u64(&ev.args, "to")),
                from_node: arg_u64(&ev.args, "from"),
                tier: arg_str(&ev.args, "tier").map(String::from),
                event: arg_u64(&ev.args, "event"),
            });
        }
        for t in tasks.values_mut() {
            t.hops.sort_by_key(|h| (h.ts_us, hop_order(&h.kind)));
            for i in 0..t.hops.len().saturating_sub(1) {
                t.hops[i].wall_us = t.hops[i + 1].ts_us.saturating_sub(t.hops[i].ts_us);
            }
            t.truncated = t
                .hops
                .first()
                .map(|h| h.kind != hop::SPAWNED)
                .unwrap_or(false);
        }
        TraceAssembler { tasks }
    }

    /// All assembled tasks, ordered by (track, task id).
    pub fn tasks(&self) -> impl Iterator<Item = &TaskTrace> {
        self.tasks.values()
    }

    /// Number of assembled tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no trace hops were found.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Tasks whose id or name matches `query`: an exact id (`"7"` or
    /// `"task7"`), or a case-sensitive name substring.
    pub fn find(&self, query: &str) -> Vec<&TaskTrace> {
        let id = query
            .strip_prefix("task")
            .unwrap_or(query)
            .parse::<u64>()
            .ok();
        self.tasks
            .values()
            .filter(|t| {
                id.map(|i| t.task == i).unwrap_or(false)
                    || t.name
                        .as_deref()
                        .map(|n| n.contains(query))
                        .unwrap_or(false)
            })
            .collect()
    }

    /// The critical path of `task`: the chain of ancestors (via `parent`
    /// links on the same track) from the root down to the task itself.
    /// Stops at a missing ancestor (evicted from the ring).
    pub fn critical_path(&self, task: &TaskTrace) -> Vec<&TaskTrace> {
        let mut chain: Vec<&TaskTrace> = Vec::new();
        let mut cursor = self.tasks.get(&(task.track.0, task.task));
        while let Some(t) = cursor {
            // A malformed parent cycle cannot loop forever: bail once the
            // chain is longer than the task table.
            if chain.len() > self.tasks.len() {
                break;
            }
            chain.push(t);
            cursor = t.parent.and_then(|p| self.tasks.get(&(t.track.0, p)));
        }
        chain.reverse();
        chain
    }

    /// Export the assembled chains as Perfetto/Chrome trace JSON: each
    /// causal tree (trace id) becomes a "process", each task a "thread",
    /// and each hop a complete span lasting until the next hop — so the
    /// per-hop wall time is directly visible on the timeline.
    pub fn to_perfetto_json(&self) -> String {
        let mut out = String::with_capacity(self.tasks.len() * 256 + 128);
        out.push_str("{\"traceEvents\":[");
        let mut named_pids = BTreeSet::new();
        for t in self.tasks.values() {
            let pid = t.trace_id + 1;
            if named_pids.insert(pid) {
                push_separator(&mut out);
                let label = format!("trace {}", t.trace_id);
                push_metadata(&mut out, "process_name", pid, None, &label);
            }
            push_separator(&mut out);
            let label = format!("task {} {}", t.task, t.name.as_deref().unwrap_or("?"));
            push_metadata(&mut out, "thread_name", pid, Some(t.task), &label);
            for h in &t.hops {
                let number = |key, n: Option<u64>| n.map(|n| (key, ArgValue::U64(n)));
                let tier = h.tier.clone().map(|tier| ("tier", ArgValue::Str(tier)));
                let args: Vec<_> = [
                    number("node", h.node),
                    number("from", h.from_node),
                    tier,
                    number("event", h.event),
                ]
                .into_iter()
                .flatten()
                .collect();
                let span = EventKind::Span {
                    dur_us: h.wall_us.max(1),
                };
                let phase = Phase::Event(TRACE_CAT, h.ts_us, &span);
                push_separator(&mut out);
                push_trace_event(&mut out, &h.kind, phase, pid, Some(t.task), &args);
            }
        }
        let tasks = self.tasks.len();
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"metadata\":{{\"assembled_tasks\":{tasks}}}}}"
        );
        out
    }
}

/// Helper for producers: build the common arg vector every hop carries.
pub fn hop_args(task: u64, trace_id: u64) -> Vec<(String, ArgValue)> {
    vec![
        ("task".to_string(), ArgValue::U64(task)),
        ("trace".to_string(), ArgValue::U64(trace_id)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TraceAssembler {
        /// Look up one task by id (searches every track).
        fn task(&self, id: u64) -> Option<&TaskTrace> {
            self.tasks
                .iter()
                .find(|((_, t), _)| *t == id)
                .map(|(_, v)| v)
        }
    }

    fn hop_event(
        task: u64,
        name: &str,
        ts_us: u64,
        extra: Vec<(String, ArgValue)>,
    ) -> TimelineEvent {
        let mut args = hop_args(task, 1);
        args.extend(extra);
        TimelineEvent {
            track: TrackId(0),
            lane: 0,
            cat: TRACE_CAT.to_string(),
            name: name.to_string(),
            ts_us,
            kind: EventKind::Instant,
            args,
        }
    }

    fn full_chain() -> Vec<TimelineEvent> {
        vec![
            hop_event(
                2,
                hop::SPAWNED,
                10,
                vec![
                    ("parent".to_string(), ArgValue::U64(1)),
                    ("task_name".to_string(), ArgValue::Str("consume".into())),
                ],
            ),
            hop_event(
                2,
                hop::DEPS_RELEASED,
                20,
                vec![("event".to_string(), ArgValue::U64(4))],
            ),
            hop_event(
                2,
                hop::ENQUEUED,
                25,
                vec![("node".to_string(), ArgValue::U64(0))],
            ),
            hop_event(
                2,
                hop::STOLEN,
                40,
                vec![
                    ("from".to_string(), ArgValue::U64(0)),
                    ("to".to_string(), ArgValue::U64(2)),
                    ("tier".to_string(), ArgValue::Str("normal".into())),
                ],
            ),
            hop_event(
                2,
                hop::STARTED,
                45,
                vec![
                    ("node".to_string(), ArgValue::U64(2)),
                    ("worker".to_string(), ArgValue::U64(5)),
                ],
            ),
            hop_event(
                2,
                hop::FINISHED,
                95,
                vec![("node".to_string(), ArgValue::U64(2))],
            ),
        ]
    }

    #[test]
    fn assembles_causal_chain_in_order() {
        // Shuffle the input: assembly must not depend on arrival order.
        let mut events = full_chain();
        events.reverse();
        let asm = TraceAssembler::from_events(&events);
        assert_eq!(asm.len(), 1);
        let t = asm.task(2).unwrap();
        let kinds: Vec<&str> = t.hops.iter().map(|h| h.kind.as_str()).collect();
        assert_eq!(
            kinds,
            [
                hop::SPAWNED,
                hop::DEPS_RELEASED,
                hop::ENQUEUED,
                hop::STOLEN,
                hop::STARTED,
                hop::FINISHED
            ]
        );
        assert_eq!(t.name.as_deref(), Some("consume"));
        assert_eq!(t.parent, Some(1));
        assert_eq!(t.trace_id, 1);
        assert!(!t.truncated);
        assert!(t.completed());
        // Wall times are deltas to the next hop.
        assert_eq!(t.hops[0].wall_us, 10); // spawned -> deps_released
        assert_eq!(t.hops[3].wall_us, 5); // stolen -> started
        assert_eq!(t.hops[4].wall_us, 50); // started -> finished (execution)
        assert_eq!(t.total_wall_us(), 85);
        assert_eq!(t.cross_node(), Some((0, 2)));
    }

    #[test]
    fn same_timestamp_hops_sort_by_lifecycle_order() {
        let events = vec![
            hop_event(3, hop::STARTED, 50, Vec::new()),
            hop_event(3, hop::ENQUEUED, 50, Vec::new()),
            hop_event(3, hop::SPAWNED, 50, Vec::new()),
            hop_event(3, hop::FINISHED, 50, Vec::new()),
        ];
        let asm = TraceAssembler::from_events(&events);
        let kinds: Vec<&str> = asm
            .task(3)
            .unwrap()
            .hops
            .iter()
            .map(|h| h.kind.as_str())
            .collect();
        assert_eq!(
            kinds,
            [hop::SPAWNED, hop::ENQUEUED, hop::STARTED, hop::FINISHED]
        );
    }

    #[test]
    fn truncated_trace_is_flagged_but_still_usable() {
        // Ring overflow evicted spawned + deps_released.
        let events: Vec<TimelineEvent> = full_chain().into_iter().skip(2).collect();
        let asm = TraceAssembler::from_events(&events);
        let t = asm.task(2).unwrap();
        assert!(t.truncated);
        assert!(t.completed());
        assert_eq!(t.cross_node(), Some((0, 2)));
        assert_eq!(t.hops.len(), 4);
        assert!(t.to_text().contains("[truncated]"));
    }

    #[test]
    fn critical_path_follows_parent_links() {
        let mut events = full_chain();
        events.push(hop_event(1, hop::SPAWNED, 1, Vec::new()));
        events.push(hop_event(1, hop::FINISHED, 22, Vec::new()));
        let asm = TraceAssembler::from_events(&events);
        let leaf = asm.task(2).unwrap();
        let path: Vec<u64> = asm.critical_path(leaf).iter().map(|t| t.task).collect();
        assert_eq!(path, [1, 2]);
        // A missing ancestor stops the walk instead of panicking.
        let orphan_events = full_chain();
        let asm = TraceAssembler::from_events(&orphan_events);
        let path: Vec<u64> = asm
            .critical_path(asm.task(2).unwrap())
            .iter()
            .map(|t| t.task)
            .collect();
        assert_eq!(path, [2]);
    }

    #[test]
    fn find_matches_id_and_name() {
        let asm = TraceAssembler::from_events(&full_chain());
        assert_eq!(asm.find("2").len(), 1);
        assert_eq!(asm.find("task2").len(), 1);
        assert_eq!(asm.find("consume").len(), 1);
        assert!(asm.find("missing").is_empty());
    }

    #[test]
    fn text_view_shows_hops_and_attribution() {
        let asm = TraceAssembler::from_events(&full_chain());
        let text = asm.task(2).unwrap().to_text();
        assert!(text.contains("task 2 \"consume\""));
        assert!(text.contains("stolen"));
        assert!(text.contains("node0->node2"));
        assert!(text.contains("tier=normal"));
        assert!(text.contains("cross-node: yes (stolen from node 0 to node 2)"));
        assert!(text.contains("total: 85us"));
    }

    #[test]
    fn perfetto_export_is_valid_json_with_hop_spans() {
        let asm = TraceAssembler::from_events(&full_chain());
        let out = asm.to_perfetto_json();
        let parsed = crate::json::parse(&out).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().unwrap();
        // 1 process_name + 1 thread_name + 6 hop spans.
        assert_eq!(events.len(), 8);
        assert!(events
            .iter()
            .any(|e| e["name"] == "stolen" && e["args"]["from"] == 0));
        assert_eq!(parsed["metadata"]["assembled_tasks"], 1);
    }

    #[test]
    fn non_trace_events_are_ignored() {
        let mut events = full_chain();
        events.push(TimelineEvent {
            track: TrackId(0),
            lane: 1,
            cat: "task".to_string(),
            name: "consume".to_string(),
            ts_us: 45,
            kind: EventKind::Span { dur_us: 50 },
            args: Vec::new(),
        });
        let asm = TraceAssembler::from_events(&events);
        assert_eq!(asm.len(), 1);
        assert_eq!(asm.task(2).unwrap().hops.len(), 6);
    }
}
