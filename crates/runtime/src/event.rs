//! Events — the synchronization objects tasks depend on.
//!
//! Modeled on OCR's event objects: a task lists the events it depends on
//! and becomes ready when all of them are satisfied. Two kinds are
//! provided: a single-shot *once* event and a counted *latch* event that
//! becomes satisfied after `count` decrements (OCR's latch events, handy
//! for fan-in joins).
//!
//! An unsatisfied event owns its waiters: a task waiting on it lives in its
//! list until the satisfying decrement releases it. There is no graph beside
//! the events, so a task waiting on an event that nobody holds any more is
//! dropped, body and all, with the event's last handle.

use crate::task::Task;
use coop_telemetry::sync::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifier of an event within one runtime instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// The raw id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event{}", self.0)
    }
}

/// What kind of event an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Satisfied by a single `satisfy` call; satisfying twice is an error.
    Once,
    /// Satisfied when its counter reaches zero; each `satisfy` decrements.
    Latch {
        /// Initial count.
        count: u64,
    },
}

/// A handle to an event. Cheap to clone; all clones refer to the same
/// event.
#[derive(Clone)]
pub struct Event {
    pub(crate) state: Arc<EventState>,
}

/// One event: its countdown and the tasks waiting for it.
pub(crate) struct EventState {
    id: EventId,
    kind: EventKind,
    /// The runtime that created the event (`SchedState::runtime_id`); ids
    /// are per runtime, so only that runtime may wait on or satisfy it.
    pub(crate) runtime: u64,
    /// Remaining satisfactions needed: 1 for once-events, `count` for
    /// latches. 0 = satisfied.
    remaining: AtomicU64,
    /// Tasks to release when the event satisfies (see
    /// [`Event::push_waiter`]).
    pub(crate) waiters: Mutex<Vec<Waiter>>,
}

/// A task waiting in an event's list.
pub(crate) enum Waiter {
    /// Its only unsatisfied dependency is this event: no counter.
    Task(Task),
    /// It waits on several events, in each of their lists.
    Pending(Arc<PendingTask>),
}

/// A task waiting on several events. The decrement that drops `remaining`
/// to zero — and only that one — takes the task out and enqueues it, so no
/// two event locks are ever held at once.
pub(crate) struct PendingTask {
    pub task: Mutex<Option<Task>>,
    pub remaining: AtomicUsize,
}

impl Drop for EventState {
    /// A task owns its finish event, which owns the next task: a chain of
    /// unstarted tasks is a linked list, unlinked here with a worklist so
    /// that dropping a long one cannot overflow the stack.
    fn drop(&mut self) {
        let mut orphans = std::mem::take(&mut *self.waiters.lock());
        while let Some(waiter) = orphans.pop() {
            let task = match waiter {
                Waiter::Task(task) => Some(task),
                Waiter::Pending(pending) => {
                    Arc::into_inner(pending).and_then(|p| p.task.into_inner())
                }
            };
            if let Some(next) = task.and_then(|t| t.finish.and_then(|e| Arc::into_inner(e.state))) {
                orphans.append(&mut next.waiters.lock());
            }
        }
    }
}

impl Event {
    pub(crate) fn new(id: EventId, kind: EventKind, runtime: u64) -> Self {
        let initial = match kind {
            EventKind::Once => 1,
            EventKind::Latch { count } => count,
        };
        Event {
            state: Arc::new(EventState {
                id,
                kind,
                runtime,
                remaining: AtomicU64::new(initial),
                waiters: Mutex::new(Vec::new()),
            }),
        }
    }

    /// This event's id.
    pub fn id(&self) -> EventId {
        self.state.id
    }

    /// This event's kind.
    pub fn kind(&self) -> EventKind {
        self.state.kind
    }

    /// `true` once the event has been satisfied.
    pub fn is_satisfied(&self) -> bool {
        self.state.remaining.load(Ordering::Acquire) == 0
    }

    /// Adds `waiter` to the list unless the event is satisfied, re-checked
    /// under the list's lock (hands it back if so). The satisfying decrement
    /// takes the list under that lock after the count reads zero, so an
    /// added waiter is always released.
    /// Boxing the handed-back waiter would put an allocation on the spawn path.
    #[allow(clippy::result_large_err)]
    pub(crate) fn push_waiter(&self, waiter: Waiter) -> std::result::Result<(), Waiter> {
        let mut waiters = self.state.waiters.lock();
        if self.is_satisfied() {
            return Err(waiter);
        }
        waiters.push(waiter);
        Ok(())
    }

    /// Decrements the remaining count. Returns `Ok(true)` if this call
    /// satisfied the event, `Ok(false)` if more decrements are needed, and
    /// `Err(())` if the event was already satisfied.
    pub(crate) fn decrement(&self) -> std::result::Result<bool, ()> {
        self.state
            .remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .map(|before| before == 1)
            .map_err(drop)
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}({:?}, remaining={})",
            self.id(),
            self.kind(),
            self.state.remaining.load(Ordering::Relaxed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn once_event_satisfies_exactly_once() {
        let e = Event::new(EventId(1), EventKind::Once, 0);
        assert!(!e.is_satisfied());
        assert_eq!(e.decrement(), Ok(true));
        assert!(e.is_satisfied());
        assert_eq!(e.decrement(), Err(()));
    }

    #[test]
    fn latch_counts_down() {
        let e = Event::new(EventId(2), EventKind::Latch { count: 3 }, 0);
        assert_eq!(e.decrement(), Ok(false));
        assert_eq!(e.decrement(), Ok(false));
        assert!(!e.is_satisfied());
        assert_eq!(e.decrement(), Ok(true));
        assert!(e.is_satisfied());
        assert_eq!(e.decrement(), Err(()));
    }

    #[test]
    fn zero_latch_is_born_satisfied() {
        let e = Event::new(EventId(3), EventKind::Latch { count: 0 }, 0);
        assert!(e.is_satisfied());
        assert_eq!(e.decrement(), Err(()));
    }

    #[test]
    fn clones_share_state() {
        let e = Event::new(EventId(4), EventKind::Once, 0);
        let c = e.clone();
        assert_eq!(e.decrement(), Ok(true));
        assert!(c.is_satisfied());
        assert_eq!(c.id(), EventId(4));
    }

    #[test]
    fn concurrent_decrements_satisfy_once() {
        let e = Event::new(EventId(5), EventKind::Latch { count: 64 }, 0);
        let mut satisfied = 0;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let e = e.clone();
                    s.spawn(move || {
                        let mut wins = 0;
                        for _ in 0..8 {
                            if e.decrement() == Ok(true) {
                                wins += 1;
                            }
                        }
                        wins
                    })
                })
                .collect();
            for h in handles {
                satisfied += h.join().unwrap();
            }
        });
        assert_eq!(satisfied, 1, "exactly one decrement wins");
        assert!(e.is_satisfied());
    }
}
