//! The scheduler's queues: a `Mutex<VecDeque>` each — locked, not
//! lock-free (the crate forbids `unsafe`, so no Chase–Lev). [`Worker`] is
//! the owner end of a LIFO deque whose [`Stealer`]s take from the other
//! end; [`Injector`] is a shared FIFO.

use coop_telemetry::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// A batch is about half the victim's queue, capped.
const MAX_BATCH: usize = 32;

/// Takes a batch from the front of `from`, keeps the first task for the
/// caller and pushes the rest onto `dest`. `from` is unlocked before `dest`
/// is locked, so two workers stealing from each other cannot deadlock.
fn batch_and_pop<T>(from: &Mutex<VecDeque<T>>, dest: &Worker<T>) -> Option<T> {
    let mut batch: VecDeque<T> = {
        let mut q = from.lock();
        let n = q.len().div_ceil(2).min(MAX_BATCH);
        q.drain(..n).collect()
    };
    let first = batch.pop_front()?;
    dest.0.lock().extend(batch);
    Some(first)
}

/// Owner end of a LIFO deque: the owner pushes and pops at the back,
/// stealers take from the front.
pub(crate) struct Worker<T>(Arc<Mutex<VecDeque<T>>>);

pub(crate) struct Stealer<T>(Arc<Mutex<VecDeque<T>>>);

impl<T> Worker<T> {
    pub(crate) fn new_lifo() -> Self {
        Worker(Arc::new(Mutex::new(VecDeque::new())))
    }

    pub(crate) fn stealer(&self) -> Stealer<T> {
        Stealer(Arc::clone(&self.0))
    }

    pub(crate) fn push(&self, task: T) {
        self.0.lock().push_back(task);
    }

    pub(crate) fn pop(&self) -> Option<T> {
        self.0.lock().pop_back()
    }
}

impl<T> Stealer<T> {
    pub(crate) fn steal(&self) -> Option<T> {
        self.0.lock().pop_front()
    }

    pub(crate) fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Option<T> {
        batch_and_pop(&self.0, dest)
    }
}

/// Shared FIFO queue every worker may push to and steal from.
pub(crate) struct Injector<T>(Mutex<VecDeque<T>>);

impl<T> Injector<T> {
    pub(crate) fn new() -> Self {
        Injector(Mutex::new(VecDeque::new()))
    }

    pub(crate) fn push(&self, task: T) {
        self.0.lock().push_back(task);
    }

    pub(crate) fn steal(&self) -> Option<T> {
        self.0.lock().pop_front()
    }

    pub(crate) fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Option<T> {
        batch_and_pop(&self.0, dest)
    }
}
