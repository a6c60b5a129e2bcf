use crate::lock;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// `Retry` is never produced by the locked queues; it exists because callers
/// match on it.
pub enum Steal<T> {
    Empty,
    Success(T),
    Retry,
}

/// As in `crossbeam`: a batch is about half the victim's queue, capped.
const MAX_BATCH: usize = 32;

/// Takes a batch from the front of `from`, keeps the first task for the
/// caller and pushes the rest onto `dest`. `from` is unlocked before `dest`
/// is locked, so two workers stealing from each other cannot deadlock.
fn batch_and_pop<T>(from: &Mutex<VecDeque<T>>, dest: &Worker<T>) -> Steal<T> {
    let mut batch: VecDeque<T> = {
        let mut q = lock(from);
        let n = q.len().div_ceil(2).min(MAX_BATCH);
        q.drain(..n).collect()
    };
    match batch.pop_front() {
        Some(first) => {
            lock(&dest.0).extend(batch);
            Steal::Success(first)
        }
        None => Steal::Empty,
    }
}

/// Owner end of a LIFO deque: the owner pushes and pops at the back,
/// stealers take from the front.
pub struct Worker<T>(Arc<Mutex<VecDeque<T>>>);

pub struct Stealer<T>(Arc<Mutex<VecDeque<T>>>);

impl<T> Worker<T> {
    pub fn new_lifo() -> Self {
        Worker(Arc::new(Mutex::new(VecDeque::new())))
    }

    pub fn stealer(&self) -> Stealer<T> {
        Stealer(Arc::clone(&self.0))
    }

    pub fn push(&self, task: T) {
        lock(&self.0).push_back(task);
    }

    pub fn pop(&self) -> Option<T> {
        lock(&self.0).pop_back()
    }
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer(Arc::clone(&self.0))
    }
}

impl<T> Stealer<T> {
    pub fn steal(&self) -> Steal<T> {
        match lock(&self.0).pop_front() {
            Some(t) => Steal::Success(t),
            None => Steal::Empty,
        }
    }

    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        batch_and_pop(&self.0, dest)
    }
}

/// Shared FIFO queue every worker may push to and steal from.
pub struct Injector<T>(Mutex<VecDeque<T>>);

impl<T> Injector<T> {
    pub fn new() -> Self {
        Injector(Mutex::new(VecDeque::new()))
    }

    pub fn push(&self, task: T) {
        lock(&self.0).push_back(task);
    }

    pub fn steal(&self) -> Steal<T> {
        match lock(&self.0).pop_front() {
            Some(t) => Steal::Success(t),
            None => Steal::Empty,
        }
    }

    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        batch_and_pop(&self.0, dest)
    }
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}
