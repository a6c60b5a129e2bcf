//! Stand-in for `crossbeam` in the offline benchmark build: the parts of
//! `sync`, `channel` and `deque` the layer crates use, built from
//! `Mutex`/`Condvar`/`VecDeque`. The deques are locked, not lock-free, so
//! runtime numbers measured on this build say nothing about the real crate.

pub mod channel;
pub mod deque;
pub mod sync;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Every structure here stays valid at each step of an update, so a panic in
/// another holder is no reason to fail.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
