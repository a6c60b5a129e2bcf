//! The workspace's locks: `std::sync` with poisoning ignored.
//!
//! `lock()` returns the guard directly and `Condvar::wait` takes
//! `&mut guard`. A panic in another holder is no reason to fail here: every
//! structure guarded by these locks stays valid at each step of an update
//! (counters, queues, state words), so the next holder simply carries on.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Duration;

/// A mutex whose `lock` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Holds the std guard in an `Option` so `Condvar::wait` can take it out and
/// put the re-acquired one back through a `&mut` borrow.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// A mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0
            .as_ref()
            .expect("guard is present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard is present outside Condvar::wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A condition variable for [`Mutex`] guards.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// A condition variable with no waiters.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Wakes one waiter, if there is one.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Releases the lock, waits for a notification and re-acquires it.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard
            .0
            .take()
            .expect("guard is present outside Condvar::wait");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// [`Condvar::wait`] bounded by `timeout`. Whether the wait timed out
    /// is not reported: no caller asks.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        let inner = guard
            .0
            .take()
            .expect("guard is present outside Condvar::wait");
        let (inner, _) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
    }
}

/// A reader-writer lock whose `read`/`write` never fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until exclusive access is held.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panic_while_holding_the_lock_does_not_poison_it() {
        let m = Arc::new(Mutex::new(1u32));
        let rw = Arc::new(RwLock::new(1u32));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let died = std::thread::spawn(move || {
            let _g = m2.lock();
            let _w = rw2.write();
            panic!("holder dies");
        })
        .join();
        assert!(died.is_err());
        *m.lock() += 1;
        *rw.write() += 1;
        assert_eq!((*m.lock(), *rw.read()), (2, 2));
        assert_eq!(Arc::try_unwrap(m).unwrap().into_inner(), 2);
    }

    #[test]
    fn condvar_hands_the_guard_back_after_a_wait() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waker = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *waker.0.lock() = true;
            waker.1.notify_all();
        });
        let mut ready = pair.0.lock();
        while !*ready {
            pair.1.wait_for(&mut ready, Duration::from_millis(50));
        }
        assert!(*ready);
        t.join().unwrap();
    }
}
