use crate::lock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

struct Chan<T> {
    queue: Mutex<VecDeque<T>>,
    /// `None` = unbounded.
    cap: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
    senders: AtomicUsize,
    /// Receivers are not cloned by any caller, so there is one or none.
    receiver_alive: AtomicBool,
}

pub struct Sender<T>(Arc<Chan<T>>);
pub struct Receiver<T>(Arc<Chan<T>>);

pub struct SendError<T>(pub T);

pub enum TrySendError<T> {
    Full(T),
    Disconnected(T),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

/// A channel holding at most `cap` messages. `cap` 0 (a rendezvous channel
/// in `crossbeam`) is not supported.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "the stand-in has no rendezvous channels");
    channel(Some(cap))
}

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        queue: Mutex::new(VecDeque::new()),
        cap,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        senders: AtomicUsize::new(1),
        receiver_alive: AtomicBool::new(true),
    });
    (Sender(Arc::clone(&chan)), Receiver(chan))
}

impl<T> Chan<T> {
    fn is_full(&self, q: &VecDeque<T>) -> bool {
        self.cap.is_some_and(|cap| q.len() >= cap)
    }
}

impl<T> Sender<T> {
    /// Blocks while the channel is full.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let chan = &*self.0;
        let mut q = lock(&chan.queue);
        loop {
            if !chan.receiver_alive.load(Ordering::SeqCst) {
                return Err(SendError(msg));
            }
            if !chan.is_full(&q) {
                q.push_back(msg);
                chan.not_empty.notify_one();
                return Ok(());
            }
            q = chan
                .not_full
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let chan = &*self.0;
        let mut q = lock(&chan.queue);
        if !chan.receiver_alive.load(Ordering::SeqCst) {
            return Err(TrySendError::Disconnected(msg));
        }
        if chan.is_full(&q) {
            return Err(TrySendError::Full(msg));
        }
        q.push_back(msg);
        chan.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Queued messages are still delivered after the last sender is gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let chan = &*self.0;
        let mut q = lock(&chan.queue);
        match q.pop_front() {
            Some(msg) => {
                chan.not_full.notify_one();
                Ok(msg)
            }
            None if chan.senders.load(Ordering::SeqCst) == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    pub fn recv(&self) -> Result<T, RecvError> {
        let chan = &*self.0;
        let mut q = lock(&chan.queue);
        loop {
            if let Some(msg) = q.pop_front() {
                chan.not_full.notify_one();
                return Ok(msg);
            }
            if chan.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvError);
            }
            q = chan
                .not_empty
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let chan = &*self.0;
        let deadline = Instant::now() + timeout;
        let mut q = lock(&chan.queue);
        loop {
            if let Some(msg) = q.pop_front() {
                chan.not_full.notify_one();
                return Ok(msg);
            }
            if chan.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            q = chan
                .not_empty
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.senders.fetch_add(1, Ordering::SeqCst);
        Sender(Arc::clone(&self.0))
    }
}

// The count drops and the wake-up happen under the queue lock, so a peer
// that checked the count and is about to wait cannot miss the disconnect.
impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let _q = lock(&self.0.queue);
        if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let _q = lock(&self.0.queue);
        self.0.receiver_alive.store(false, Ordering::SeqCst);
        self.0.not_full.notify_all();
    }
}
