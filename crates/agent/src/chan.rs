//! The agent's one blocking channel: a bounded queue under a mutex and two
//! condition variables, carrying an endpoint's requests and replies
//! between its courier and its serving thread ([`crate::proto`]).
//!
//! It exists for how it waits. A supervised call hands its request to a
//! thread that is parked and then waits for that thread's answer, usually
//! on the CPU the answering thread needs: a receiver that spins or yields
//! before it sleeps only delays the thread it is waiting for. Here a
//! receiver with nothing to take parks at once, a sender unlocks before it
//! wakes anybody, and nobody is woken unless somebody waits. Either side's
//! `Drop` disconnects the other — also while unwinding, so the peer of a
//! thread that panicked reads `Disconnected`, not silence.

use coop_telemetry::sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Why a [`Sender::try_send`] did not queue its message.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum TrySendError {
    /// The queue holds `capacity` messages.
    Full,
    /// The receiver is gone.
    Disconnected,
}

/// Why a [`Receiver::try_recv`] returned no message.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum TryRecvError {
    /// Nothing is queued.
    Empty,
    /// Nothing is queued and every sender is gone.
    Disconnected,
}

/// Why a [`Receiver::recv_deadline`] returned no message.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RecvTimeoutError {
    /// The timeout passed with nothing queued.
    Timeout,
    /// Nothing is queued and every sender is gone.
    Disconnected,
}

/// The receiver (or a sender, for `send`) is gone.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Disconnected;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    /// The receiver is parked on `readable`.
    receiver_parked: bool,
    /// Senders parked on `writable`.
    senders_parked: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    readable: Condvar,
    writable: Condvar,
}

/// The sending half; clones feed the same queue.
pub(crate) struct Sender<T>(Arc<Shared<T>>);

/// The receiving half.
pub(crate) struct Receiver<T>(Arc<Shared<T>>);

/// A channel whose queue holds at most `capacity` (at least one) messages.
pub(crate) fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            senders: 1,
            receiver_alive: true,
            receiver_parked: false,
            senders_parked: 0,
        }),
        capacity: capacity.max(1),
        readable: Condvar::new(),
        writable: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

impl<T> Sender<T> {
    /// Queues `value` if there is room, without waiting.
    pub(crate) fn try_send(&self, value: T) -> Result<(), TrySendError> {
        let state = self.0.state.lock();
        if !state.receiver_alive {
            return Err(TrySendError::Disconnected);
        }
        if state.queue.len() >= self.0.capacity {
            return Err(TrySendError::Full);
        }
        self.push(state, value);
        Ok(())
    }

    /// Queues `value`, waiting for room while the queue is full.
    pub(crate) fn send(&self, value: T) -> Result<(), Disconnected> {
        let mut state = self.0.state.lock();
        loop {
            if !state.receiver_alive {
                return Err(Disconnected);
            }
            if state.queue.len() < self.0.capacity {
                break;
            }
            state.senders_parked += 1;
            self.0.writable.wait(&mut state);
            state.senders_parked -= 1;
        }
        self.push(state, value);
        Ok(())
    }

    fn push(&self, mut state: MutexGuard<'_, State<T>>, value: T) {
        state.queue.push_back(value);
        let wake = state.receiver_parked;
        drop(state);
        if wake {
            self.0.readable.notify_all();
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.senders -= 1;
        let wake = state.senders == 0 && state.receiver_parked;
        drop(state);
        if wake {
            self.0.readable.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Takes the oldest queued message, without waiting.
    pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.0.state.lock();
        match state.queue.pop_front() {
            Some(value) => {
                self.popped(state);
                Ok(value)
            }
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Takes the oldest message, waiting until one is queued or every
    /// sender is gone.
    pub(crate) fn recv(&self) -> Result<T, Disconnected> {
        self.recv_deadline(None).map_err(|_| Disconnected)
    }

    /// [`recv`](Self::recv) that gives up at `deadline`, if there is one.
    /// Never reports `Timeout` early: a wake-up that finds nothing goes
    /// back to waiting for what is left. A message already queued is
    /// taken without a clock read, even past the deadline.
    pub(crate) fn recv_deadline(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut state = self.0.state.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.popped(state);
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = match deadline {
                Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return Err(RecvTimeoutError::Timeout),
                },
                None => None,
            };
            state.receiver_parked = true;
            match left {
                Some(left) => self.0.readable.wait_for(&mut state, left),
                None => self.0.readable.wait(&mut state),
            }
            state.receiver_parked = false;
        }
    }

    /// After a message was taken: lets a sender waiting for room in.
    fn popped(&self, state: MutexGuard<'_, State<T>>) {
        let wake = state.senders_parked > 0;
        drop(state);
        if wake {
            self.0.writable.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.receiver_alive = false;
        // Undelivered messages go with the receiver, outside the lock.
        let undelivered = std::mem::take(&mut state.queue);
        let wake = state.senders_parked > 0;
        drop(state);
        if wake {
            self.0.writable.notify_all();
        }
        drop(undelivered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    impl<T> Receiver<T> {
        /// [`recv`](Self::recv) that gives up `timeout` from now (a timeout
        /// past the clock's range is none at all).
        fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(Instant::now().checked_add(timeout))
        }
    }

    /// Spins until `parked(state)` holds: the other thread has gone to sleep
    /// inside the channel, which is the moment the tests below wait for.
    fn until_parked<T>(shared: &Shared<T>, parked: impl Fn(&State<T>) -> bool) {
        while !parked(&shared.state.lock()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn messages_arrive_in_order_and_a_parked_receiver_is_woken() {
        let (tx, rx) = bounded::<u32>(4);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        std::thread::scope(|s| {
            let taker = s.spawn(|| (0..6).map(|_| rx.recv().unwrap()).collect::<Vec<_>>());
            // The first message finds the receiver asleep; more than the
            // capacity follow, so the sender may have to wait for room too.
            until_parked(&tx.0, |state| state.receiver_parked);
            for n in 0..6 {
                tx.send(n).unwrap();
            }
            assert_eq!(taker.join().unwrap(), vec![0, 1, 2, 3, 4, 5]);
        });
    }

    #[test]
    fn try_send_reports_a_full_queue_without_waiting() {
        let (tx, rx) = bounded::<u32>(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()));
        assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(3));
        assert_eq!(
            rx.recv_timeout(Duration::ZERO),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn a_full_bounded_send_blocks_until_a_message_is_taken() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let sent = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                tx.send(2).unwrap();
                sent.store(true, Ordering::SeqCst);
            });
            until_parked(&rx.0, |state| state.senders_parked == 1);
            assert!(!sent.load(Ordering::SeqCst), "no room yet: send must wait");
            assert_eq!(rx.recv(), Ok(1));
            // Taking one message is what lets the second in.
            assert_eq!(rx.recv(), Ok(2));
        });
        assert!(sent.load(Ordering::SeqCst));
    }

    #[test]
    fn recv_timeout_is_never_early_under_spurious_wakeups() {
        let (tx, rx) = bounded::<u32>(1);
        let timeout = Duration::from_millis(40);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Wake-ups with nothing behind them, for as long as the receiver
            // waits.
            s.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    tx.0.readable.notify_all();
                    std::thread::yield_now();
                }
            });
            let started = Instant::now();
            let got = rx.recv_timeout(timeout);
            let waited = started.elapsed();
            done.store(true, Ordering::SeqCst);
            assert_eq!(got, Err(RecvTimeoutError::Timeout));
            assert!(waited >= timeout, "timed out after {waited:?}");
        });
        // A timeout the clock cannot represent is no timeout, not a panic.
        std::thread::scope(|s| {
            let taker = s.spawn(|| rx.recv_timeout(Duration::MAX));
            until_parked(&tx.0, |state| state.receiver_parked);
            tx.send(7).unwrap();
            assert_eq!(taker.join().unwrap(), Ok(7));
        });
    }

    #[test]
    fn a_dropped_receiver_disconnects_senders_parked_or_not() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        std::thread::scope(|s| {
            let blocked = s.spawn(|| tx.send(2));
            until_parked(&rx.0, |state| state.senders_parked == 1);
            drop(rx);
            assert_eq!(blocked.join().unwrap(), Err(Disconnected));
        });
        assert_eq!(tx.send(3), Err(Disconnected));
        assert_eq!(tx.try_send(3), Err(TrySendError::Disconnected));
    }

    #[test]
    fn the_last_dropped_sender_disconnects_after_the_queue_drains() {
        let (tx, rx) = bounded::<u32>(2);
        let other = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        // One sender is left: empty is not disconnected.
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        other.send(2).unwrap();
        drop(other);
        // What was queued is still delivered; then the channel is over.
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), Err(Disconnected));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn a_peer_that_panics_reads_as_disconnected() {
        let (req_tx, req_rx) = bounded::<u32>(1);
        let (resp_tx, resp_rx) = bounded::<u32>(1);
        // A courier in miniature: owns one end of each channel, dies inside
        // its first call.
        let courier = std::thread::spawn(move || {
            let _reply_to = resp_tx;
            let request = req_rx.recv().unwrap();
            panic!("handling {request}");
        });
        req_tx.send(1).unwrap();
        // Parked well inside its timeout when the unwinding drops `resp_tx`.
        assert_eq!(
            resp_rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
        assert!(courier.join().is_err());
        assert_eq!(req_tx.try_send(2), Err(TrySendError::Disconnected));
    }
}
