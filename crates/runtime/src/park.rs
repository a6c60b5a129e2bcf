//! One-token thread parker over `std::thread::park`.
//!
//! [`Unparker::unpark`] sets the token and wakes the owning thread;
//! [`Parker::park_timeout`] consumes the token, so an `unpark` that comes
//! before the `park` makes that `park` return at once. The token is the
//! parker's own flag, not the thread's: other users of `thread::park` on
//! the same thread (a task blocking on a channel, say) can only cause a
//! spurious pass through the loop, never a lost or stolen wakeup.

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

struct Token {
    notified: AtomicBool,
    /// The thread that parks; registered by its first `park_timeout`
    /// (parkers are created before their worker threads are spawned).
    thread: OnceLock<Thread>,
}

pub(crate) struct Parker(Arc<Token>);

#[derive(Clone)]
pub(crate) struct Unparker(Arc<Token>);

impl Parker {
    pub(crate) fn new() -> Self {
        Parker(Arc::new(Token {
            notified: AtomicBool::new(false),
            thread: OnceLock::new(),
        }))
    }

    pub(crate) fn unparker(&self) -> Unparker {
        Unparker(Arc::clone(&self.0))
    }

    /// Blocks the calling thread until the token is set or `timeout`
    /// elapses. Always call from the same thread.
    pub(crate) fn park_timeout(&self, timeout: Duration) {
        let token = &*self.0;
        if token.thread.get().is_none() {
            let _ = token.thread.set(thread::current());
            // Pairs with the fence in `unpark`: either that side sees the
            // registered thread, or this side sees its token below.
            fence(Ordering::SeqCst);
        }
        let deadline = Instant::now() + timeout;
        while !token.notified.swap(false, Ordering::SeqCst) {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            thread::park_timeout(deadline - now);
        }
    }
}

impl Unparker {
    pub(crate) fn unpark(&self) {
        self.0.notified.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if let Some(thread) = self.0.thread.get() {
            thread.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn an_unpark_before_the_park_is_not_lost() {
        let parker = Parker::new();
        parker.unparker().unpark();
        let start = Instant::now();
        parker.park_timeout(LONG);
        assert!(start.elapsed() < LONG / 2, "the token was lost");
        // The token is consumed: the next park waits out its timeout.
        let start = Instant::now();
        parker.park_timeout(Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn an_unpark_from_another_thread_wakes_a_parked_one() {
        let parker = Parker::new();
        let unparker = parker.unparker();
        let (parked_tx, parked_rx) = mpsc::channel();
        let sleeper = thread::spawn(move || {
            for round in 0..200 {
                parked_tx.send(round).unwrap();
                let start = Instant::now();
                parker.park_timeout(LONG);
                assert!(start.elapsed() < LONG / 2, "round {round} timed out");
            }
        });
        // One unpark per announced park, racing the park itself: before,
        // during or after the sleeper registers and blocks.
        for _ in parked_rx {
            unparker.unpark();
        }
        sleeper.join().unwrap();
    }

    #[test]
    fn a_stray_thread_token_does_not_consume_the_parkers_own() {
        let parker = Parker::new();
        thread::current().unpark();
        let start = Instant::now();
        parker.park_timeout(Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }
}
