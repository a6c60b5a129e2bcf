use crate::lock;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

struct Token {
    notified: Mutex<bool>,
    cv: Condvar,
}

/// One-token thread parker: `unpark` before `park` makes that `park` return
/// at once.
pub struct Parker {
    unparker: Unparker,
}

#[derive(Clone)]
pub struct Unparker(Arc<Token>);

impl Parker {
    pub fn new() -> Self {
        Parker {
            unparker: Unparker(Arc::new(Token {
                notified: Mutex::new(false),
                cv: Condvar::new(),
            })),
        }
    }

    pub fn unparker(&self) -> &Unparker {
        &self.unparker
    }

    pub fn park_timeout(&self, timeout: Duration) {
        let token = &self.unparker.0;
        let deadline = Instant::now() + timeout;
        let mut notified = lock(&token.notified);
        while !*notified {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            notified = token
                .cv
                .wait_timeout(notified, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        *notified = false;
    }
}

impl Default for Parker {
    fn default() -> Self {
        Self::new()
    }
}

impl Unparker {
    pub fn unpark(&self) {
        *lock(&self.0.notified) = true;
        self.0.cv.notify_one();
    }
}
