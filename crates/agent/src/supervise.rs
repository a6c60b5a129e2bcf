//! Fault-tolerant supervision of managed runtimes.
//!
//! The paper's agent arbitrates cores between *cooperating* applications,
//! which means one sick application must never take the others down with
//! it. This module wraps every [`RuntimeHandle`] the agent manages in a
//! [`SupervisedHandle`]: a per-runtime health state machine
//! ([`Health`]: `Healthy → Degraded → Suspected → Dead`, with recovery
//! transitions back) driven by a configurable failure detector
//! ([`DetectorConfig`]: consecutive-failure thresholds plus a per-call
//! deadline), with bounded retry under exponential backoff and jitter
//! ([`BackoffConfig`]).
//!
//! Liveness semantics: only *transport* failures — deadline timeouts,
//! disconnects, spawn failures (`AgentError::is_transport`) — feed
//! the failure detector. An application-level rejection (the runtime
//! answered, but said no) proves the runtime is alive, so it counts as a
//! liveness success even though the call still returns an error, and it
//! is not retried (retrying a rejected command cannot help).
//!
//! # One call path: scatter, then gather
//!
//! A supervised handle reaches its runtime one of two ways. A handle that
//! is a channel already (a [`proto::connect`] endpoint) hands its
//! [`Courier`] over when it is wrapped, and each call crosses to that
//! endpoint's own `<name>-endpoint` thread (messages, sequence numbers and
//! the serving loop are described in [`proto`]).
//! Any other handle sits in a **slot** and is called *in place* by the
//! agent's **runners**: threads named `coop-runner`, one of them spawned by
//! the agent's first in-place call, shared by every handle the agent
//! manages.
//!
//! A supervised call has two halves: the post hands the request over and
//! returns at once with the call's deadline (post time +
//! [`DetectorConfig::call_deadline`]); the await waits for the answer
//! until that deadline. `call_all` is the only caller of either: it posts
//! one request to every handle of a phase — the in-place ones as one batch
//! on the runners' queue, under one lock — then gathers the replies **in
//! the order the handles were given** (the agent's registry order) and
//! feeds each attempt to that handle's health state machine in that order.
//! `stats()`, `command()` and `probe()` are its one-handle case, so there
//! is no second, blocking path to keep in step.
//!
//! A runner takes the queued calls in that order, calls each handle and
//! writes the reply into its slot; the agent is woken once, when the
//! phase's last call has answered or at the earliest deadline. While
//! nobody hangs one runner serves every phase, so a phase costs two
//! context switches, not two per runtime.
//!
//! What that buys, and what it does not change:
//!
//! * One runner calls a phase's handles one after another, so quick calls
//!   cost their sum. A call that blocks — hangs, sleeps, waits on I/O or a
//!   lock — does not hold the rest of its phase for long: when the queue
//!   has gone one *stall period*, `call_deadline / (calls in the phase +
//!   1)`, without a claim, it is handed over. The first stall of a phase
//!   hands it to one more runner (a hung call is the likely cause, and the
//!   calls behind it are quick); a second gives every call still queued a
//!   runner of its own. Runners not inside a call are woken first, new
//!   ones spawned for the rest. So in a phase of blocking calls every
//!   call starts within two stall periods of the post, the phase costs at
//!   most that plus its slowest call, and K runtimes hanging in the same
//!   phase cost **one** `call_deadline`, not K of them — their deadlines
//!   all started at the post. A phase posted while every runner is still inside a
//!   call of an earlier phase — one the agent has given up on — gets a new
//!   runner at once. A runner that is merely descheduled never comes near
//!   either, so the thread count stays exact while no call blocks.
//! * Retries run in *rounds*: the handles that failed in transport and
//!   still have retries left are re-posted together after one sleep of
//!   the longest jittered backoff among them, so a phase waits at most
//!   one `call_deadline` per attempt plus one backoff sequence, whatever
//!   the number of sick runtimes.
//! * Per runtime nothing is reordered: a handle holds at most one call,
//!   attempts, health transitions and retries of one runtime happen in the
//!   same sequence as in a blocking loop, and results come back in
//!   registry order whatever order the replies arrived in.
//!
//! Deadlines are enforced even when the underlying handle *hangs*: the
//! runner (or the endpoint's thread) stays inside the inner call, the
//! agent's wait ends at the deadline, and the call stays in flight. Until
//! its (stale) reply arrives every later call fails at once ("previous
//! call still in flight") without being posted — nothing queues up behind
//! a hang to be executed late, and a hung runtime costs later ticks
//! nothing. A call whose deadline passed while it was still queued is
//! answered `Timeout` by the runner that takes it and never executed. If
//! an in-place handle *panics*, its runner catches the unwind: that call
//! and every later one report `Disconnected`, and the runner goes on
//! serving the others — a panic in one runtime's glue code cannot unwind
//! into the agent loop. (An endpoint's thread dies instead, which its
//! courier reads the same way.)

use crate::proto::{self, Courier, Reply, Request};
use crate::{AgentError, Result, RuntimeHandle, RuntimeStats, ThreadCommand};
use coop_telemetry::sync::{Condvar, Mutex, MutexGuard};
use coop_telemetry::{ArgValue, Counter, Gauge, TelemetryHub, TrackId};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Timeline lane (within the agent's track) carrying health transitions,
/// evictions, recoveries and counter-regression instants.
pub const HEALTH_LANE: u32 = 1;

/// Health of one managed runtime, as judged by the failure detector.
///
/// The ordering is meaningful: each variant is strictly sicker than the
/// previous one, and `Health::as_gauge` exports the same order as a
/// Prometheus gauge value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Responding normally.
    Healthy,
    /// A recent transport failure; still polled normally.
    Degraded,
    /// Enough consecutive failures that the runtime is presumed sick;
    /// the agent quarantines it (skips it when asking the policy for
    /// commands) but keeps polling.
    Suspected,
    /// The detector's dead threshold was crossed: the agent evicts the
    /// runtime and reclaims its cores for the survivors.
    Dead,
}

impl Health {
    /// Gauge encoding: 0 healthy, 1 degraded, 2 suspected, 3 dead.
    pub(crate) fn as_gauge(self) -> f64 {
        match self {
            Health::Healthy => 0.0,
            Health::Degraded => 1.0,
            Health::Suspected => 2.0,
            Health::Dead => 3.0,
        }
    }

    /// Lower-case name (used in timeline instants and reports).
    pub fn name(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Suspected => "suspected",
            Health::Dead => "dead",
        }
    }
}

/// Failure-detector tuning: how many consecutive transport failures move
/// a runtime down the health ladder, how many consecutive successes bring
/// it back, and how long one call may take.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Consecutive transport failures after which the runtime is
    /// [`Health::Degraded`].
    pub degraded_after: u32,
    /// Consecutive transport failures after which the runtime is
    /// [`Health::Suspected`] (quarantined).
    pub suspected_after: u32,
    /// Consecutive transport failures after which the runtime is
    /// [`Health::Dead`] (evicted, cores reclaimed).
    pub dead_after: u32,
    /// Consecutive successes required to recover to [`Health::Healthy`]
    /// from `Suspected` or `Dead` (a single success recovers from
    /// `Degraded`).
    pub recovery_successes: u32,
    /// Per-call deadline, counted from the post (a bare
    /// [`proto`] endpoint waits the default's).
    pub call_deadline: Duration,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            degraded_after: 1,
            suspected_after: 3,
            dead_after: 5,
            recovery_successes: 2,
            call_deadline: Duration::from_secs(2),
        }
    }
}

/// Bounded-retry policy with exponential backoff and deterministic
/// jitter, applied to transport failures only.
#[derive(Debug, Clone, PartialEq)]
pub struct BackoffConfig {
    /// Retries after the first failed attempt (0 disables retrying).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Growth factor per retry.
    pub multiplier: f64,
    /// Upper bound on any single delay (before jitter).
    pub max_delay: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            max_retries: 2,
            base_delay: Duration::from_millis(1),
            multiplier: 2.0,
            max_delay: Duration::from_millis(50),
            jitter: 0.5,
        }
    }
}

impl BackoffConfig {
    /// The delay before retry number `retry` (0-based), jittered by the
    /// uniform sample `u ∈ [0, 1)`.
    pub(crate) fn delay(&self, retry: u32, u: f64) -> Duration {
        let exp = self.multiplier.powi(retry.min(30) as i32);
        let nominal = self.base_delay.as_secs_f64() * exp;
        let capped = nominal.min(self.max_delay.as_secs_f64());
        let jitter = self.jitter.clamp(0.0, 1.0);
        let factor = 1.0 - jitter + 2.0 * jitter * u.clamp(0.0, 1.0);
        Duration::from_secs_f64((capped * factor).max(0.0))
    }
}

/// Everything the agent's supervision layer needs to know per runtime.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SupervisionConfig {
    /// Failure-detector thresholds and the per-call deadline.
    pub detector: DetectorConfig,
    /// Retry/backoff policy for transport failures.
    pub backoff: BackoffConfig,
}

impl SupervisionConfig {
    /// A fast-reacting configuration for tests and short ticks: small
    /// thresholds, a short deadline, and near-zero backoff delays.
    pub fn aggressive(call_deadline: Duration) -> Self {
        SupervisionConfig {
            detector: DetectorConfig {
                degraded_after: 1,
                suspected_after: 2,
                dead_after: 3,
                recovery_successes: 2,
                call_deadline,
            },
            backoff: BackoffConfig {
                max_retries: 1,
                base_delay: Duration::from_micros(100),
                multiplier: 2.0,
                max_delay: Duration::from_millis(2),
                jitter: 0.5,
            },
        }
    }
}

/// The pure health state machine: consecutive-outcome counting plus the
/// threshold transitions of [`DetectorConfig`]. Kept free of I/O so it
/// can be unit-tested exhaustively.
#[derive(Debug, Clone)]
pub struct HealthState {
    health: Health,
    consecutive_failures: u32,
    consecutive_successes: u32,
    /// Floor imposed by [`force_down_to`](Self::force_down_to):
    /// successful calls cannot lift the health above it until
    /// [`clear_forced_floor`](Self::clear_forced_floor). Transport
    /// successes prove liveness, not good behaviour.
    forced_floor: Health,
}

impl Default for HealthState {
    fn default() -> Self {
        HealthState {
            health: Health::Healthy,
            consecutive_failures: 0,
            consecutive_successes: 0,
            forced_floor: Health::Healthy,
        }
    }
}

impl HealthState {
    /// Current health.
    pub(crate) fn health(&self) -> Health {
        self.health
    }

    /// Feed one transport failure; returns `Some((from, to))` when the
    /// health changed.
    pub(crate) fn on_failure(&mut self, d: &DetectorConfig) -> Option<(Health, Health)> {
        self.consecutive_successes = 0;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let next = if self.consecutive_failures >= d.dead_after {
            Health::Dead
        } else if self.consecutive_failures >= d.suspected_after {
            Health::Suspected
        } else if self.consecutive_failures >= d.degraded_after {
            Health::Degraded
        } else {
            self.health
        };
        // Failures only ever move down the ladder.
        let next = next.max(self.health);
        self.transition(next)
    }

    /// Feed one success; returns `Some((from, to))` when the health
    /// changed.
    pub(crate) fn on_success(&mut self, d: &DetectorConfig) -> Option<(Health, Health)> {
        self.consecutive_failures = 0;
        self.consecutive_successes = self.consecutive_successes.saturating_add(1);
        let next = match self.health {
            Health::Healthy | Health::Degraded => Health::Healthy,
            Health::Suspected | Health::Dead => {
                if self.consecutive_successes >= d.recovery_successes {
                    Health::Healthy
                } else {
                    self.health
                }
            }
        };
        self.transition(next.max(self.forced_floor))
    }

    /// Force the health down to at least `floor` (never upward) without
    /// touching the consecutive-outcome counters; returns the transition
    /// when the health changed. The floor is sticky: transport successes
    /// cannot lift the health above it until
    /// [`clear_forced_floor`](Self::clear_forced_floor) — a runtime that
    /// answers calls while wedging workers is live, not well-behaved.
    /// Used by the agent when evidence *other* than transport failures
    /// (e.g. sustained runaway tasks) proves the runtime is misbehaving.
    pub(crate) fn force_down_to(&mut self, floor: Health) -> Option<(Health, Health)> {
        self.forced_floor = floor.max(self.forced_floor);
        let next = floor.max(self.health);
        self.transition(next)
    }

    /// Lifts the sticky floor set by [`force_down_to`](Self::force_down_to).
    /// The health itself recovers through the normal success path on the
    /// next call, not here.
    pub(crate) fn clear_forced_floor(&mut self) {
        self.forced_floor = Health::Healthy;
    }

    fn transition(&mut self, next: Health) -> Option<(Health, Health)> {
        if next == self.health {
            return None;
        }
        let from = self.health;
        self.health = next;
        Some((from, next))
    }
}

/// How a supervised handle reaches its runtime (see the module docs).
enum Transport {
    /// An adopted endpoint's courier: its `-endpoint` thread serves it.
    Courier(Mutex<Courier>),
    /// Any other handle, called in place by `runners`.
    InPlace {
        slot: Arc<Slot>,
        runners: Arc<Runners>,
    },
}

/// One in-place handle, as the runners see it.
struct Slot {
    name: String,
    call_deadline: Duration,
    /// Locked by the runner inside a call; the slot holds one call at a
    /// time, so nobody waits for it.
    inner: Mutex<Box<dyn RuntimeHandle>>,
    call: Mutex<SlotCall>,
}

/// Where a slot's call stands.
enum SlotCall {
    /// No call, or the last one's answer was taken.
    Idle,
    /// Posted and not answered: queued, or inside `inner`.
    Busy,
    /// Answered and not taken yet, or answered after its deadline.
    Answered(Result<Reply>),
    /// `inner` panicked: every call reads `Disconnected` from then on.
    Broken,
}

impl Slot {
    /// Marks a call posted. Fails without posting while the last call is
    /// still inside `inner` (or queued), and for good once `inner` panicked;
    /// an answer nobody took — a call that timed out — is dropped here.
    fn post(&self) -> Result<()> {
        let mut call = self.call.lock();
        match std::mem::replace(&mut *call, SlotCall::Busy) {
            SlotCall::Idle => Ok(()),
            stale @ SlotCall::Answered(_) => {
                drop(call);
                drop(stale);
                Ok(())
            }
            // Still hung inside the runtime; do not pile up behind it.
            SlotCall::Busy => Err(self.timed_out()),
            SlotCall::Broken => {
                *call = SlotCall::Broken;
                Err(self.disconnected())
            }
        }
    }

    /// The posted call's answer, if it has one.
    fn take(&self) -> Option<Result<Reply>> {
        let mut call = self.call.lock();
        match std::mem::replace(&mut *call, SlotCall::Idle) {
            SlotCall::Answered(reply) => Some(reply),
            SlotCall::Broken => {
                *call = SlotCall::Broken;
                Some(Err(self.disconnected()))
            }
            busy => {
                *call = busy;
                None
            }
        }
    }

    /// Runs `request` on `inner`, catching a panic: what the call comes
    /// to.
    fn call(&self, request: Request) -> SlotCall {
        let answered = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // A slot has no serving loop for `Close` to end.
            proto::answer(&**self.inner.lock(), request).unwrap_or(Ok(Reply::Done))
        }));
        match answered {
            Ok(reply) => SlotCall::Answered(reply),
            Err(_) => SlotCall::Broken,
        }
    }

    fn timed_out(&self) -> AgentError {
        AgentError::Timeout {
            runtime: self.name.clone(),
            deadline: self.call_deadline,
        }
    }

    fn disconnected(&self) -> AgentError {
        AgentError::Disconnected {
            runtime: self.name.clone(),
        }
    }
}

/// A queued in-place call.
struct Job {
    slot: Arc<Slot>,
    request: Request,
    deadline: Instant,
    /// The phase that posted it.
    phase: u64,
}

/// The threads that call an agent's in-place handles, and their queue
/// (see the module docs). Dropping it ends the runners: it joins them
/// when none is inside a call, and leaves a hung one to end after it.
pub(crate) struct Runners(Arc<Pool>);

struct Pool {
    state: Mutex<PoolState>,
    /// Idle runners wait here for calls.
    work: Condvar,
    /// The agent waits here for its phase.
    done: Condvar,
}

struct PoolState {
    /// Calls in the order they were posted; keeps its capacity.
    queue: VecDeque<Job>,
    threads: Vec<JoinHandle<()>>,
    /// Runners waiting for a call, and runners inside one whose answer is
    /// not written yet.
    idle: usize,
    calling: usize,
    /// The phase being gathered and how many of its calls have not been
    /// answered.
    phase: u64,
    outstanding: usize,
    /// When a runner last took a call (or the phase was posted), how long
    /// the queue may then wait for the next claim before other runners
    /// take it over, and how often that happened in the phase.
    last_claim: Instant,
    stall: Duration,
    handoffs: u32,
    agent_waiting: bool,
    closed: bool,
}

impl Default for Runners {
    fn default() -> Self {
        Runners(Arc::new(Pool {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                threads: Vec::new(),
                idle: 0,
                calling: 0,
                phase: 0,
                outstanding: 0,
                last_claim: Instant::now(),
                stall: Duration::ZERO,
                handoffs: 0,
                agent_waiting: false,
                closed: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }))
    }
}

impl Runners {
    /// Opens a phase: the calls posted through the returned batch are the
    /// ones the agent then waits for. Spawns a runner when every runner
    /// there is (none, at first) is inside a call of an earlier phase —
    /// a call the agent has given up on, since it gathers a phase before
    /// it opens the next. Fails, with the reason, when no runner exists
    /// and none can be spawned.
    fn open(&self) -> std::result::Result<Batch<'_>, String> {
        let mut state = self.0.state.lock();
        if state.calling == state.threads.len() {
            if let Err(e) = self.spawn(&mut state) {
                if state.threads.is_empty() {
                    return Err(e.to_string());
                }
            }
        }
        let now = Instant::now();
        state.phase += 1;
        state.outstanding = 0;
        state.last_claim = now;
        state.handoffs = 0;
        Ok(Batch {
            pool: &self.0,
            state,
            now,
            shortest: Duration::MAX,
        })
    }

    fn spawn(&self, state: &mut PoolState) -> std::io::Result<()> {
        let pool = Arc::clone(&self.0);
        let thread = std::thread::Builder::new()
            .name("coop-runner".into())
            .spawn(move || run(&pool))?;
        state.threads.push(thread);
        Ok(())
    }

    /// Waits for the reply to `slot`'s call of the open phase until
    /// `deadline`; a call that misses it stays in flight. A reply already
    /// written is taken without a clock read, even past the deadline.
    fn await_reply(&self, slot: &Slot, deadline: Instant) -> Result<Reply> {
        loop {
            if let Some(reply) = slot.take() {
                return reply;
            }
            if Instant::now() >= deadline {
                return Err(slot.timed_out());
            }
            self.wait(deadline);
        }
    }

    /// Waits until every call of the open phase has answered or `until`
    /// has passed, handing a stalled queue to another runner on the way.
    fn wait(&self, until: Instant) {
        let mut state = self.0.state.lock();
        while state.outstanding > 0 {
            let now = Instant::now();
            if now >= until {
                return;
            }
            let stalled_at = state.last_claim + state.stall;
            if !state.queue.is_empty() && now >= stalled_at {
                // The phase's first stall hands the queue to one more
                // runner: a hung call is the likely cause, and the calls
                // behind it are quick. A second stall means the calls
                // themselves block, and every call still queued gets a
                // runner of its own, so that it costs its own time, not the
                // sum of those before it. Runners not inside a call are
                // woken first, new ones spawned for the rest; a failed
                // spawn leaves the rest to the next stall or to time out.
                state.last_claim = now;
                state.handoffs += 1;
                let wanted = if state.handoffs == 1 {
                    1
                } else {
                    state.queue.len()
                };
                let free = state.threads.len().saturating_sub(state.calling);
                for _ in 0..wanted.min(free) {
                    self.0.work.notify_one();
                }
                for _ in free..wanted {
                    if self.spawn(&mut state).is_err() {
                        break;
                    }
                }
                continue;
            }
            let wake = if state.queue.is_empty() {
                until
            } else {
                until.min(stalled_at)
            };
            state.agent_waiting = true;
            self.0.done.wait_for(&mut state, wake - now);
            state.agent_waiting = false;
        }
    }

    /// Runner threads spawned so far.
    #[cfg(test)]
    fn spawned(&self) -> usize {
        self.0.state.lock().threads.len()
    }
}

impl Drop for Runners {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.closed = true;
        let queued = std::mem::take(&mut state.queue);
        let threads = std::mem::take(&mut state.threads);
        let join = state.calling == 0;
        drop(state);
        self.0.work.notify_all();
        drop(queued);
        if join {
            for thread in threads {
                let _ = thread.join();
            }
        }
    }
}

/// One phase's in-place calls being queued, under the pool's lock.
struct Batch<'a> {
    pool: &'a Pool,
    state: MutexGuard<'a, PoolState>,
    now: Instant,
    /// The shortest call deadline posted.
    shortest: Duration,
}

impl Batch<'_> {
    /// Queues `request` for `slot`, due `call_deadline` after the phase
    /// was opened; returns that deadline. Fails without queueing as
    /// [`Slot::post`] does.
    fn post(&mut self, slot: &Arc<Slot>, request: Request) -> Result<Instant> {
        slot.post()?;
        let deadline = self.now + slot.call_deadline;
        let phase = self.state.phase;
        self.state.queue.push_back(Job {
            slot: Arc::clone(slot),
            request,
            deadline,
            phase,
        });
        self.state.outstanding += 1;
        self.shortest = self.shortest.min(slot.call_deadline);
        Ok(deadline)
    }

    /// Hands the queued calls to the runners; returns the earliest of
    /// their deadlines, if any call was queued.
    fn start(mut self) -> Option<Instant> {
        let calls = self.state.outstanding;
        if calls == 0 {
            return None;
        }
        self.state.stall = self.shortest / (calls as u32 + 1);
        let wake = self.state.idle > 0;
        drop(self.state);
        if wake {
            self.pool.work.notify_one();
        }
        Some(self.now + self.shortest)
    }
}

/// A runner: takes calls off the queue in order and answers each into its
/// slot until the pool is closed.
fn run(pool: &Pool) {
    loop {
        let (job, now) = {
            let mut state = pool.state.lock();
            loop {
                if state.closed {
                    return;
                }
                if let Some(job) = state.queue.pop_front() {
                    let now = Instant::now();
                    state.last_claim = now;
                    state.calling += 1;
                    break (job, now);
                }
                state.idle += 1;
                pool.work.wait(&mut state);
                state.idle -= 1;
            }
        };
        let answered = if now < job.deadline {
            job.slot.call(job.request)
        } else {
            // Past its deadline in the queue: the agent has read a timeout.
            SlotCall::Answered(Err(job.slot.timed_out()))
        };
        let mut state = pool.state.lock();
        // Under the pool's lock, so that an answer the agent can read is
        // never of a runner that still counts as inside a call.
        *job.slot.call.lock() = answered;
        state.calling -= 1;
        let mut wake = false;
        if job.phase == state.phase {
            state.outstanding -= 1;
            wake = state.outstanding == 0 && state.agent_waiting;
        }
        drop(state);
        if wake {
            pool.done.notify_one();
        }
    }
}

/// Telemetry handles resolved once per supervised runtime.
struct SupervisionTelemetry {
    hub: Arc<TelemetryHub>,
    track: TrackId,
    health_gauge: Arc<Gauge>,
    retries: Arc<Counter>,
    transitions: Arc<Counter>,
}

/// A [`RuntimeHandle`] wrapper adding deadline enforcement, bounded
/// retry with exponential backoff + jitter, and the per-runtime health
/// state machine (see the module docs).
///
/// [`Agent::manage`](crate::Agent::manage) wraps every handle in one of
/// these automatically, with the configuration of
/// [`Agent::set_supervision`](crate::Agent::set_supervision).
pub struct SupervisedHandle {
    name: String,
    config: SupervisionConfig,
    transport: Transport,
    state: Mutex<HealthState>,
    telemetry: Mutex<Option<SupervisionTelemetry>>,
    rng: Mutex<u64>,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

impl SupervisedHandle {
    /// Wraps `inner` with the given supervision configuration, on runners
    /// of its own.
    #[cfg(test)]
    pub(crate) fn new(inner: Box<dyn RuntimeHandle>, config: SupervisionConfig) -> Self {
        Self::served_by(inner, config, &Arc::default())
    }

    /// Wraps `inner` with the given supervision configuration. A handle
    /// that is a channel already gives up its courier here
    /// ([`RuntimeHandle::take_courier`]); any other goes into a slot that
    /// `runners` call in place.
    pub(crate) fn served_by(
        mut inner: Box<dyn RuntimeHandle>,
        config: SupervisionConfig,
        runners: &Arc<Runners>,
    ) -> Self {
        let name = inner.name();
        let call_deadline = config.detector.call_deadline;
        let transport = match inner.take_courier() {
            Some(mut adopted) => {
                adopted.call_deadline = call_deadline;
                Transport::Courier(Mutex::new(adopted))
            }
            None => Transport::InPlace {
                slot: Arc::new(Slot {
                    name: name.clone(),
                    call_deadline,
                    inner: Mutex::new(inner),
                    call: Mutex::new(SlotCall::Idle),
                }),
                runners: Arc::clone(runners),
            },
        };
        SupervisedHandle {
            // Derive a per-handle jitter seed from the name so two
            // handles retrying in lockstep de-synchronize.
            rng: Mutex::new(
                name.bytes().fold(0x9e3779b97f4a7c15u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x100000001b3)
                }) | 1,
            ),
            name,
            config,
            transport,
            state: Mutex::new(HealthState::default()),
            telemetry: Mutex::new(None),
        }
    }

    /// Attaches telemetry: a per-runtime health gauge
    /// (`coop_agent_runtime_health{runtime=..}`), retry and transition
    /// counters, and `health` timeline instants on `track`'s
    /// [`HEALTH_LANE`].
    pub(crate) fn attach_telemetry(&self, hub: Arc<TelemetryHub>, track: TrackId) {
        let reg = hub.registry();
        let labels = [("runtime", self.name.as_str())];
        let telemetry = SupervisionTelemetry {
            health_gauge: reg.gauge("coop_agent_runtime_health", &labels),
            retries: reg.counter("coop_agent_retries_total", &labels),
            transitions: reg.counter("coop_agent_health_transitions_total", &labels),
            hub,
            track,
        };
        telemetry.health_gauge.set(self.health().as_gauge());
        *self.telemetry.lock() = Some(telemetry);
    }

    /// The managed runtime's name, borrowed ([`RuntimeHandle::name`]
    /// clones it).
    pub(crate) fn runtime_name(&self) -> &str {
        &self.name
    }

    /// The runtime's current health.
    pub(crate) fn health(&self) -> Health {
        self.state.lock().health()
    }

    /// `true` when the runtime should be excluded from policy decisions
    /// ([`Health::Suspected`] or worse).
    pub(crate) fn is_quarantined(&self) -> bool {
        self.health() >= Health::Suspected
    }

    /// Force this runtime's health down to [`Health::Degraded`] on
    /// evidence outside the transport failure detector — the agent calls
    /// this when a runtime keeps producing runaway tasks. Degraded does
    /// *not* quarantine: the runtime stays in policy decisions, but
    /// operators see the transition (gauge, timeline instant) and the
    /// agent shrinks its allocation toward fair share. Health recovers
    /// through the normal success path once the evidence clears.
    pub(crate) fn force_degraded(&self) {
        let transition = self.state.lock().force_down_to(Health::Degraded);
        self.publish_transition(transition);
    }

    /// Lifts the sticky Degraded floor set by
    /// [`force_degraded`](Self::force_degraded); health recovers through
    /// the normal success path on the next call.
    pub(crate) fn clear_forced_floor(&self) {
        self.state.lock().clear_forced_floor();
    }

    fn record_success(&self) {
        let transition = self.state.lock().on_success(&self.config.detector);
        self.publish_transition(transition);
    }

    fn record_failure(&self) {
        let transition = self.state.lock().on_failure(&self.config.detector);
        self.publish_transition(transition);
    }

    fn publish_transition(&self, transition: Option<(Health, Health)>) {
        let Some((from, to)) = transition else { return };
        let guard = self.telemetry.lock();
        let Some(t) = guard.as_ref() else { return };
        t.health_gauge.set(to.as_gauge());
        t.transitions.inc();
        t.hub.record_instant(
            0,
            t.track,
            HEALTH_LANE,
            "health",
            to.name(),
            vec![
                ("runtime".to_string(), ArgValue::Str(self.name.clone())),
                ("from".to_string(), ArgValue::Str(from.name().to_string())),
            ],
        );
        // A quarantine or eviction is exactly the moment the recent event
        // history matters: snapshot the flight recorder before the ring
        // overwrites the lead-up.
        if to >= Health::Suspected {
            if let Some(rec) = t.hub.flight_recorder() {
                rec.trigger_dump(&format!("health-{}-{}", self.name, to.name()));
            }
        }
    }

    fn record_retry(&self) {
        if let Some(t) = self.telemetry.lock().as_ref() {
            t.retries.inc();
        }
    }

    /// The jittered delay before retry number `retry` (0-based).
    fn next_backoff(&self, retry: u32) -> Duration {
        let u = (xorshift(&mut self.rng.lock()) >> 11) as f64 / (1u64 << 53) as f64;
        self.config.backoff.delay(retry, u)
    }
}

/// The one supervised call path: posts `calls[k].1` to `calls[k].0` for
/// every `k` (scatter: the in-place calls go to the runners as one batch),
/// then awaits the replies in slice order (gather), feeding each attempt
/// to its handle's health state machine in that order. With `retry`, the
/// handles that failed in transport, have retries left and are not Dead
/// are re-posted together in retry rounds, after one sleep of the longest
/// jittered backoff among them. Returns one final outcome per call, in
/// slice order.
///
/// A handle must appear at most once in `calls`, which holds one call,
/// and the in-place ones share the runners of the first.
fn call_all(calls: &[(&SupervisedHandle, Request)], retry: bool) -> Vec<Result<Reply>> {
    let mut outcomes: Vec<Option<Result<Reply>>> = calls.iter().map(|_| None).collect();
    let mut round: Vec<usize> = (0..calls.len()).collect();
    let mut retries = 0u32;
    loop {
        let mut runners: Option<&Runners> = None;
        let mut batch: Option<std::result::Result<Batch, String>> = None;
        let mut posted: Vec<Result<(u64, Instant)>> = Vec::with_capacity(round.len());
        for &k in &round {
            let (handle, request) = &calls[k];
            posted.push(match &handle.transport {
                Transport::Courier(courier) => courier.lock().post(request.clone()),
                Transport::InPlace { slot, runners: own } => {
                    let pool = *runners.get_or_insert(own);
                    match batch.get_or_insert_with(|| pool.open()) {
                        // In place there is no sequence number to match.
                        Ok(batch) => batch.post(slot, request.clone()).map(|due| (0, due)),
                        Err(reason) => Err(AgentError::Spawn {
                            runtime: handle.name.clone(),
                            reason: reason.clone(),
                        }),
                    }
                }
            });
        }
        // The runners' phase first, so that their hand-offs go on while a
        // courier below would hold the gather.
        if let (Some(pool), Some(due)) = (runners, batch.and_then(|b| b.ok()?.start())) {
            pool.wait(due);
        }
        let mut again = Vec::new();
        let mut backoff = Duration::ZERO;
        for (&k, posted) in round.iter().zip(posted) {
            let handle = calls[k].0;
            let outcome = posted.and_then(|(seq, deadline)| match &handle.transport {
                Transport::Courier(courier) => courier.lock().await_reply(seq, deadline),
                Transport::InPlace { slot, .. } => runners
                    .expect("an in-place call was posted")
                    .await_reply(slot, deadline),
            });
            match &outcome {
                Err(e) if e.is_transport() => {
                    handle.record_failure();
                    if retry
                        && retries < handle.config.backoff.max_retries
                        && handle.health() != Health::Dead
                    {
                        backoff = backoff.max(handle.next_backoff(retries));
                        again.push(k);
                    }
                }
                // An answer — even an application-level rejection —
                // proves the runtime is alive.
                _ => handle.record_success(),
            }
            outcomes[k] = Some(outcome);
        }
        if again.is_empty() {
            break;
        }
        std::thread::sleep(backoff);
        for &k in &again {
            calls[k].0.record_retry();
        }
        round = again;
        retries += 1;
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every call was attempted in the first round"))
        .collect()
}

/// Polls every handle's statistics concurrently (see [`call_all`]);
/// results are in `handles` order. `retry` off is the probe the agent
/// sends to evicted runtimes.
pub(crate) fn stats_all(handles: &[&SupervisedHandle], retry: bool) -> Vec<Result<RuntimeStats>> {
    let calls: Vec<_> = handles.iter().map(|&h| (h, Request::GetStats)).collect();
    call_all(&calls, retry)
        .into_iter()
        .zip(handles)
        .map(|(reply, h)| reply?.into_stats(&h.name))
        .collect()
}

/// Sends each handle its command concurrently (see [`call_all`]);
/// results are in `commands` order.
pub(crate) fn command_all(commands: Vec<(&SupervisedHandle, ThreadCommand)>) -> Vec<Result<()>> {
    let calls: Vec<_> = commands
        .into_iter()
        .map(|(h, cmd)| (h, Request::Apply(cmd)))
        .collect();
    call_all(&calls, true)
        .into_iter()
        .zip(&calls)
        .map(|(reply, (h, _))| reply?.into_done(&h.name))
        .collect()
}

impl RuntimeHandle for SupervisedHandle {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn stats(&self) -> Result<RuntimeStats> {
        stats_all(&[self], true)
            .pop()
            .expect("one outcome per handle")
    }

    fn command(&self, cmd: ThreadCommand) -> Result<()> {
        command_all(vec![(self, cmd)])
            .pop()
            .expect("one outcome per command")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChaosHandle, Fault, FaultPlan};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn detector(degraded: u32, suspected: u32, dead: u32, recover: u32) -> DetectorConfig {
        DetectorConfig {
            degraded_after: degraded,
            suspected_after: suspected,
            dead_after: dead,
            recovery_successes: recover,
            call_deadline: Duration::from_millis(100),
        }
    }

    #[test]
    fn state_machine_walks_the_ladder_down_and_back() {
        let d = detector(1, 3, 5, 2);
        let mut s = HealthState::default();
        assert_eq!(s.on_failure(&d), Some((Health::Healthy, Health::Degraded)));
        assert_eq!(s.on_failure(&d), None);
        assert_eq!(
            s.on_failure(&d),
            Some((Health::Degraded, Health::Suspected))
        );
        assert_eq!(s.on_failure(&d), None);
        assert_eq!(s.on_failure(&d), Some((Health::Suspected, Health::Dead)));
        // Extra failures keep it Dead without re-announcing.
        assert_eq!(s.on_failure(&d), None);
        // Recovery needs two consecutive successes from Dead.
        assert_eq!(s.on_success(&d), None);
        assert_eq!(s.on_success(&d), Some((Health::Dead, Health::Healthy)));
        // One failure then success: Degraded bounces straight back.
        s.on_failure(&d);
        assert_eq!(s.on_success(&d), Some((Health::Degraded, Health::Healthy)));
    }

    #[test]
    fn recovery_counter_resets_on_interleaved_failure() {
        let d = detector(1, 2, 3, 2);
        let mut s = HealthState::default();
        for _ in 0..3 {
            s.on_failure(&d);
        }
        assert_eq!(s.health(), Health::Dead);
        s.on_success(&d);
        s.on_failure(&d); // interrupts the recovery streak
        s.on_success(&d);
        assert_eq!(s.health(), Health::Dead, "streak must restart");
        s.on_success(&d);
        assert_eq!(s.health(), Health::Healthy);
    }

    #[test]
    fn backoff_grows_caps_and_jitters_within_bounds() {
        let b = BackoffConfig {
            max_retries: 5,
            base_delay: Duration::from_millis(10),
            multiplier: 2.0,
            max_delay: Duration::from_millis(35),
            jitter: 0.5,
        };
        // No jitter at u = 0.5 (factor 1.0).
        assert_eq!(b.delay(0, 0.5), Duration::from_millis(10));
        assert_eq!(b.delay(1, 0.5), Duration::from_millis(20));
        // Capped at max_delay.
        assert_eq!(b.delay(4, 0.5), Duration::from_millis(35));
        // Jitter bounds: [0.5x, 1.5x].
        assert_eq!(b.delay(0, 0.0), Duration::from_millis(5));
        assert_eq!(b.delay(0, 1.0), Duration::from_millis(15));
    }

    /// A scriptable in-memory handle.
    struct Scripted {
        calls: AtomicU64,
        fail_transport_first: u64,
    }

    impl Scripted {
        fn stats_value(name: &str) -> RuntimeStats {
            RuntimeStats {
                name: name.into(),
                tasks_executed: 1,
                tasks_panicked: 0,
                tasks_spawned: 1,
                tasks_ready: 0,
                tasks_pending: 0,
                running_workers: 1,
                blocked_workers: 0,
                external_threads: 0,
                per_node: vec![],
                user_counters: HashMap::new(),
                uptime_us: 1,
                tasks_preempted: 0,
                tasks_runaway: 0,
                overbudget_cpu_us: 0,
            }
        }
    }

    impl RuntimeHandle for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }
        fn stats(&self) -> Result<RuntimeStats> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n < self.fail_transport_first {
                Err(AgentError::Disconnected {
                    runtime: "scripted".into(),
                })
            } else {
                Ok(Self::stats_value("scripted"))
            }
        }
        fn command(&self, _cmd: ThreadCommand) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn retry_recovers_from_transient_transport_failures() {
        let inner = Scripted {
            calls: AtomicU64::new(0),
            fail_transport_first: 2,
        };
        let mut config = SupervisionConfig::aggressive(Duration::from_millis(200));
        config.backoff.max_retries = 3;
        // Keep the detector above the two scripted failures so the final
        // success recovers straight from Degraded.
        config.detector.suspected_after = 5;
        config.detector.dead_after = 10;
        let h = SupervisedHandle::new(Box::new(inner), config);
        // Two failed attempts then a success, all within one logical call.
        let stats = h.stats().expect("retries cover the transient failures");
        assert_eq!(stats.name, "scripted");
        // The interleaved failures degraded it, but the success recovered.
        assert_eq!(h.health(), Health::Healthy);
    }

    #[test]
    fn hanging_handle_hits_deadline_not_deadlock() {
        // Only the first call hangs; later calls answer promptly.
        let plan = FaultPlan::new().inject(0..1, Fault::Hang(Duration::from_millis(150)));
        let rt = ChaosHandle::new(
            Box::new(Scripted {
                calls: AtomicU64::new(0),
                fail_transport_first: 0,
            }),
            plan,
        );
        let mut config = SupervisionConfig::aggressive(Duration::from_millis(30));
        config.backoff.max_retries = 0;
        let h = SupervisedHandle::new(Box::new(rt), config);
        let start = Instant::now();
        let err = h.stats().unwrap_err();
        assert!(matches!(err, AgentError::Timeout { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_millis(140),
            "deadline must fire before the hang ends"
        );
        // The courier is still busy: the next call fails fast.
        let err = h.stats().unwrap_err();
        assert!(matches!(err, AgentError::Timeout { .. }), "{err}");
        // After the hang drains, the stale reply is discarded and fresh
        // calls succeed again.
        std::thread::sleep(Duration::from_millis(200));
        assert!(h.stats().is_ok());
    }

    #[test]
    fn rejection_counts_as_liveness_success_and_is_not_retried() {
        struct Rejecting {
            calls: AtomicU64,
        }
        impl RuntimeHandle for Rejecting {
            fn name(&self) -> String {
                "rej".into()
            }
            fn stats(&self) -> Result<RuntimeStats> {
                self.calls.fetch_add(1, Ordering::SeqCst);
                Err(AgentError::Command {
                    runtime: "rej".into(),
                    reason: "no".into(),
                })
            }
            fn command(&self, _cmd: ThreadCommand) -> Result<()> {
                Ok(())
            }
        }
        let inner = Rejecting {
            calls: AtomicU64::new(0),
        };
        let h = SupervisedHandle::new(
            Box::new(inner),
            SupervisionConfig::aggressive(Duration::from_millis(200)),
        );
        let err = h.stats().unwrap_err();
        assert!(matches!(err, AgentError::Command { .. }));
        // Rejections prove liveness: health stays Healthy.
        assert_eq!(h.health(), Health::Healthy);
    }

    #[test]
    fn panicking_handle_reports_disconnected_not_panic() {
        struct Panicky;
        impl RuntimeHandle for Panicky {
            fn name(&self) -> String {
                "boom".into()
            }
            fn stats(&self) -> Result<RuntimeStats> {
                panic!("runtime glue exploded");
            }
            fn command(&self, _cmd: ThreadCommand) -> Result<()> {
                Ok(())
            }
        }
        // A deadline the test never gets near: the courier's unwinding
        // drops its ends of both channels, which wakes the waiting call.
        let mut config = SupervisionConfig::aggressive(Duration::from_secs(10));
        config.backoff.max_retries = 0;
        let h = SupervisedHandle::new(Box::new(Panicky), config);
        let started = Instant::now();
        let err = h.stats().unwrap_err();
        assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
        // Every later call reads the same, whatever it asks for.
        let err = h.stats().unwrap_err();
        assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
        let err = h.command(ThreadCommand::TotalThreads(1)).unwrap_err();
        assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn dropping_the_handle_ends_a_parked_courier_and_drops_the_inner_handle() {
        /// Reports its own drop.
        struct Mourned {
            dropped: std::sync::mpsc::Sender<()>,
        }
        impl RuntimeHandle for Mourned {
            fn name(&self) -> String {
                "mourned".into()
            }
            fn stats(&self) -> Result<RuntimeStats> {
                Ok(Scripted::stats_value("mourned"))
            }
            fn command(&self, _cmd: ThreadCommand) -> Result<()> {
                Ok(())
            }
        }
        impl Drop for Mourned {
            fn drop(&mut self) {
                let _ = self.dropped.send(());
            }
        }
        let (dropped, observed) = std::sync::mpsc::channel();
        let h = SupervisedHandle::new(
            Box::new(Mourned { dropped }),
            SupervisionConfig::aggressive(Duration::from_secs(10)),
        );
        // One call spawns the courier, which then parks for the next.
        assert!(h.stats().is_ok());
        assert!(observed.try_recv().is_err(), "the courier owns the handle");
        drop(h);
        observed
            .recv_timeout(Duration::from_secs(10))
            .expect("the courier ended and dropped the inner handle");
    }

    #[test]
    fn stale_reply_of_a_hung_call_never_answers_a_later_call() {
        /// Call `n` (from 1) reports `tasks_executed == n`; the first
        /// hangs until `release` is sent or dropped.
        struct Numbered {
            calls: AtomicU64,
            release: Mutex<std::sync::mpsc::Receiver<()>>,
        }
        impl RuntimeHandle for Numbered {
            fn name(&self) -> String {
                "numbered".into()
            }
            fn stats(&self) -> Result<RuntimeStats> {
                let n = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
                if n == 1 {
                    let _ = self.release.lock().recv_timeout(Duration::from_secs(10));
                }
                let mut stats = Scripted::stats_value("numbered");
                stats.tasks_executed = n;
                Ok(stats)
            }
            fn command(&self, _cmd: ThreadCommand) -> Result<()> {
                Ok(())
            }
        }
        let deadline = Duration::from_millis(100);
        let (release, gate) = std::sync::mpsc::channel();
        let mut config = SupervisionConfig::aggressive(deadline);
        config.backoff.max_retries = 0;
        let h = SupervisedHandle::new(
            Box::new(Numbered {
                calls: AtomicU64::new(0),
                release: Mutex::new(gate),
            }),
            config,
        );

        let started = Instant::now();
        let err = h.stats().unwrap_err();
        assert!(matches!(err, AgentError::Timeout { .. }), "{err}");
        assert!(started.elapsed() >= deadline, "the deadline was waited out");

        // While the courier is inside call 1, later calls fail at once and
        // are not handed to it.
        for _ in 0..3 {
            let started = Instant::now();
            let err = h.stats().unwrap_err();
            assert!(matches!(err, AgentError::Timeout { .. }), "{err}");
            assert!(started.elapsed() < deadline / 2, "must not wait again");
        }

        // Released, call 1 answers late. Whichever call first succeeds after
        // that must carry its own answer (call 2's), never the stale one.
        drop(release);
        let give_up = Instant::now() + Duration::from_secs(10);
        let answered = loop {
            if let Ok(stats) = h.stats() {
                break stats;
            }
            assert!(Instant::now() < give_up, "the stale reply never freed it");
            std::thread::yield_now();
        };
        assert_eq!(answered.tasks_executed, 2, "answered by the stale reply");
        assert_eq!(h.stats().unwrap().tasks_executed, 3);
    }

    #[test]
    fn detector_drives_dead_and_probe_drives_recovery() {
        let dead = Arc::new(std::sync::atomic::AtomicBool::new(true));
        struct Switchable {
            dead: Arc<std::sync::atomic::AtomicBool>,
        }
        impl RuntimeHandle for Switchable {
            fn name(&self) -> String {
                "sw".into()
            }
            fn stats(&self) -> Result<RuntimeStats> {
                if self.dead.load(Ordering::SeqCst) {
                    Err(AgentError::Disconnected {
                        runtime: "sw".into(),
                    })
                } else {
                    Ok(Scripted::stats_value("sw"))
                }
            }
            fn command(&self, _cmd: ThreadCommand) -> Result<()> {
                Ok(())
            }
        }
        let mut config = SupervisionConfig::aggressive(Duration::from_millis(100));
        config.backoff.max_retries = 0;
        let h = SupervisedHandle::new(
            Box::new(Switchable {
                dead: Arc::clone(&dead),
            }),
            config,
        );
        for _ in 0..3 {
            let _ = h.stats();
        }
        assert_eq!(h.health(), Health::Dead);
        assert!(h.is_quarantined());
        // Revive: two successful un-retried probes re-admit it.
        dead.store(false, Ordering::SeqCst);
        let probe = || {
            let _ = stats_all(&[&h], false);
            h.health()
        };
        assert_eq!(probe(), Health::Dead);
        assert_eq!(probe(), Health::Healthy);
        assert!(!h.is_quarantined());
    }

    #[test]
    fn suspected_and_dead_transitions_dump_the_flight_recorder() {
        use coop_telemetry::FlightRecorder;

        let dir = std::env::temp_dir().join(format!(
            "coop-health-dump-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let hub = Arc::new(TelemetryHub::new());
        let rec = Arc::new(FlightRecorder::new(256));
        rec.set_dump_dir(&dir);
        assert!(hub.install_flight_recorder(Arc::clone(&rec)));

        let mut config = SupervisionConfig::aggressive(Duration::from_millis(100));
        config.backoff.max_retries = 0;
        config.detector = detector(1, 2, 3, 2);
        let h = SupervisedHandle::new(
            Box::new(Scripted {
                calls: AtomicU64::new(0),
                fail_transport_first: u64::MAX,
            }),
            config,
        );
        h.attach_telemetry(Arc::clone(&hub), TrackId(9));

        // Two failures reach Suspected: the first dump. A third reaches
        // Dead: the second. Repeat failures in a state must not re-dump.
        let _ = h.stats();
        assert_eq!(rec.dumps(), 0, "Degraded is not dump-worthy");
        let _ = h.stats();
        assert_eq!(h.health(), Health::Suspected);
        assert_eq!(rec.dumps(), 1, "Suspected snapshots the recorder");
        let _ = h.stats();
        assert_eq!(h.health(), Health::Dead);
        assert_eq!(rec.dumps(), 2, "Dead snapshots it again");
        let _ = h.stats();
        assert_eq!(rec.dumps(), 2, "staying Dead must not re-dump");

        // The dump files carry the health reason and decode back into
        // events that include the transition instants themselves.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names.len(), 2);
        assert!(
            names[0].starts_with("flight-health-scripted-dead-"),
            "{names:?}"
        );
        assert!(
            names[1].starts_with("flight-health-scripted-suspected-"),
            "{names:?}"
        );
        let bytes = std::fs::read(dir.join(&names[0])).unwrap();
        let events = FlightRecorder::decode(&bytes).unwrap();
        assert!(
            events.iter().any(|e| e.cat == "health"),
            "dump must contain the health transition lead-up"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The in-place path: who calls a phase's handles, and what a hung or
    /// panicking handle does to the rest of its phase.
    mod runners {
        use super::*;
        use std::sync::mpsc;
        use std::thread::ThreadId;

        /// Answers at once, and notes every call and the thread it ran on.
        struct Noted {
            name: String,
            calls: Arc<AtomicU64>,
            threads: Arc<Mutex<Vec<ThreadId>>>,
        }

        impl Noted {
            fn note(&self) {
                self.calls.fetch_add(1, Ordering::SeqCst);
                self.threads.lock().push(std::thread::current().id());
            }
        }

        impl RuntimeHandle for Noted {
            fn name(&self) -> String {
                self.name.clone()
            }
            fn stats(&self) -> Result<RuntimeStats> {
                self.note();
                Ok(Scripted::stats_value(&self.name))
            }
            fn command(&self, _cmd: ThreadCommand) -> Result<()> {
                self.note();
                Ok(())
            }
        }

        /// Hangs inside its first `stats()` until `release` is sent or
        /// dropped.
        struct Hung {
            release: Mutex<mpsc::Receiver<()>>,
        }

        impl RuntimeHandle for Hung {
            fn name(&self) -> String {
                "hung".into()
            }
            fn stats(&self) -> Result<RuntimeStats> {
                let _ = self.release.lock().recv_timeout(Duration::from_secs(10));
                Ok(Scripted::stats_value("hung"))
            }
            fn command(&self, _cmd: ThreadCommand) -> Result<()> {
                Ok(())
            }
        }

        /// `deadline` per call, no retries.
        fn config(deadline: Duration) -> SupervisionConfig {
            let mut config = SupervisionConfig::aggressive(deadline);
            config.backoff.max_retries = 0;
            config
        }

        /// `n` noted handles on `runners`, sharing one call counter and
        /// one thread list.
        fn noted(
            n: usize,
            deadline: Duration,
            runners: &Arc<Runners>,
        ) -> (
            Vec<SupervisedHandle>,
            Arc<AtomicU64>,
            Arc<Mutex<Vec<ThreadId>>>,
        ) {
            let (calls, threads) = (Arc::default(), Arc::default());
            let handles = (0..n)
                .map(|i| {
                    let inner = Noted {
                        name: format!("noted{i}"),
                        calls: Arc::clone(&calls),
                        threads: Arc::clone(&threads),
                    };
                    SupervisedHandle::served_by(Box::new(inner), config(deadline), runners)
                })
                .collect();
            (handles, calls, threads)
        }

        /// A tick's two phases over `handles`: poll, then command the ones
        /// that answered. Returns how many answered.
        fn tick(handles: &[&SupervisedHandle]) -> usize {
            let answered: Vec<&SupervisedHandle> = handles
                .iter()
                .zip(stats_all(handles, true))
                .filter_map(|(&h, polled)| polled.ok().map(|_| h))
                .collect();
            let commands = answered
                .iter()
                .map(|&h| (h, ThreadCommand::TotalThreads(1)))
                .collect();
            assert!(command_all(commands).iter().all(Result::is_ok));
            answered.len()
        }

        fn distinct(threads: &Mutex<Vec<ThreadId>>) -> Vec<ThreadId> {
            let mut ids = threads.lock().clone();
            ids.sort_by_key(|id| format!("{id:?}"));
            ids.dedup();
            ids
        }

        fn slot_of(handle: &SupervisedHandle) -> &Arc<Slot> {
            match &handle.transport {
                Transport::InPlace { slot, .. } => slot,
                Transport::Courier(_) => panic!("an in-place handle"),
            }
        }

        #[test]
        fn a_phase_of_healthy_handles_runs_on_one_runner() {
            let runners = Arc::new(Runners::default());
            let (handles, calls, threads) = noted(8, Duration::from_secs(5), &runners);
            let handles: Vec<&SupervisedHandle> = handles.iter().collect();
            for _ in 0..100 {
                assert_eq!(tick(&handles), 8);
            }
            assert_eq!(calls.load(Ordering::SeqCst), 8 * 2 * 100);
            let ids = distinct(&threads);
            assert_eq!(ids.len(), 1, "every call ran on one thread");
            assert_ne!(ids[0], std::thread::current().id(), "not the agent's");
            assert_eq!(runners.spawned(), 1);
        }

        #[test]
        fn a_hung_call_hands_the_rest_of_its_phase_to_a_second_runner() {
            let deadline = Duration::from_millis(200);
            let runners = Arc::new(Runners::default());
            let (release, gate) = mpsc::channel();
            let hung = SupervisedHandle::served_by(
                Box::new(Hung {
                    release: Mutex::new(gate),
                }),
                config(deadline),
                &runners,
            );
            let (healthy, calls, threads) = noted(7, deadline, &runners);
            let handles: Vec<&SupervisedHandle> = std::iter::once(&hung).chain(&healthy).collect();

            let started = Instant::now();
            assert_eq!(tick(&handles), 7, "all seven answer in the same tick");
            let took = started.elapsed();
            assert!(took >= deadline, "the hung poll ran into its deadline");
            assert!(took < 2 * deadline, "the tick took {took:?}");
            assert_eq!(calls.load(Ordering::SeqCst), 7 * 2);
            assert_eq!(runners.spawned(), 2, "one hung, one took over");
            assert_eq!(distinct(&threads).len(), 1, "the seven ran on the second");

            // The first runner is still inside the hung call: the next tick
            // fails it at once and the second serves the others.
            let started = Instant::now();
            assert_eq!(tick(&handles), 7);
            assert!(started.elapsed() < deadline / 2);
            drop(release);
            assert_eq!(runners.spawned(), 2);
        }

        #[test]
        fn a_phase_of_blocking_calls_answers_within_its_deadline() {
            /// Blocks for `block` inside every `stats()`, as a runtime
            /// waiting on I/O or a lock would.
            struct Blocking {
                name: String,
                block: Duration,
            }
            impl RuntimeHandle for Blocking {
                fn name(&self) -> String {
                    self.name.clone()
                }
                fn stats(&self) -> Result<RuntimeStats> {
                    std::thread::sleep(self.block);
                    Ok(Scripted::stats_value(&self.name))
                }
                fn command(&self, _cmd: ThreadCommand) -> Result<()> {
                    Ok(())
                }
            }
            // Eight calls of 0.4 deadlines each: one after another they
            // would take 3.2.
            let deadline = Duration::from_secs(1);
            let runners = Arc::new(Runners::default());
            let handles: Vec<SupervisedHandle> = (0..8)
                .map(|i| {
                    let inner = Blocking {
                        name: format!("blocking{i}"),
                        block: deadline * 2 / 5,
                    };
                    SupervisedHandle::served_by(Box::new(inner), config(deadline), &runners)
                })
                .collect();
            let handles: Vec<&SupervisedHandle> = handles.iter().collect();
            for _ in 0..2 {
                let started = Instant::now();
                let polled = stats_all(&handles, false);
                let took = started.elapsed();
                for (h, polled) in handles.iter().zip(&polled) {
                    assert!(polled.is_ok(), "{}: {:?}", h.name, polled);
                    assert_eq!(h.health(), Health::Healthy);
                }
                assert!(took < deadline, "the phase took {took:?}");
            }
            // The second phase ran on the runners of the first.
            assert!(runners.spawned() <= 8, "{} runners", runners.spawned());
        }

        #[test]
        fn a_call_past_its_deadline_in_the_queue_is_never_executed() {
            let deadline = Duration::from_millis(50);
            let runners = Arc::new(Runners::default());
            let (release, gate) = mpsc::channel();
            let hung = SupervisedHandle::served_by(
                Box::new(Hung {
                    release: Mutex::new(gate),
                }),
                config(deadline),
                &runners,
            );
            let (late, calls, _) = noted(1, deadline, &runners);
            let late = &late[0];
            // One phase: the runner hangs inside the first call, and the
            // second, with nobody waiting on the runners to hand the queue
            // over (as when no other runner can be spawned), outlives its
            // deadline in the queue.
            let mut batch = runners.open().expect("a runner is spawned");
            batch
                .post(slot_of(&hung), Request::GetStats)
                .expect("the slot is free");
            let due = batch
                .post(slot_of(late), Request::GetStats)
                .expect("the slot is free");
            assert_eq!(batch.start(), Some(due));
            std::thread::sleep(deadline + deadline / 2);
            assert_eq!(runners.spawned(), 1);
            drop(release);
            let err = runners.await_reply(slot_of(late), due).unwrap_err();
            assert!(matches!(err, AgentError::Timeout { .. }), "{err}");

            // The runner, out of the hang, takes it off the queue without
            // running it; the next call runs.
            let give_up = Instant::now() + Duration::from_secs(10);
            while matches!(*slot_of(late).call.lock(), SlotCall::Busy) {
                assert!(Instant::now() < give_up, "the queue never drained");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(calls.load(Ordering::SeqCst), 0, "the expired call ran");
            assert!(late.stats().is_ok());
            assert_eq!(calls.load(Ordering::SeqCst), 1);
            assert_eq!(runners.spawned(), 1);
        }

        #[test]
        fn a_panicking_handle_leaves_its_runner_serving_the_others() {
            struct Panicky;
            impl RuntimeHandle for Panicky {
                fn name(&self) -> String {
                    "boom".into()
                }
                fn stats(&self) -> Result<RuntimeStats> {
                    panic!("runtime glue exploded");
                }
                fn command(&self, _cmd: ThreadCommand) -> Result<()> {
                    Ok(())
                }
            }
            let deadline = Duration::from_secs(10);
            let runners = Arc::new(Runners::default());
            let boom = SupervisedHandle::served_by(Box::new(Panicky), config(deadline), &runners);
            let (healthy, calls, threads) = noted(2, deadline, &runners);
            let handles = [&healthy[0], &boom, &healthy[1]];
            let started = Instant::now();
            for _ in 0..5 {
                let polled = stats_all(&handles, false);
                assert!(polled[0].is_ok() && polled[2].is_ok());
                let err = polled[1].as_ref().unwrap_err();
                assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
            }
            assert!(started.elapsed() < deadline / 2, "nobody waited");
            let err = boom.command(ThreadCommand::TotalThreads(1)).unwrap_err();
            assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
            assert_eq!(calls.load(Ordering::SeqCst), 2 * 5);
            assert_eq!(distinct(&threads).len(), 1);
            assert_eq!(runners.spawned(), 1, "the runner survived the panic");
        }
    }
}
