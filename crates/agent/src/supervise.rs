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
//! Each supervised handle reaches its runtime through a [`Courier`] — the
//! agent's end of [`proto`](crate::proto)'s one transport (messages,
//! sequence numbers and the serving loop are described there, the waiting
//! in `chan.rs`). Who owns the serving thread: a handle that is such a
//! channel already (a [`proto::connect`](crate::proto::connect) endpoint)
//! hands its courier over when it is wrapped, and the thread stays its
//! `RuntimeSideEndpoint`'s; for any other handle the first call spawns a
//! detached `<name>-courier` thread that owns the handle and serves it.
//! A supervised call has two halves: `post` hands the request over and
//! returns at once with the call's deadline (post time +
//! [`DetectorConfig::call_deadline`]); `await_reply` waits for the answer
//! until that deadline. `call_all` is the only caller of
//! either: it posts one request to every handle of a phase, then gathers
//! the replies **in the order the handles were given** (the agent's
//! registry order) and feeds each attempt to that handle's health state
//! machine in that order. `stats()`, `command()` and `probe()` are its
//! one-handle case, so there is no second, blocking path to keep in step.
//!
//! What that buys, and what it does not change:
//!
//! * The runtimes of one phase work *concurrently*: a phase costs the
//!   slowest round trip, not the sum, and K runtimes hanging in the same
//!   phase cost **one** `call_deadline`, not K of them — their deadlines
//!   all started at the scatter.
//! * Retries run in *rounds*: the handles that failed in transport and
//!   still have retries left are re-posted together after one sleep of
//!   the longest jittered backoff among them, so a phase waits at most
//!   one `call_deadline` per attempt plus one backoff sequence, whatever
//!   the number of sick runtimes.
//! * Per runtime nothing is reordered: a handle is posted to at most once
//!   per round (its request channel holds one call), attempts, health
//!   transitions and retries of one runtime happen in the same sequence
//!   as in a blocking loop, and results come back in registry order
//!   whatever order the replies arrived in. Only the effects of one phase
//!   on *different* runtimes are concurrent.
//!
//! Deadlines are enforced even when the underlying handle *hangs*: the
//! serving thread stays inside the inner call, the agent's wait ends at
//! the deadline, and the courier remembers the call as in flight. Until
//! its (stale) reply arrives every later call fails at once ("previous
//! call still in flight") without being posted — nothing queues up behind
//! a hang to be executed late, and a hung runtime costs later ticks
//! nothing. If the inner handle *panics*, the serving thread dies and
//! that call and every later one report `Disconnected` — a panic in one
//! runtime's glue code cannot unwind into the agent loop.

use crate::proto::{Courier, Reply, Request};
use crate::{AgentError, Result, RuntimeHandle, RuntimeStats, ThreadCommand};
use coop_telemetry::sync::Mutex;
use coop_telemetry::{ArgValue, Counter, Gauge, TelemetryHub, TrackId};
use std::sync::Arc;
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
    /// [`proto`](crate::proto) endpoint waits the default's).
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

enum CourierState {
    /// No serving thread yet; the inner handle waits here.
    Idle(Option<Box<dyn RuntimeHandle>>),
    /// Adopted from the handle, or spawned over it by the first call.
    Running(Courier),
    /// Spawning failed; the error is replayed on every call.
    Failed(AgentError),
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
    courier: Mutex<CourierState>,
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
    /// Wraps `inner` with the given supervision configuration. A handle
    /// that is a channel already gives up its courier here
    /// ([`RuntimeHandle::take_courier`]); for any other the courier thread
    /// is spawned lazily on the first call, so construction never fails;
    /// a failed spawn surfaces as [`AgentError::Spawn`] from the call that
    /// needed it.
    pub(crate) fn new(mut inner: Box<dyn RuntimeHandle>, config: SupervisionConfig) -> Self {
        let name = inner.name();
        let courier = match inner.take_courier() {
            Some(mut adopted) => {
                adopted.call_deadline = config.detector.call_deadline;
                CourierState::Running(adopted)
            }
            None => CourierState::Idle(Some(inner)),
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
            courier: Mutex::new(courier),
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

    /// First half of a supervised call ([`Courier::post`]), spawning the
    /// courier thread on first use. Fails without posting when that thread
    /// could not be spawned. Does not touch the health state machine.
    fn post(&self, request: Request) -> Result<(u64, Instant)> {
        let mut guard = self.courier.lock();
        if let CourierState::Idle(inner) = &mut *guard {
            let inner = inner.take().expect("idle courier holds the handle");
            // Never joined (a hung inner call would block the join forever):
            // the thread ends, and drops `inner`, when this handle's drop
            // disconnects the request channel — at once if it is parked,
            // after the call it is inside otherwise.
            let deadline = self.config.detector.call_deadline;
            *guard = match Courier::spawn("courier", inner, deadline) {
                Ok((courier, _detached)) => CourierState::Running(courier),
                Err(e) => CourierState::Failed(e),
            };
        }
        match &mut *guard {
            CourierState::Running(courier) => courier.post(request),
            CourierState::Failed(e) => Err(e.clone()),
            CourierState::Idle(_) => unreachable!("courier spawned above"),
        }
    }

    /// Second half ([`Courier::await_reply`]).
    fn await_reply(&self, seq: u64, deadline: Instant) -> Result<Reply> {
        let mut guard = self.courier.lock();
        let CourierState::Running(courier) = &mut *guard else {
            unreachable!("a call was posted, so the courier runs")
        };
        courier.await_reply(seq, deadline)
    }

    /// The jittered delay before retry number `retry` (0-based).
    fn next_backoff(&self, retry: u32) -> Duration {
        let u = (xorshift(&mut self.rng.lock()) >> 11) as f64 / (1u64 << 53) as f64;
        self.config.backoff.delay(retry, u)
    }
}

/// The one supervised call path: posts `calls[k].1` to `calls[k].0` for
/// every `k` (scatter), then awaits the replies in slice order (gather),
/// feeding each attempt to its handle's health state machine in that
/// order. With `retry`, the handles that failed in transport, have
/// retries left and are not Dead are re-posted together in retry rounds,
/// after one sleep of the longest jittered backoff among them. Returns
/// one final outcome per call, in slice order.
///
/// A handle must appear at most once in `calls`: its request channel
/// holds one call.
fn call_all(calls: &[(&SupervisedHandle, Request)], retry: bool) -> Vec<Result<Reply>> {
    let mut outcomes: Vec<Option<Result<Reply>>> = calls.iter().map(|_| None).collect();
    let mut round: Vec<usize> = (0..calls.len()).collect();
    let mut retries = 0u32;
    loop {
        let posted: Vec<Result<(u64, Instant)>> = round
            .iter()
            .map(|&k| calls[k].0.post(calls[k].1.clone()))
            .collect();
        let mut again = Vec::new();
        let mut backoff = Duration::ZERO;
        for (&k, posted) in round.iter().zip(posted) {
            let handle = calls[k].0;
            let outcome = posted.and_then(|(seq, deadline)| handle.await_reply(seq, deadline));
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
}
