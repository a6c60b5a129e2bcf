//! Deterministic fault injection for supervision testing.
//!
//! A [`FaultPlan`] is a list of windowed, optionally probabilistic rules
//! mapping call indices to [`Fault`]s. Wrap any [`RuntimeHandle`] in a
//! [`ChaosHandle`] to apply the plan — the one injector. A [`KillSwitch`]
//! flips a runtime between alive and (apparently) dead mid-run — the
//! primitive behind the kill/revive e2e tests and the `coop chaos`
//! subcommand.
//!
//! All randomness is a pure function of `(seed, call_index)`, so a chaos
//! run replays bit-identically: a failure found in CI reproduces locally.

use crate::{AgentError, Result, RuntimeHandle, RuntimeStats, ThreadCommand};
use coop_alloc::rng::{splitmix64, Standard};
use coop_telemetry::sync::Mutex;
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One injectable failure mode.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Sleep, then answer normally (slow runtime).
    Delay(Duration),
    /// Stay busy for the given duration and answer this call with a
    /// timeout error afterwards: the caller's (shorter) deadline must
    /// fire, and the late answer must never be taken for a later call's.
    Hang(Duration),
    /// Answer with an application-level error response.
    Error,
    /// Behave as if the runtime process died: the call (and all later
    /// ones in the window) report [`AgentError::Disconnected`].
    Disconnect,
    /// Answer with corrupted statistics: counters run backwards
    /// (`tasks_executed` and `uptime_us` collapse below previously
    /// reported values), exercising regression detection downstream.
    Garbage,
    /// Answer with a semantically wrong response. A [`RuntimeHandle`]
    /// call can only answer in kind, so this degenerates to
    /// [`Fault::Error`], behind a [`proto`](crate::proto) endpoint too.
    WrongResponse,
}

impl Fault {
    fn kind(&self) -> &'static str {
        match self {
            Fault::Delay(_) => "delay",
            Fault::Hang(_) => "hang",
            Fault::Error => "error",
            Fault::Disconnect => "disconnect",
            Fault::Garbage => "garbage",
            Fault::WrongResponse => "wrong-response",
        }
    }
}

/// A windowed rule: applies to calls in `[from_call, until_call)` with
/// the given probability.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// First call index (0-based) the rule covers.
    pub from_call: u64,
    /// One past the last covered call index; `None` = open-ended.
    pub until_call: Option<u64>,
    /// Probability in `[0, 1]` that a covered call actually faults.
    pub probability: f64,
    /// The fault to inject.
    pub fault: Fault,
}

impl FaultRule {
    fn covers(&self, call: u64) -> bool {
        call >= self.from_call && self.until_call.is_none_or(|u| call < u)
    }
}

/// An ordered set of [`FaultRule`]s plus a seed; the first rule that
/// covers a call (and wins its probability roll) decides the fault.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    seed: u64,
}

fn range_bounds(range: impl RangeBounds<u64>) -> (u64, Option<u64>) {
    let from = match range.start_bound() {
        Bound::Included(&s) => s,
        Bound::Excluded(&s) => s.saturating_add(1),
        Bound::Unbounded => 0,
    };
    let until = match range.end_bound() {
        Bound::Included(&e) => Some(e.saturating_add(1)),
        Bound::Excluded(&e) => Some(e),
        Bound::Unbounded => None,
    };
    (from, until)
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a rule covering `range` (call indices) that always fires.
    pub fn inject(self, range: impl RangeBounds<u64>, fault: Fault) -> Self {
        self.inject_with_probability(range, 1.0, fault)
    }

    /// Adds a rule covering `range` that fires with `probability`.
    pub(crate) fn inject_with_probability(
        mut self,
        range: impl RangeBounds<u64>,
        probability: f64,
        fault: Fault,
    ) -> Self {
        let (from_call, until_call) = range_bounds(range);
        self.rules.push(FaultRule {
            from_call,
            until_call,
            probability: probability.clamp(0.0, 1.0),
            fault,
        });
        self
    }

    /// The fault (if any) for call number `call` — deterministic in
    /// `(seed, call)`.
    pub(crate) fn fault_for(&self, call: u64) -> Option<&Fault> {
        for (i, rule) in self.rules.iter().enumerate() {
            if !rule.covers(call) {
                continue;
            }
            if rule.probability >= 1.0 {
                return Some(&rule.fault);
            }
            // splitmix64 over (seed, rule index, call): stable per call.
            let key = self
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(call))
                .wrapping_add((i as u64) << 32);
            let u = f64::sample(splitmix64(key));
            if u < rule.probability {
                return Some(&rule.fault);
            }
        }
        None
    }

    /// Parses a CLI fault spec: `kind[=millis][@from[..until]][~prob]`.
    ///
    /// Examples: `hang=200`, `delay=5@10..20`, `disconnect@30`,
    /// `garbage~0.25`, `error@5..8~0.5`. `kind` is one of `delay`,
    /// `hang`, `error`, `disconnect`, `garbage`, `wrong-response`
    /// (`delay`/`hang` require `=millis`).
    pub fn parse_rule(self, spec: &str) -> std::result::Result<Self, String> {
        let mut rest = spec.trim();
        let mut probability = 1.0f64;
        if let Some((head, prob)) = rest.rsplit_once('~') {
            probability = prob
                .parse::<f64>()
                .map_err(|_| format!("bad probability '{prob}' in fault spec '{spec}'"))?;
            rest = head;
        }
        let mut window: (u64, Option<u64>) = (0, None);
        if let Some((head, win)) = rest.rsplit_once('@') {
            window = if let Some((from, until)) = win.split_once("..") {
                let from = from
                    .parse::<u64>()
                    .map_err(|_| format!("bad window start '{from}' in fault spec '{spec}'"))?;
                let until =
                    if until.is_empty() {
                        None
                    } else {
                        Some(until.parse::<u64>().map_err(|_| {
                            format!("bad window end '{until}' in fault spec '{spec}'")
                        })?)
                    };
                (from, until)
            } else {
                let from = win
                    .parse::<u64>()
                    .map_err(|_| format!("bad window '{win}' in fault spec '{spec}'"))?;
                (from, None)
            };
            rest = head;
        }
        let (kind, millis) = match rest.split_once('=') {
            Some((k, ms)) => (
                k,
                Some(
                    ms.parse::<u64>()
                        .map_err(|_| format!("bad duration '{ms}' in fault spec '{spec}'"))?,
                ),
            ),
            None => (rest, None),
        };
        let fault = match (kind, millis) {
            ("delay", Some(ms)) => Fault::Delay(Duration::from_millis(ms)),
            ("hang", Some(ms)) => Fault::Hang(Duration::from_millis(ms)),
            ("delay" | "hang", None) => {
                return Err(format!("fault '{kind}' requires '=millis' in '{spec}'"))
            }
            ("error", None) => Fault::Error,
            ("disconnect", None) => Fault::Disconnect,
            ("garbage", None) => Fault::Garbage,
            ("wrong-response", None) => Fault::WrongResponse,
            _ => {
                return Err(format!(
                    "unknown fault spec '{spec}' (want kind[=millis][@from[..until]][~prob])"
                ))
            }
        };
        let mut plan = self;
        plan.rules.push(FaultRule {
            from_call: window.0,
            until_call: window.1,
            probability: probability.clamp(0.0, 1.0),
            fault,
        });
        Ok(plan)
    }
}

/// A shared flip-switch marking a runtime dead (every call through its
/// [`ChaosHandle`] reports `Disconnected`) until revived. Clone freely;
/// all clones share the same state.
#[derive(Debug, Clone, Default)]
pub struct KillSwitch {
    dead: Arc<AtomicBool>,
}

impl KillSwitch {
    /// A new switch in the alive position.
    pub fn new() -> Self {
        KillSwitch::default()
    }

    /// Marks the runtime dead.
    pub fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    /// Brings the runtime back.
    pub fn revive(&self) {
        self.dead.store(false, Ordering::SeqCst);
    }

    /// Is the switch in the dead position?
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }
}

/// A [`RuntimeHandle`] wrapper that applies a [`FaultPlan`] (and an
/// optional [`KillSwitch`]) to every call.
pub struct ChaosHandle {
    inner: Box<dyn RuntimeHandle>,
    plan: FaultPlan,
    kill: Option<KillSwitch>,
    calls: AtomicU64,
    last_reported: Mutex<(u64, u64)>, // (tasks_executed, uptime_us)
}

impl ChaosHandle {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: Box<dyn RuntimeHandle>, plan: FaultPlan) -> Self {
        ChaosHandle {
            inner,
            plan,
            kill: None,
            calls: AtomicU64::new(0),
            last_reported: Mutex::new((0, 0)),
        }
    }

    /// Attaches a kill switch (see [`KillSwitch`]).
    pub fn with_kill_switch(mut self, kill: KillSwitch) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Calls made through this handle so far.
    pub(crate) fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// Decides the fault for the next call, honouring the kill switch
    /// first (a dead runtime answers nothing, whatever the plan says).
    fn next_fault(&self) -> Option<Fault> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        if self.kill.as_ref().is_some_and(|k| k.is_dead()) {
            return Some(Fault::Disconnect);
        }
        self.plan.fault_for(call).cloned()
    }

    /// Makes one call under the plan: `call` is the inner call, made
    /// unless the fault replaces the answer. [`Fault::Garbage`] answers
    /// normally here; only [`stats`](RuntimeHandle::stats) corrupts it.
    fn faulted<T>(
        &self,
        fault: &Option<Fault>,
        call: impl FnOnce(&dyn RuntimeHandle) -> Result<T>,
    ) -> Result<T> {
        match fault {
            None | Some(Fault::Garbage) => call(&*self.inner),
            Some(Fault::Delay(d)) => {
                std::thread::sleep(*d);
                call(&*self.inner)
            }
            Some(Fault::Hang(d)) => {
                // A call cannot "not answer"; sleeping past the caller's
                // deadline has the same observable effect, the late answer
                // being dropped by its sequence number.
                std::thread::sleep(*d);
                Err(AgentError::Timeout {
                    runtime: self.name(),
                    deadline: *d,
                })
            }
            Some(Fault::Error) | Some(Fault::WrongResponse) => Err(AgentError::Command {
                runtime: self.name(),
                reason: "injected fault: error response".into(),
            }),
            Some(Fault::Disconnect) => Err(AgentError::Disconnected {
                runtime: self.name(),
            }),
        }
    }
}

impl RuntimeHandle for ChaosHandle {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn stats(&self) -> Result<RuntimeStats> {
        let fault = self.next_fault();
        let mut stats = self.faulted(&fault, |inner| inner.stats())?;
        let mut last = self.last_reported.lock();
        if fault == Some(Fault::Garbage) {
            // Report counters *below* anything previously reported — the
            // classic symptom of a restarted or corrupted runtime.
            stats.tasks_executed = last.0 / 2;
            stats.uptime_us = last.1 / 2;
        }
        *last = (stats.tasks_executed, stats.uptime_us);
        Ok(stats)
    }

    fn command(&self, cmd: ThreadCommand) -> Result<()> {
        let fault = self.next_fault();
        self.faulted(&fault, |inner| inner.command(cmd))
    }
}

impl std::fmt::Debug for ChaosHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosHandle")
            .field("name", &self.inner.name())
            .field("plan", &self.plan)
            .field("calls", &self.calls())
            .finish()
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Delay(d) => write!(f, "delay={}ms", d.as_millis()),
            Fault::Hang(d) => write!(f, "hang={}ms", d.as_millis()),
            other => f.write_str(other.kind()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct Healthy;
    impl RuntimeHandle for Healthy {
        fn name(&self) -> String {
            "healthy".into()
        }
        fn stats(&self) -> Result<RuntimeStats> {
            Ok(RuntimeStats {
                name: "healthy".into(),
                tasks_executed: 100,
                tasks_panicked: 0,
                tasks_spawned: 100,
                tasks_ready: 0,
                tasks_pending: 0,
                running_workers: 2,
                blocked_workers: 0,
                external_threads: 0,
                per_node: vec![],
                user_counters: HashMap::new(),
                uptime_us: 1_000_000,
                tasks_preempted: 0,
                tasks_runaway: 0,
                overbudget_cpu_us: 0,
            })
        }
        fn command(&self, _cmd: ThreadCommand) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn windowed_rules_cover_exactly_their_range() {
        let plan = FaultPlan::new().inject(2..4, Fault::Error);
        assert_eq!(plan.fault_for(0), None);
        assert_eq!(plan.fault_for(1), None);
        assert_eq!(plan.fault_for(2), Some(&Fault::Error));
        assert_eq!(plan.fault_for(3), Some(&Fault::Error));
        assert_eq!(plan.fault_for(4), None);
    }

    #[test]
    fn probabilistic_rules_are_deterministic_and_calibrated() {
        let mut plan = FaultPlan::new().inject_with_probability(0.., 0.3, Fault::Error);
        plan.seed = 42;
        let hits: Vec<bool> = (0..10_000).map(|c| plan.fault_for(c).is_some()).collect();
        let replay: Vec<bool> = (0..10_000).map(|c| plan.fault_for(c).is_some()).collect();
        assert_eq!(hits, replay, "same seed must replay identically");
        let rate = hits.iter().filter(|h| **h).count() as f64 / hits.len() as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed rate {rate}");
        let mut other = FaultPlan::new().inject_with_probability(0.., 0.3, Fault::Error);
        other.seed = 43;
        let differs =
            (0..10_000).any(|c| plan.fault_for(c).is_some() != other.fault_for(c).is_some());
        assert!(differs, "different seeds should differ somewhere");
    }

    #[test]
    fn parse_rule_round_trips_the_documented_forms() {
        let plan = FaultPlan::new()
            .parse_rule("hang=200")
            .and_then(|p| p.parse_rule("delay=5@10..20"))
            .and_then(|p| p.parse_rule("disconnect@30"))
            .and_then(|p| p.parse_rule("garbage~0.25"))
            .and_then(|p| p.parse_rule("error@5..8~0.5"))
            .expect("all specs parse");
        assert_eq!(plan.rules.len(), 5);
        assert_eq!(plan.rules[0].fault, Fault::Hang(Duration::from_millis(200)));
        assert_eq!(plan.rules[1].from_call, 10);
        assert_eq!(plan.rules[1].until_call, Some(20));
        assert_eq!(plan.rules[2].fault, Fault::Disconnect);
        assert_eq!(plan.rules[2].from_call, 30);
        assert_eq!(plan.rules[3].probability, 0.25);
        assert_eq!(plan.rules[4].from_call, 5);
        assert_eq!(plan.rules[4].until_call, Some(8));
        assert_eq!(plan.rules[4].probability, 0.5);

        assert!(FaultPlan::new().parse_rule("delay").is_err());
        assert!(FaultPlan::new().parse_rule("nonsense=1").is_err());
        assert!(FaultPlan::new().parse_rule("hang=abc").is_err());
    }

    #[test]
    fn kill_switch_overrides_the_plan_and_revives() {
        let kill = KillSwitch::new();
        let h =
            ChaosHandle::new(Box::new(Healthy), FaultPlan::new()).with_kill_switch(kill.clone());
        assert!(h.stats().is_ok());
        kill.kill();
        assert!(matches!(
            h.stats().unwrap_err(),
            AgentError::Disconnected { .. }
        ));
        assert!(matches!(
            h.command(ThreadCommand::TotalThreads(1)).unwrap_err(),
            AgentError::Disconnected { .. }
        ));
        kill.revive();
        assert!(h.stats().is_ok());
    }

    #[test]
    fn garbage_stats_run_counters_backwards() {
        let h = ChaosHandle::new(
            Box::new(Healthy),
            FaultPlan::new().inject(1..2, Fault::Garbage),
        );
        let clean = h.stats().unwrap();
        assert_eq!(clean.tasks_executed, 100);
        let garbage = h.stats().unwrap();
        assert!(
            garbage.tasks_executed < clean.tasks_executed,
            "garbage stats must regress: {} vs {}",
            garbage.tasks_executed,
            clean.tasks_executed
        );
        assert!(garbage.uptime_us < clean.uptime_us);
    }
}
