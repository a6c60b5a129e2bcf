//! Declarative per-tenant SLOs evaluated as multi-window burn rates.
//!
//! An [`SloSpec`] states what a tenant is owed — a minimum delivered
//! share — plus an **error budget**: the fraction of decision ticks that may violate the
//! target over a budget window. The [`SloEngine`] re-evaluates every
//! spec once per tick (the agent and the memsim supervisor drive any
//! engine installed on the hub) and reports the standard SRE pair:
//!
//! * **burn rate** — `violating fraction / budget` over each configured
//!   window, the worst window winning. A burn rate of `1` consumes the
//!   budget exactly as fast as it refills; `> 1` means the budget is
//!   being eaten. Short windows catch spikes, long windows slow burns —
//!   the classic multi-window alerting shape.
//! * **budget remaining** — `1 − violations/(budget × budget_window)`
//!   over the longest window; at `≤ 0` the budget is **exhausted**.
//!
//! Both export as gauges (`coop_slo_burn_rate` /
//! `coop_slo_budget_remaining`, labelled `tenant` + `slo`); every
//! violation and each exhaustion edge lands on the timeline as an `slo`
//! instant, and budget exhaustion additionally snapshots the flight
//! recorder (reason `slo-<tenant>-<objective>`) so the events leading up
//! to the miss survive for the post-mortem.
//!
//! Ticks with no data for a spec (an unknown tenant, or one whose ledger
//! has not booked a window yet) are skipped entirely — they neither
//! violate nor heal.

use crate::accounting::LedgerSnapshot;
use crate::json::Value;
use crate::timeline::{ArgValue, TelemetryHub};
use crate::{json_object, json_write};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// Timeline category used for SLO events.
pub const SLO_CAT: &str = "slo";

/// What an [`SloSpec`] constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloObjective {
    /// The tenant's delivered share of executed tasks must stay at or
    /// above the target.
    MinDeliveredShare,
}

impl SloObjective {
    /// Stable slug used in metric labels and JSON.
    pub(crate) fn slug(&self) -> &'static str {
        match self {
            SloObjective::MinDeliveredShare => "delivered_share",
        }
    }
}

/// One declarative SLO for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// The tenant (runtime / simulated application) the SLO protects.
    pub tenant: String,
    /// The constrained quantity.
    pub objective: SloObjective,
    /// Target value (a share in `0..=1`).
    pub target: f64,
    /// Error budget: the fraction of ticks allowed to violate the
    /// target within the budget window (`0 < budget <= 1`).
    pub budget: f64,
    /// Burn-rate windows in ticks, ascending; the largest is the budget
    /// window.
    pub windows: Vec<usize>,
}

impl SloSpec {
    fn new(tenant: &str, objective: SloObjective, target: f64) -> Self {
        SloSpec {
            tenant: tenant.to_string(),
            objective,
            target,
            budget: 0.25,
            windows: vec![5, 20],
        }
    }

    /// The tenant's delivered share must stay `>= target`.
    pub fn min_share(tenant: &str, target: f64) -> Self {
        Self::new(tenant, SloObjective::MinDeliveredShare, target)
    }

    /// Override the burn-rate windows (empty input keeps the default).
    pub fn with_windows(mut self, windows: Vec<usize>) -> Self {
        if !windows.is_empty() {
            self.windows = windows;
            self.windows.retain(|w| *w > 0);
            self.windows.sort_unstable();
            self.windows.dedup();
        }
        self
    }

    /// The budget window: the largest configured window.
    pub(crate) fn budget_window(&self) -> usize {
        self.windows.iter().copied().max().unwrap_or(20)
    }

    /// `true` if `value` violates the target.
    fn violated_by(&self, value: f64) -> bool {
        match self.objective {
            SloObjective::MinDeliveredShare => value < self.target,
        }
    }
}

/// Burn rate over one configured window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowBurn {
    /// Window length, ticks.
    pub ticks: usize,
    /// Violating ticks inside the window (capped at the observed tick
    /// count while warming up).
    pub violations: u64,
    /// `violating fraction / budget` for this window.
    pub burn_rate: f64,
}

json_write!(WindowBurn: ticks, violations, burn_rate);

/// The current standing of one spec.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The spec being evaluated.
    pub spec: SloSpec,
    /// Evaluated ticks (ticks with data).
    pub ticks: u64,
    /// Total violating ticks over the whole run.
    pub violations_total: u64,
    /// Last measured value (0 before the first datum).
    pub last_value: f64,
    /// Worst per-window burn rate right now.
    pub burn_rate: f64,
    /// Highest burn rate ever observed.
    pub burn_rate_peak: f64,
    /// Fraction of the error budget left (can go negative).
    pub budget_remaining: f64,
    /// `true` while the budget is exhausted.
    pub exhausted: bool,
    /// `true` if the budget was ever exhausted during the run.
    pub was_exhausted: bool,
    /// Per-window burn rates, ascending window size.
    pub windows: Vec<WindowBurn>,
    /// Flight-recorder dumps written on exhaustion edges.
    pub dumps: u64,
}

#[derive(Debug)]
struct SpecState {
    spec: SloSpec,
    ring: VecDeque<bool>,
    ticks: u64,
    violations_total: u64,
    last_value: f64,
    burn_rate: f64,
    burn_rate_peak: f64,
    budget_remaining: f64,
    exhausted: bool,
    was_exhausted: bool,
    dumps: u64,
}

impl SpecState {
    fn status(&self) -> SloStatus {
        SloStatus {
            spec: self.spec.clone(),
            ticks: self.ticks,
            violations_total: self.violations_total,
            last_value: self.last_value,
            burn_rate: self.burn_rate,
            burn_rate_peak: self.burn_rate_peak,
            budget_remaining: self.budget_remaining,
            exhausted: self.exhausted,
            was_exhausted: self.was_exhausted,
            windows: self.window_burns(),
            dumps: self.dumps,
        }
    }

    fn window_burns(&self) -> Vec<WindowBurn> {
        self.spec
            .windows
            .iter()
            .map(|&w| {
                let observed = w.min(self.ring.len()).max(1);
                let violations = self.ring.iter().rev().take(w).filter(|&&v| v).count() as u64;
                WindowBurn {
                    ticks: w,
                    violations,
                    burn_rate: violations as f64 / (observed as f64 * self.spec.budget),
                }
            })
            .collect()
    }
}

/// Evaluates a set of [`SloSpec`]s against the hub once per decision
/// tick (see the module docs). Install one with
/// [`TelemetryHub::install_slo_engine`](crate::TelemetryHub::install_slo_engine)
/// so the `/slo` route can serve it and the agent / memsim supervisor
/// drive it.
#[derive(Debug)]
pub struct SloEngine {
    inner: Mutex<Vec<SpecState>>,
}

/// The `/slo` body served when no engine is installed on the hub.
pub(crate) const EMPTY_SLO_JSON: &str = "{\"slos\":[]}";

fn lock(engine: &SloEngine) -> MutexGuard<'_, Vec<SpecState>> {
    engine.inner.lock().unwrap_or_else(|e| e.into_inner())
}

impl SloEngine {
    /// An engine over `specs`.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        SloEngine {
            inner: Mutex::new(
                specs
                    .into_iter()
                    .map(|spec| SpecState {
                        ring: VecDeque::with_capacity(spec.budget_window()),
                        spec,
                        ticks: 0,
                        violations_total: 0,
                        last_value: 0.0,
                        burn_rate: 0.0,
                        burn_rate_peak: 0.0,
                        budget_remaining: 1.0,
                        exhausted: false,
                        was_exhausted: false,
                        dumps: 0,
                    })
                    .collect(),
            ),
        }
    }

    /// Evaluate every spec against the hub's current state: the tenant
    /// ledger for shares. Publishes the burn-rate gauges, timeline instants, and
    /// triggers a flight dump on each budget-exhaustion edge.
    pub fn evaluate(&self, hub: &TelemetryHub, now_us: u64) {
        let ledger = hub.tenant_ledger().map(|l| l.snapshot());
        let mut inner = lock(self);
        for state in inner.iter_mut() {
            let Some(value) = measure(&state.spec, ledger.as_ref()) else {
                continue; // no data this tick: neither violates nor heals
            };
            let violated = state.spec.violated_by(value);
            state.ticks += 1;
            state.last_value = value;
            let cap = state.spec.budget_window();
            if state.ring.len() >= cap {
                state.ring.pop_front();
            }
            state.ring.push_back(violated);

            let burns = state.window_burns();
            state.burn_rate = burns.iter().map(|b| b.burn_rate).fold(0.0, f64::max);
            state.burn_rate_peak = state.burn_rate_peak.max(state.burn_rate);
            let in_budget_window = state.ring.iter().filter(|&&v| v).count() as f64;
            state.budget_remaining = 1.0 - in_budget_window / (state.spec.budget * cap as f64);

            let labels = [
                ("tenant", state.spec.tenant.as_str()),
                ("slo", state.spec.objective.slug()),
            ];
            hub.registry()
                .gauge("coop_slo_burn_rate", &labels)
                .set(state.burn_rate);
            hub.registry()
                .gauge("coop_slo_budget_remaining", &labels)
                .set(state.budget_remaining);

            let track = hub.register_track("slo");
            let args = |value: f64, spec: &SloSpec| {
                vec![
                    ("tenant".to_string(), ArgValue::Str(spec.tenant.clone())),
                    (
                        "slo".to_string(),
                        ArgValue::Str(spec.objective.slug().to_string()),
                    ),
                    ("value".to_string(), ArgValue::F64(value)),
                    ("target".to_string(), ArgValue::F64(spec.target)),
                ]
            };
            if violated {
                state.violations_total += 1;
                hub.record_instant_at(
                    0,
                    track,
                    0,
                    SLO_CAT,
                    "violation",
                    now_us,
                    args(value, &state.spec),
                );
            }
            if state.budget_remaining <= 0.0 && !state.exhausted {
                state.exhausted = true;
                state.was_exhausted = true;
                hub.record_instant_at(
                    0,
                    track,
                    0,
                    SLO_CAT,
                    "budget_exhausted",
                    now_us,
                    args(value, &state.spec),
                );
                if let Some(recorder) = hub.flight_recorder() {
                    let reason =
                        format!("slo-{}-{}", state.spec.tenant, state.spec.objective.slug());
                    if recorder.trigger_dump(&reason).is_some() {
                        state.dumps += 1;
                    }
                }
            } else if state.budget_remaining > 0.0 && state.exhausted {
                state.exhausted = false;
                hub.record_instant_at(
                    0,
                    track,
                    0,
                    SLO_CAT,
                    "budget_restored",
                    now_us,
                    args(value, &state.spec),
                );
            }
        }
    }

    /// Current standing of every spec.
    pub fn report(&self) -> Vec<SloStatus> {
        lock(self).iter().map(|s| s.status()).collect()
    }

    /// The canonical JSON rendering — the exact body the HTTP server's
    /// `/slo` route serves. Deterministic: specs render in construction
    /// order with no wall-clock fields.
    pub fn to_json(&self) -> String {
        let slos: Vec<Value> = self
            .report()
            .iter()
            .map(|s| {
                json_object! {
                    "tenant": s.spec.tenant,
                    "objective": s.spec.objective.slug(),
                    "target": s.spec.target,
                    "budget": s.spec.budget,
                    "ticks": s.ticks,
                    "violations": s.violations_total,
                    "last_value": s.last_value,
                    "burn_rate": s.burn_rate,
                    "burn_rate_peak": s.burn_rate_peak,
                    "budget_remaining": s.budget_remaining,
                    "exhausted": s.exhausted,
                    "was_exhausted": s.was_exhausted,
                    "dumps": s.dumps,
                    "windows": s.windows,
                }
            })
            .collect();
        json_object! {"slos": slos}.write()
    }

    /// A fixed-width text table (for `coop top`).
    pub fn to_text(&self) -> String {
        let report = self.report();
        if report.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:<15} {:>8} {:>8} {:>7} {:>7} {:>8} {:>9}\n",
            "TENANT", "SLO", "TARGET", "VALUE", "BURN", "PEAK", "BUDGET", "EXHAUSTED"
        ));
        for s in &report {
            out.push_str(&format!(
                "{:<14} {:<15} {:>8.3} {:>8.3} {:>7.2} {:>7.2} {:>8.3} {:>9}\n",
                s.spec.tenant,
                s.spec.objective.slug(),
                s.spec.target,
                s.last_value,
                s.burn_rate,
                s.burn_rate_peak,
                s.budget_remaining,
                if s.exhausted {
                    "yes"
                } else if s.was_exhausted {
                    "was"
                } else {
                    "no"
                }
            ));
        }
        out
    }
}

/// The measured value for `spec` this tick, or `None` when there is no
/// data to judge.
fn measure(spec: &SloSpec, ledger: Option<&LedgerSnapshot>) -> Option<f64> {
    match spec.objective {
        // A tenant whose ledger has not booked a single window yet has no
        // share measurement — its first tick merely establishes counter
        // baselines and must not count as a violation.
        SloObjective::MinDeliveredShare => ledger?
            .tenant(&spec.tenant)
            .filter(|t| t.windows_accepted > 0)
            .map(|t| t.delivered_share),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::{TenantLedger, TenantSample};
    use crate::recorder::FlightRecorder;
    use std::sync::Arc;

    fn sample(tenant: &str, tasks: u64, uptime_us: u64) -> TenantSample {
        TenantSample {
            tenant: tenant.to_string(),
            tasks_executed: tasks,
            uptime_us,
            per_node_tasks: vec![tasks],
            running_per_node: vec![1],
            local_pops: tasks,
            remote_steals: 0,
            preemptions: 0,
            overbudget_cpu_us: 0,
        }
    }

    #[test]
    fn burn_rate_rises_and_budget_exhausts_with_a_dump() {
        let hub = Arc::new(TelemetryHub::new());
        let ledger = Arc::new(TenantLedger::new());
        assert!(hub.install_tenant_ledger(Arc::clone(&ledger)));
        ledger.open_epoch(&hub, "a", "managed", 0);
        ledger.open_epoch(&hub, "b", "managed", 0);

        let recorder = Arc::new(FlightRecorder::new(128));
        let dir = std::env::temp_dir().join(format!("slo-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        recorder.set_dump_dir(&dir);
        assert!(hub.install_flight_recorder(Arc::clone(&recorder)));

        let engine = SloEngine::new(vec![SloSpec::min_share("a", 0.4).with_windows(vec![2, 8])]);

        // Healthy ticks: a delivers ~0.5 of the work. (First tick only
        // establishes baselines, so the spec sees no violation.)
        let mut now = 0u64;
        let mut tick = |a_tasks_per_tick: u64, count: u64, cum: &mut (u64, u64)| {
            for _ in 0..count {
                now += 10;
                cum.0 += a_tasks_per_tick;
                cum.1 += 100;
                ledger.tick(
                    &hub,
                    now,
                    &[sample("a", cum.0, now * 100), sample("b", cum.1, now * 100)],
                );
                engine.evaluate(&hub, now);
            }
        };
        let mut cum = (0u64, 0u64);
        tick(100, 4, &mut cum);
        let healthy = engine.report();
        assert_eq!(healthy[0].violations_total, 0);
        assert!(!healthy[0].exhausted);
        assert!((healthy[0].budget_remaining - 1.0).abs() < 1e-12);

        // Outage: a delivers nothing. Budget = 0.25 x 8 ticks = 2
        // violating ticks; the third exhausts it.
        tick(0, 3, &mut cum);
        let starved = engine.report();
        assert!(starved[0].violations_total >= 2);
        assert!(starved[0].burn_rate > 1.0, "burn {}", starved[0].burn_rate);
        assert!(starved[0].exhausted);
        assert!(starved[0].was_exhausted);
        assert_eq!(starved[0].dumps, 1, "one dump per exhaustion edge");
        assert!(std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().starts_with("flight-slo-a")));

        // Gauges and timeline instants are published.
        let burn = hub
            .registry()
            .gauge_value(
                "coop_slo_burn_rate",
                &[("tenant", "a"), ("slo", "delivered_share")],
            )
            .unwrap();
        assert!(burn > 1.0);
        let events = hub.events();
        assert!(events
            .iter()
            .any(|e| e.cat == SLO_CAT && e.name == "violation"));
        assert!(events
            .iter()
            .any(|e| e.cat == SLO_CAT && e.name == "budget_exhausted"));

        // Recovery drains the ring and restores the budget.
        tick(100, 8, &mut cum);
        let recovered = engine.report();
        assert!(!recovered[0].exhausted);
        assert!(recovered[0].was_exhausted, "the episode stays on record");
        assert!(recovered[0].budget_remaining > 0.0);
        assert!(events.len() <= hub.events().len());
        assert!(hub
            .events()
            .iter()
            .any(|e| e.cat == SLO_CAT && e.name == "budget_restored"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_data_ticks_are_skipped() {
        let hub = Arc::new(TelemetryHub::new());
        // No ledger installed: the spec sees no data.
        let engine = SloEngine::new(vec![SloSpec::min_share("ghost", 0.5)]);
        engine.evaluate(&hub, 10);
        // A ledger that has never heard of the tenant: still no data.
        let ledger = Arc::new(TenantLedger::new());
        assert!(hub.install_tenant_ledger(Arc::clone(&ledger)));
        ledger.open_epoch(&hub, "a", "managed", 0);
        ledger.tick(&hub, 20, &[sample("a", 100, 1_000)]);
        ledger.tick(&hub, 30, &[sample("a", 200, 2_000)]);
        engine.evaluate(&hub, 30);
        for s in engine.report() {
            assert_eq!(s.ticks, 0);
            assert_eq!(s.violations_total, 0);
            assert!((s.budget_remaining - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn json_is_valid_and_deterministic() {
        let hub = Arc::new(TelemetryHub::new());
        let engine = SloEngine::new(vec![SloSpec::min_share("a", 0.4)]);
        engine.evaluate(&hub, 1);
        let json = engine.to_json();
        assert_eq!(json, engine.to_json());
        let parsed = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(parsed["slos"][0]["tenant"], "a");
        assert_eq!(parsed["slos"][0]["objective"], "delivered_share");
        // An engine with no specs serves the same shape as the
        // uninstalled fallback.
        assert_eq!(SloEngine::new(Vec::new()).to_json(), EMPTY_SLO_JSON);
    }
}
