//! Per-tenant resource accounting: the [`TenantLedger`].
//!
//! The paper's cooperating-applications contract says every application
//! gets a negotiated share of the machine — but until now fairness only
//! existed as a *search objective*, never as a measured quantity. The
//! ledger closes that gap: it books, per tenant (one tenant = one managed
//! runtime or simulated application),
//!
//! * **CPU time delivered per NUMA node** — wall-clock window length ×
//!   observed per-node worker occupancy,
//! * **locality ratio** — local pops (own deque, same-node sibling
//!   steals, injector takes) versus cross-node steals, from the
//!   scheduler's `coop_sched_local_pops_total` /
//!   `coop_sched_steals_total{source="remote"}` counters,
//! * **delivered vs. entitled share** — the fraction of this window's
//!   executed tasks versus the share the agent's last applied command
//!   granted, and
//! * a **Jain's fairness index** across the live tenants' delivered
//!   shares.
//!
//! Feeding the ledger is a control-plane operation: the agent (or the
//! memsim supervisor) calls [`TenantLedger::tick`] once per decision tick
//! with cumulative counter samples it already collects, so the scheduler
//! hot path gains no new locks — the ledger piggybacks on the per-worker
//! metric shards that already exist.
//!
//! Samples are *cumulative* counters. If any counter in a tenant's sample
//! runs backwards (a restarted runtime, a corrupted reply), the whole
//! measurement window is **discarded** — the same rule the agent applies
//! to share measurements — instead of booking negative usage; the tenant
//! keeps its previous delivered share and the discard is counted in
//! `coop_tenant_windows_discarded_total`.
//!
//! Lifecycle is tracked as **epochs**: managing or re-admitting a tenant
//! opens one, evicting it closes one. Epoch edges land on the timeline as
//! `tenant` instants, so a tenant's accounting can always be scoped to
//! the interval it was actually admitted.

use crate::json::ToJson;
use crate::json_write;
use crate::metrics::{Counter, Gauge, MetricsRegistry};
use crate::timeline::{ArgValue, TelemetryHub};
use std::sync::{Arc, Mutex, MutexGuard};

/// Timeline category used for tenant epoch events.
pub const TENANT_CAT: &str = "tenant";

/// Maximum retained `(ts_us, delivered_share)` points per tenant.
pub const SHARE_HISTORY_LIMIT: usize = 1024;

/// Jain's fairness index over a set of allocations:
/// `(Σxᵢ)² / (n · Σxᵢ²)`.
///
/// Bounded to `[1/n, 1]`; `1` iff all values are equal, `1/n` when one
/// value monopolizes. Permutation- and scale-invariant. An empty or
/// all-zero input is defined as perfectly fair (`1.0`); non-finite or
/// negative entries are ignored.
pub fn jain_index(values: &[f64]) -> f64 {
    let mut n = 0usize;
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for &v in values {
        if v.is_finite() && v >= 0.0 {
            n += 1;
            sum += v;
            sum_sq += v * v;
        }
    }
    if n == 0 || sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// The scheduler's locality counters for one runtime, read from the
/// shared registry: `(local, remote)` where `local` counts own-deque /
/// injector pops plus same-node sibling steals and `remote` counts
/// cross-node steals (both priority tiers).
pub fn scheduler_locality(registry: &MetricsRegistry, runtime: &str) -> (u64, u64) {
    let mut local = registry
        .counter("coop_sched_local_pops_total", &[("runtime", runtime)])
        .get();
    let mut remote = 0u64;
    for tier in ["high", "normal"] {
        local += registry
            .counter(
                "coop_sched_steals_total",
                &[("runtime", runtime), ("tier", tier), ("source", "sibling")],
            )
            .get();
        remote += registry
            .counter(
                "coop_sched_steals_total",
                &[("runtime", runtime), ("tier", tier), ("source", "remote")],
            )
            .get();
    }
    (local, remote)
}

/// One tenant's *cumulative* counters at a sampling instant. All fields
/// except `running_per_node` must be monotonic; a decrease in any of them
/// discards the window (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantSample {
    /// Tenant (runtime / simulated application) name.
    pub tenant: String,
    /// Tasks executed since the tenant started.
    pub tasks_executed: u64,
    /// Microseconds since the tenant started.
    pub uptime_us: u64,
    /// Tasks executed per NUMA node since the tenant started.
    pub per_node_tasks: Vec<u64>,
    /// Workers currently running per NUMA node (occupancy — not
    /// monotonic, never triggers a discard).
    pub running_per_node: Vec<u64>,
    /// Local pops (own deque, sibling steals, injector takes), cumulative.
    pub local_pops: u64,
    /// Cross-node steals, cumulative.
    pub remote_steals: u64,
    /// Fuel-exhaustion preemptions (tasks parked at a safe point),
    /// cumulative.
    pub preemptions: u64,
    /// CPU time booked past the watchdog deadline by runaway tasks,
    /// microseconds, cumulative.
    pub overbudget_cpu_us: u64,
}

impl TenantSample {
    /// `true` if any monotonic counter of `self` is below `baseline` —
    /// the window-discard trigger.
    fn regressed_from(&self, baseline: &TenantSample) -> bool {
        if self.tasks_executed < baseline.tasks_executed
            || self.uptime_us < baseline.uptime_us
            || self.local_pops < baseline.local_pops
            || self.remote_steals < baseline.remote_steals
            || self.preemptions < baseline.preemptions
            || self.overbudget_cpu_us < baseline.overbudget_cpu_us
        {
            return true;
        }
        self.per_node_tasks
            .iter()
            .zip(baseline.per_node_tasks.iter())
            .any(|(now, was)| now < was)
    }
}

/// One admission interval of a tenant: opened when the agent manages or
/// re-admits it, closed when it is evicted.
#[derive(Debug, Clone, PartialEq)]
pub struct Epoch {
    /// Hub-clock open time, microseconds.
    pub opened_us: u64,
    /// Hub-clock close time; `None` while the epoch is open.
    pub closed_us: Option<u64>,
    /// Why the epoch opened (`managed`, `readmitted`, `revived`, …).
    pub reason: String,
}

/// A point-in-time copy of one tenant's account.
#[derive(Debug, Clone)]
pub struct TenantAccount {
    /// Tenant name.
    pub tenant: String,
    /// `true` while the tenant's latest epoch is open.
    pub live: bool,
    /// Share the agent's last applied command entitled the tenant to
    /// (fraction of the machine's cores), if one was ever pushed.
    pub entitled_share: Option<f64>,
    /// The tenant's fraction of all tasks delivered in the last accepted
    /// window.
    pub delivered_share: f64,
    /// `local / (local + remote)` over the accumulated scheduler
    /// counters; `1.0` before any pop was observed.
    pub locality_ratio: f64,
    /// Tasks delivered across all accepted windows.
    pub tasks_total: u64,
    /// CPU time delivered per NUMA node (window length × occupancy),
    /// microseconds, across all accepted windows.
    pub cpu_us_per_node: Vec<u64>,
    /// Local pops accumulated across accepted windows.
    pub local_pops: u64,
    /// Cross-node steals accumulated across accepted windows.
    pub remote_steals: u64,
    /// Fuel-exhaustion preemptions accumulated across accepted windows.
    pub preemptions: u64,
    /// Over-budget (runaway) CPU time booked against this tenant,
    /// microseconds, across accepted windows.
    pub overbudget_cpu_us: u64,
    /// Preemptions per second over the last accepted window (`0.0`
    /// before any window with a non-zero length was booked).
    pub preemption_rate: f64,
    /// Measurement windows booked.
    pub windows_accepted: u64,
    /// Measurement windows discarded on counter regression.
    pub windows_discarded: u64,
    /// Admission epochs, oldest first.
    pub epochs: Vec<Epoch>,
    /// Recent `(ts_us, delivered_share)` points, oldest first (capped at
    /// [`SHARE_HISTORY_LIMIT`]).
    pub share_history: Vec<(u64, f64)>,
}

/// A point-in-time copy of the whole ledger.
#[derive(Debug, Clone)]
pub struct LedgerSnapshot {
    /// Hub-clock time of the last [`TenantLedger::tick`].
    pub updated_us: u64,
    /// Jain's fairness index over the live tenants' delivered shares.
    pub jain: f64,
    /// Per-tenant accounts, sorted by tenant name.
    pub tenants: Vec<TenantAccount>,
}

json_write!(Epoch: opened_us, closed_us, reason);
json_write!(TenantAccount: tenant, live, entitled_share, delivered_share, locality_ratio, tasks_total,
    cpu_us_per_node, local_pops, remote_steals, preemptions, overbudget_cpu_us, preemption_rate,
    windows_accepted, windows_discarded, epochs);
json_write!(LedgerSnapshot: updated_us, jain, tenants);

impl LedgerSnapshot {
    /// The account of `tenant`, if it was ever seen.
    pub fn tenant(&self, tenant: &str) -> Option<&TenantAccount> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

#[derive(Debug)]
struct TenantState {
    name: String,
    live: bool,
    baseline: Option<TenantSample>,
    entitled_share: Option<f64>,
    delivered_share: f64,
    tasks_total: u64,
    cpu_us_per_node: Vec<u64>,
    local_pops: u64,
    remote_steals: u64,
    preemptions: u64,
    overbudget_cpu_us: u64,
    preemption_rate: f64,
    windows_accepted: u64,
    windows_discarded: u64,
    epochs: Vec<Epoch>,
    share_history: Vec<(u64, f64)>,
    series: TenantSeries,
}

/// One tenant's `coop_tenant_*` series, each resolved against the
/// registry the first time the ledger has a value for it — the series
/// that exist are the ones a lookup per tick would have created — and
/// kept, so a steady-state tick looks nothing up.
#[derive(Debug, Default)]
struct TenantSeries {
    tasks: Option<Arc<Counter>>,
    windows_discarded: Option<Arc<Counter>>,
    preemptions: Option<Arc<Counter>>,
    overbudget_cpu_us: Option<Arc<Counter>>,
    /// Indexed by node; grows with the tenant's node count.
    cpu_us: Vec<Option<Arc<Counter>>>,
    delivered_share: Option<Arc<Gauge>>,
    locality_ratio: Option<Arc<Gauge>>,
    preemption_rate: Option<Arc<Gauge>>,
    entitled_share: Option<Arc<Gauge>>,
}

impl TenantState {
    fn new(name: &str) -> Self {
        TenantState {
            name: name.to_string(),
            live: false,
            baseline: None,
            entitled_share: None,
            delivered_share: 0.0,
            tasks_total: 0,
            cpu_us_per_node: Vec::new(),
            local_pops: 0,
            remote_steals: 0,
            preemptions: 0,
            overbudget_cpu_us: 0,
            preemption_rate: 0.0,
            windows_accepted: 0,
            windows_discarded: 0,
            epochs: Vec::new(),
            share_history: Vec::new(),
            series: TenantSeries::default(),
        }
    }

    fn locality_ratio(&self) -> f64 {
        let total = self.local_pops + self.remote_steals;
        if total == 0 {
            1.0
        } else {
            self.local_pops as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct LedgerInner {
    tenants: Vec<TenantState>,
    updated_us: u64,
    jain: f64,
    /// [`MetricsRegistry::id`] of the registry the cached series handles
    /// (`TenantState::series`, `jain_gauge`) were resolved against.
    registry_id: Option<u64>,
    jain_gauge: Option<Arc<Gauge>>,
}

/// The per-tenant resource accounting ledger (see the module docs).
///
/// Install one on the hub with
/// [`TelemetryHub::install_tenant_ledger`](crate::TelemetryHub::install_tenant_ledger)
/// so the HTTP server's `/tenants` route and `coop top` can reach it;
/// the agent and the memsim supervisor feed any installed ledger
/// automatically.
#[derive(Debug, Default)]
pub struct TenantLedger {
    inner: Mutex<LedgerInner>,
}

/// The `/tenants` body served when no ledger is installed on the hub.
pub(crate) const EMPTY_TENANTS_JSON: &str = "{\"updated_us\":0,\"jain\":1.0,\"tenants\":[]}";

fn lock(ledger: &TenantLedger) -> MutexGuard<'_, LedgerInner> {
    ledger.inner.lock().unwrap_or_else(|e| e.into_inner())
}

fn state_mut<'a>(inner: &'a mut LedgerInner, tenant: &str) -> &'a mut TenantState {
    if let Some(idx) = inner.tenants.iter().position(|t| t.name == tenant) {
        return &mut inner.tenants[idx];
    }
    // Keep the vector sorted by name so every export is deterministic.
    let idx = inner.tenants.partition_point(|t| t.name.as_str() < tenant);
    inner.tenants.insert(idx, TenantState::new(tenant));
    &mut inner.tenants[idx]
}

impl TenantLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open an admission epoch for `tenant` (creating its account on
    /// first sight), mark it live, and put a `tenant`/`epoch_open`
    /// instant on the timeline. Opening an already-open tenant is a
    /// no-op.
    pub fn open_epoch(&self, hub: &TelemetryHub, tenant: &str, reason: &str, now_us: u64) {
        {
            let mut inner = lock(self);
            let state = state_mut(&mut inner, tenant);
            if state.live {
                return;
            }
            state.live = true;
            state.epochs.push(Epoch {
                opened_us: now_us,
                closed_us: None,
                reason: reason.to_string(),
            });
            // A tenant returning from eviction restarts its counters;
            // never diff the new life against the old one's baseline.
            state.baseline = None;
        }
        self.epoch_instant(hub, tenant, "epoch_open", reason, now_us);
    }

    /// Close `tenant`'s open epoch (eviction), mark it not live, and put
    /// a `tenant`/`epoch_close` instant on the timeline. Closing an
    /// already-closed (or unknown) tenant is a no-op.
    pub fn close_epoch(&self, hub: &TelemetryHub, tenant: &str, reason: &str, now_us: u64) {
        {
            let mut inner = lock(self);
            let Some(state) = inner.tenants.iter_mut().find(|t| t.name == tenant) else {
                return;
            };
            if !state.live {
                return;
            }
            state.live = false;
            if let Some(epoch) = state.epochs.last_mut() {
                if epoch.closed_us.is_none() {
                    epoch.closed_us = Some(now_us);
                }
            }
        }
        self.epoch_instant(hub, tenant, "epoch_close", reason, now_us);
    }

    fn epoch_instant(&self, hub: &TelemetryHub, tenant: &str, name: &str, reason: &str, ts: u64) {
        let track = hub.register_track("tenants");
        hub.record_instant_at(
            0,
            track,
            0,
            TENANT_CAT,
            name,
            ts,
            vec![
                ("tenant".to_string(), ArgValue::Str(tenant.to_string())),
                ("reason".to_string(), ArgValue::Str(reason.to_string())),
            ],
        );
    }

    /// Record the share `tenant` is entitled to (fraction of the
    /// machine's cores), from the agent's last applied command or the
    /// supervisor's current assignment. Published as
    /// `coop_tenant_entitled_share` on the next [`tick`](Self::tick).
    pub fn set_entitlement(&self, tenant: &str, share: f64) {
        let mut inner = lock(self);
        state_mut(&mut inner, tenant).entitled_share = Some(share.clamp(0.0, 1.0));
    }

    /// Book one measurement window from cumulative counter samples.
    ///
    /// For each sample the delta against the tenant's previous accepted
    /// sample is computed (a tenant's first sample diffs against zero —
    /// counters start at zero at birth); a window whose counters ran
    /// backwards is discarded whole (the baseline resets to the new
    /// sample). Live
    /// tenants *not* present in `samples` (and sampled tenants with no
    /// work) delivered nothing this window — their share drops to zero.
    /// Afterwards delivered shares, the Jain index and every
    /// `coop_tenant_*` metric are refreshed on `hub`.
    pub fn tick(&self, hub: &TelemetryHub, now_us: u64, samples: &[TenantSample]) {
        let registry = hub.registry();
        let mut inner = lock(self);
        inner.updated_us = now_us;
        if inner.registry_id != Some(registry.id()) {
            // A different hub than last time: the cached handles publish
            // into the old one's registry.
            inner.registry_id = Some(registry.id());
            inner.jain_gauge = None;
            for state in inner.tenants.iter_mut() {
                state.series = TenantSeries::default();
            }
        }

        // Window weights (delta tasks) per sampled tenant, in sample
        // order; `None` marks a discarded window.
        let mut weights: Vec<(String, Option<u64>)> = Vec::with_capacity(samples.len());
        for sample in samples {
            let state = state_mut(&mut inner, &sample.tenant);
            // A fresh tenant (or a new life after an epoch re-open) diffs
            // against zero: runtime counters start at zero at birth, so
            // the first sample *is* the work delivered since then — and
            // ledger totals stay reconcilable with the cumulative
            // scheduler counters.
            let baseline = state.baseline.take().unwrap_or_default();
            if sample.regressed_from(&baseline) {
                state.windows_discarded += 1;
                state.baseline = Some(sample.clone());
                state
                    .series
                    .windows_discarded
                    .get_or_insert_with(|| {
                        registry.counter(
                            "coop_tenant_windows_discarded_total",
                            &[("tenant", &sample.tenant)],
                        )
                    })
                    .inc();
                weights.push((sample.tenant.clone(), None));
                continue;
            }

            let tasks_delta = sample.tasks_executed - baseline.tasks_executed;
            let window_us = sample.uptime_us - baseline.uptime_us;
            let local_delta = sample.local_pops - baseline.local_pops;
            let remote_delta = sample.remote_steals - baseline.remote_steals;
            let preempt_delta = sample.preemptions - baseline.preemptions;
            let overbudget_delta = sample.overbudget_cpu_us - baseline.overbudget_cpu_us;
            state.tasks_total += tasks_delta;
            state.local_pops += local_delta;
            state.remote_steals += remote_delta;
            state.preemptions += preempt_delta;
            state.overbudget_cpu_us += overbudget_delta;
            state.preemption_rate = if window_us > 0 {
                preempt_delta as f64 / (window_us as f64 / 1e6)
            } else {
                0.0
            };
            if preempt_delta > 0 {
                state
                    .series
                    .preemptions
                    .get_or_insert_with(|| {
                        registry.counter(
                            "coop_tenant_preemptions_total",
                            &[("tenant", &sample.tenant)],
                        )
                    })
                    .add(preempt_delta);
            }
            if overbudget_delta > 0 {
                state
                    .series
                    .overbudget_cpu_us
                    .get_or_insert_with(|| {
                        registry.counter(
                            "coop_tenant_overbudget_cpu_us_total",
                            &[("tenant", &sample.tenant)],
                        )
                    })
                    .add(overbudget_delta);
            }
            let nodes = sample
                .per_node_tasks
                .len()
                .max(sample.running_per_node.len());
            if state.cpu_us_per_node.len() < nodes {
                state.cpu_us_per_node.resize(nodes, 0);
            }
            if state.series.cpu_us.len() < nodes {
                state.series.cpu_us.resize(nodes, None);
            }
            for node in 0..nodes {
                let running = sample.running_per_node.get(node).copied().unwrap_or(0);
                let cpu_us = window_us * running;
                state.cpu_us_per_node[node] += cpu_us;
                if cpu_us > 0 {
                    state.series.cpu_us[node]
                        .get_or_insert_with(|| {
                            registry.counter(
                                "coop_tenant_cpu_us_total",
                                &[("tenant", &sample.tenant), ("node", &node.to_string())],
                            )
                        })
                        .add(cpu_us);
                }
            }
            state.windows_accepted += 1;
            state.baseline = Some(sample.clone());

            state
                .series
                .tasks
                .get_or_insert_with(|| {
                    registry.counter("coop_tenant_tasks_total", &[("tenant", &sample.tenant)])
                })
                .add(tasks_delta);
            weights.push((sample.tenant.clone(), Some(tasks_delta)));
        }

        // Delivered shares: each accepted window's tasks over the total
        // delivered this window. Discarded windows keep their previous
        // share (the PR-3 rule: no data, not zero data); tenants that
        // were not sampled delivered nothing.
        let total: u64 = weights.iter().filter_map(|(_, w)| *w).sum();
        for state in inner.tenants.iter_mut() {
            match weights.iter().find(|(name, _)| *name == state.name) {
                Some((_, Some(delta))) => {
                    state.delivered_share = if total > 0 {
                        *delta as f64 / total as f64
                    } else {
                        0.0
                    };
                }
                Some((_, None)) => {} // discarded: keep the last share
                None => state.delivered_share = 0.0,
            }
            state.share_history.push((now_us, state.delivered_share));
            if state.share_history.len() > SHARE_HISTORY_LIMIT {
                let excess = state.share_history.len() - SHARE_HISTORY_LIMIT;
                state.share_history.drain(..excess);
            }
        }

        let live_shares: Vec<f64> = inner
            .tenants
            .iter()
            .filter(|t| t.live)
            .map(|t| t.delivered_share)
            .collect();
        inner.jain = jain_index(&live_shares);

        for state in inner.tenants.iter_mut() {
            let locality_ratio = state.locality_ratio();
            let labels = [("tenant", state.name.as_str())];
            let series = &mut state.series;
            series
                .delivered_share
                .get_or_insert_with(|| registry.gauge("coop_tenant_delivered_share", &labels))
                .set(state.delivered_share);
            series
                .locality_ratio
                .get_or_insert_with(|| registry.gauge("coop_tenant_locality_ratio", &labels))
                .set(locality_ratio);
            series
                .preemption_rate
                .get_or_insert_with(|| registry.gauge("coop_tenant_preemption_rate", &labels))
                .set(state.preemption_rate);
            if let Some(entitled) = state.entitled_share {
                series
                    .entitled_share
                    .get_or_insert_with(|| registry.gauge("coop_tenant_entitled_share", &labels))
                    .set(entitled);
            }
        }
        let jain = inner.jain;
        inner
            .jain_gauge
            .get_or_insert_with(|| registry.gauge("coop_tenant_jain_index", &[]))
            .set(jain);
    }

    /// A point-in-time copy of every account.
    pub fn snapshot(&self) -> LedgerSnapshot {
        let inner = lock(self);
        LedgerSnapshot {
            updated_us: inner.updated_us,
            jain: inner.jain,
            tenants: inner
                .tenants
                .iter()
                .map(|t| TenantAccount {
                    tenant: t.name.clone(),
                    live: t.live,
                    entitled_share: t.entitled_share,
                    delivered_share: t.delivered_share,
                    locality_ratio: t.locality_ratio(),
                    tasks_total: t.tasks_total,
                    cpu_us_per_node: t.cpu_us_per_node.clone(),
                    local_pops: t.local_pops,
                    remote_steals: t.remote_steals,
                    preemptions: t.preemptions,
                    overbudget_cpu_us: t.overbudget_cpu_us,
                    preemption_rate: t.preemption_rate,
                    windows_accepted: t.windows_accepted,
                    windows_discarded: t.windows_discarded,
                    epochs: t.epochs.clone(),
                    share_history: t.share_history.clone(),
                })
                .collect(),
        }
    }

    /// The canonical JSON rendering of the ledger — the exact body the
    /// HTTP server's `/tenants` route serves and `coop top --format
    /// json` prints (both call this, so they are byte-identical).
    /// Tenants are sorted by name; no wall-clock field changes between a
    /// render and a later scrape of an idle ledger.
    pub fn to_json(&self) -> String {
        self.snapshot().to_value().write()
    }

    /// A fixed-width text table of the ledger (for `coop top`).
    pub fn to_text(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        out.push_str(&format!(
            "tenants: {}   jain fairness index: {:.4}\n",
            snap.tenants.len(),
            snap.jain
        ));
        out.push_str(&format!(
            "{:<14} {:>5} {:>9} {:>9} {:>9} {:>10} {:>7} {:>7} {:>5} {:>5}\n",
            "TENANT",
            "LIVE",
            "ENTITLED",
            "DELIVERED",
            "LOCALITY",
            "TASKS",
            "LOCAL",
            "REMOTE",
            "WIN",
            "DISC"
        ));
        for t in &snap.tenants {
            let entitled = match t.entitled_share {
                Some(v) => format!("{:.3}", v),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<14} {:>5} {:>9} {:>9.3} {:>9.3} {:>10} {:>7} {:>7} {:>5} {:>5}\n",
                t.tenant,
                if t.live { "yes" } else { "no" },
                entitled,
                t.delivered_share,
                t.locality_ratio,
                t.tasks_total,
                t.local_pops,
                t.remote_steals,
                t.windows_accepted,
                t.windows_discarded
            ));
            for (node, us) in t.cpu_us_per_node.iter().enumerate() {
                if *us > 0 {
                    out.push_str(&format!("    node{node}: {us} cpu-us\n"));
                }
            }
            if t.preemptions > 0 || t.overbudget_cpu_us > 0 {
                out.push_str(&format!(
                    "    preemptions: {} ({:.2}/s)   overbudget: {} cpu-us\n",
                    t.preemptions, t.preemption_rate, t.overbudget_cpu_us
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample(tenant: &str, tasks: u64, uptime_us: u64) -> TenantSample {
        TenantSample {
            tenant: tenant.to_string(),
            tasks_executed: tasks,
            uptime_us,
            per_node_tasks: vec![tasks / 2, tasks - tasks / 2],
            running_per_node: vec![1, 1],
            local_pops: tasks,
            remote_steals: 0,
            preemptions: 0,
            overbudget_cpu_us: 0,
        }
    }

    // --- Jain's index property tests (satellite) ---

    #[test]
    fn jain_equal_shares_is_one() {
        for n in 1..20 {
            let xs = vec![0.37f64; n];
            assert!((jain_index(&xs) - 1.0).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn jain_is_bounded_between_one_over_n_and_one() {
        // A deterministic LCG generates arbitrary non-negative inputs.
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 10_000) as f64 / 100.0
        };
        for n in 1..=64usize {
            let xs: Vec<f64> = (0..n).map(|_| next()).collect();
            let j = jain_index(&xs);
            assert!(
                (1.0 / n as f64) - 1e-12 <= j && j <= 1.0 + 1e-12,
                "n={n} jain={j} xs={xs:?}"
            );
        }
        // The lower bound is attained by a monopolist.
        let mut monopolist = vec![0.0; 8];
        monopolist[3] = 5.0;
        assert!((jain_index(&monopolist) - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn jain_is_permutation_invariant() {
        let xs = [4.0, 1.0, 0.0, 9.5, 2.25, 7.0];
        let base = jain_index(&xs);
        // Walk a few rotations and a reversal — all must agree.
        let mut rotated = xs.to_vec();
        for _ in 0..xs.len() {
            rotated.rotate_left(1);
            assert!((jain_index(&rotated) - base).abs() < 1e-12);
        }
        let reversed: Vec<f64> = xs.iter().rev().copied().collect();
        assert!((jain_index(&reversed) - base).abs() < 1e-12);
    }

    #[test]
    fn jain_edge_cases() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        // Non-finite and negative entries are ignored, not booked.
        assert!((jain_index(&[1.0, 1.0, f64::NAN, -3.0]) - 1.0).abs() < 1e-12);
    }

    // --- Ledger behaviour ---

    #[test]
    fn books_deltas_and_computes_shares() {
        let hub = Arc::new(TelemetryHub::new());
        let ledger = TenantLedger::new();
        ledger.open_epoch(&hub, "a", "managed", 0);
        ledger.open_epoch(&hub, "b", "managed", 0);

        ledger.tick(&hub, 10, &[sample("a", 0, 0), sample("b", 0, 0)]);
        ledger.tick(&hub, 20, &[sample("a", 300, 1000), sample("b", 100, 1000)]);

        let snap = ledger.snapshot();
        let a = snap.tenant("a").unwrap();
        let b = snap.tenant("b").unwrap();
        assert_eq!(a.tasks_total, 300);
        assert_eq!(b.tasks_total, 100);
        assert!((a.delivered_share - 0.75).abs() < 1e-12);
        assert!((b.delivered_share - 0.25).abs() < 1e-12);
        // CPU time: 1000 us window x 1 running worker per node.
        assert_eq!(a.cpu_us_per_node, vec![1000, 1000]);
        assert!((snap.jain - jain_index(&[0.75, 0.25])).abs() < 1e-12);
        // Metrics are published.
        assert_eq!(
            hub.registry()
                .counter("coop_tenant_tasks_total", &[("tenant", "a")])
                .get(),
            300
        );
        assert_eq!(
            hub.registry()
                .gauge_value("coop_tenant_delivered_share", &[("tenant", "a")]),
            Some(0.75)
        );
        assert_eq!(
            hub.registry().gauge_value("coop_tenant_jain_index", &[]),
            Some(snap.jain)
        );
    }

    #[test]
    fn backwards_counters_discard_the_window_not_book_negative_usage() {
        // Satellite: the PR-3 discard rule. A restarted tenant reports
        // counters below its baseline; the ledger must drop the whole
        // window (keeping the previous totals and share) instead of
        // booking bogus usage.
        let hub = Arc::new(TelemetryHub::new());
        let ledger = TenantLedger::new();
        ledger.open_epoch(&hub, "a", "managed", 0);
        ledger.open_epoch(&hub, "b", "managed", 0);
        ledger.tick(&hub, 10, &[sample("a", 100, 1000), sample("b", 100, 1000)]);
        ledger.tick(&hub, 20, &[sample("a", 200, 2000), sample("b", 200, 2000)]);
        let before = ledger.snapshot();
        let share_before = before.tenant("a").unwrap().delivered_share;
        // First window books from zero (100), second books the delta.
        assert_eq!(before.tenant("a").unwrap().tasks_total, 200);

        // "a" restarts: tasks_executed collapses to 5.
        ledger.tick(&hub, 30, &[sample("a", 5, 50), sample("b", 300, 3000)]);
        let after = ledger.snapshot();
        let a = after.tenant("a").unwrap();
        assert_eq!(a.windows_discarded, 1);
        assert_eq!(a.tasks_total, 200, "discarded window must book nothing");
        assert_eq!(
            a.delivered_share, share_before,
            "a discarded window keeps the previous share"
        );
        assert_eq!(
            hub.registry()
                .counter("coop_tenant_windows_discarded_total", &[("tenant", "a")])
                .get(),
            1
        );
        // The next window diffs against the restarted baseline.
        ledger.tick(&hub, 40, &[sample("a", 25, 150), sample("b", 400, 4000)]);
        assert_eq!(ledger.snapshot().tenant("a").unwrap().tasks_total, 220);
    }

    #[test]
    fn preemptions_and_overbudget_cpu_are_booked_against_the_offender() {
        let hub = Arc::new(TelemetryHub::new());
        let ledger = TenantLedger::new();
        ledger.open_epoch(&hub, "hog", "managed", 0);
        ledger.open_epoch(&hub, "meek", "managed", 0);

        let mut hog = sample("hog", 100, 1_000_000);
        hog.preemptions = 8;
        hog.overbudget_cpu_us = 40_000;
        ledger.tick(&hub, 10, &[hog.clone(), sample("meek", 100, 1_000_000)]);

        let snap = ledger.snapshot();
        let offender = snap.tenant("hog").unwrap();
        assert_eq!(offender.preemptions, 8);
        assert_eq!(offender.overbudget_cpu_us, 40_000);
        // 8 preemptions over a 1 s window.
        assert!((offender.preemption_rate - 8.0).abs() < 1e-9);
        let meek = snap.tenant("meek").unwrap();
        assert_eq!(meek.preemptions, 0);
        assert_eq!(meek.preemption_rate, 0.0);
        assert_eq!(
            hub.registry()
                .counter("coop_tenant_preemptions_total", &[("tenant", "hog")])
                .get(),
            8
        );
        assert_eq!(
            hub.registry()
                .counter("coop_tenant_overbudget_cpu_us_total", &[("tenant", "hog")])
                .get(),
            40_000
        );
        assert_eq!(
            hub.registry()
                .gauge_value("coop_tenant_preemption_rate", &[("tenant", "hog")]),
            Some(8.0)
        );

        // A regressing preemption counter discards the window whole.
        hog.preemptions = 2;
        ledger.tick(&hub, 20, &[hog.clone()]);
        let snap = ledger.snapshot();
        assert_eq!(snap.tenant("hog").unwrap().windows_discarded, 1);
        assert_eq!(snap.tenant("hog").unwrap().preemptions, 8);

        // JSON carries the new fields.
        let json = ledger.to_json();
        let parsed = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(parsed["tenants"][0]["preemptions"], 8);
        assert_eq!(parsed["tenants"][0]["overbudget_cpu_us"], 40_000);
        assert!(json.contains("\"preemption_rate\":"), "{json}");
    }

    #[test]
    fn epochs_open_and_close_with_timeline_instants() {
        let hub = Arc::new(TelemetryHub::new());
        let ledger = TenantLedger::new();
        ledger.open_epoch(&hub, "a", "managed", 5);
        ledger.open_epoch(&hub, "a", "managed", 6); // no-op: already open
        ledger.close_epoch(&hub, "a", "evicted", 9);
        ledger.close_epoch(&hub, "a", "evicted", 10); // no-op: closed
        ledger.open_epoch(&hub, "a", "readmitted", 12);

        let snap = ledger.snapshot();
        let a = snap.tenant("a").unwrap();
        assert_eq!(a.epochs.len(), 2);
        assert_eq!(a.epochs[0].opened_us, 5);
        assert_eq!(a.epochs[0].closed_us, Some(9));
        assert_eq!(a.epochs[1].opened_us, 12);
        assert_eq!(a.epochs[1].closed_us, None);
        assert!(a.live);

        let events = hub.events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.cat == TENANT_CAT && e.name == "epoch_open")
                .count(),
            2
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.cat == TENANT_CAT && e.name == "epoch_close")
                .count(),
            1
        );
    }

    #[test]
    fn unsampled_live_tenant_share_drops_to_zero() {
        let hub = Arc::new(TelemetryHub::new());
        let ledger = TenantLedger::new();
        ledger.open_epoch(&hub, "a", "managed", 0);
        ledger.open_epoch(&hub, "b", "managed", 0);
        ledger.tick(&hub, 10, &[sample("a", 0, 0), sample("b", 0, 0)]);
        ledger.tick(&hub, 20, &[sample("a", 100, 1000), sample("b", 100, 1000)]);
        // "b" vanishes (evicted mid-window): the survivor takes the
        // whole window, the victim's share is zero.
        ledger.close_epoch(&hub, "b", "evicted", 25);
        ledger.tick(&hub, 30, &[sample("a", 300, 2000)]);
        let snap = ledger.snapshot();
        assert_eq!(snap.tenant("a").unwrap().delivered_share, 1.0);
        assert_eq!(snap.tenant("b").unwrap().delivered_share, 0.0);
        // Jain runs over live tenants only: one live tenant is fair.
        assert_eq!(snap.jain, 1.0);
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let hub = Arc::new(TelemetryHub::new());
        let ledger = TenantLedger::new();
        ledger.open_epoch(&hub, "zeta", "managed", 1);
        ledger.open_epoch(&hub, "alpha", "managed", 2);
        ledger.set_entitlement("alpha", 0.5);
        ledger.tick(
            &hub,
            10,
            &[sample("zeta", 10, 100), sample("alpha", 10, 100)],
        );
        let json = ledger.to_json();
        assert_eq!(json, ledger.to_json(), "idle ledger renders stably");
        let alpha = json.find("\"alpha\"").unwrap();
        let zeta = json.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "tenants sorted by name");
        let parsed = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(parsed["tenants"][0]["tenant"], "alpha");
        assert_eq!(parsed["tenants"][0]["entitled_share"], 0.5);
        assert!(matches!(
            parsed["tenants"][1]["entitled_share"],
            crate::json::Value::Null
        ));
    }

    #[test]
    fn scheduler_locality_sums_sibling_into_local() {
        let registry = MetricsRegistry::new();
        registry
            .counter("coop_sched_local_pops_total", &[("runtime", "a")])
            .add(10);
        registry
            .counter(
                "coop_sched_steals_total",
                &[("runtime", "a"), ("tier", "high"), ("source", "sibling")],
            )
            .add(3);
        registry
            .counter(
                "coop_sched_steals_total",
                &[("runtime", "a"), ("tier", "normal"), ("source", "remote")],
            )
            .add(2);
        assert_eq!(scheduler_locality(&registry, "a"), (13, 2));
    }
}
