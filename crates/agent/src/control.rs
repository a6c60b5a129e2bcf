//! The part of a supervision tick that does not depend on the plant (the
//! live runtimes behind [`Agent`](crate::Agent), or `memsim`'s simulated
//! applications). Both loops keep one [`Tenancy`] and walk it each tick,
//! between deciding and applying: liveness edges ([`Tenancy::set_down`]) and
//! the live mask ([`Tenancy::set_live`]), reclaim rows ([`Tenancy::fair`]),
//! containment ([`Tenancy::contain`]), the command check
//! ([`Tenancy::check`]) and booking ([`Tenancy::book`]).

use crate::ThreadCommand;
use coop_alloc::strategies::{contain, fair_share_among};
use coop_telemetry::{TelemetryHub, TenantSample};
use numa_topology::Machine;
use roofline_numa::ThreadAssignment;
use std::borrow::Cow;

/// Consecutive ticks a tenant's runaway counter must climb before it is
/// contained: one runaway can be a glitch, a counter that rises tick after
/// tick is a tenant that keeps wedging workers.
pub const SUSTAINED_RUNAWAY_TICKS: u32 = 2;

/// The counter [`Tenancy::check`] adds a tick's violations to.
pub const INVARIANT_VIOLATIONS: &str = "coop_agent_invariant_violations_total";

/// The tenants of one supervision loop, in registry order, on a machine
/// it owns or borrows for `'m`.
#[derive(Debug)]
pub struct Tenancy<'m> {
    machine: Option<Cow<'m, Machine>>,
    /// Whether the plant may run more threads on a node than it has cores
    /// (time-slicing them); if so, node sums are not checked.
    oversubscribe: bool,
    /// The ledger reasons of a down edge and of an up edge.
    reasons: [&'static str; 2],
    tenants: Vec<Tenant>,
    /// This tick's live mask: the tenants that may be commanded.
    live: Vec<bool>,
    /// `fair_share_among(machine, live)`, solved on first use.
    fair: Option<ThreadAssignment>,
    /// Per tenant, the row it is contained to this tick.
    caps: Vec<Option<Vec<usize>>>,
}

#[derive(Debug)]
struct Tenant {
    name: String,
    down: bool,
    last_runaway: u64,
    /// Consecutive live ticks the runaway counter climbed.
    sustained: u32,
}

impl<'m> Tenancy<'m> {
    /// No tenants yet; without a `machine` nothing is reclaimed or
    /// contained. `down` and `up` are the ledger reasons of the edges.
    pub fn new(
        machine: Option<&'m Machine>,
        oversubscribe: bool,
        down: &'static str,
        up: &'static str,
    ) -> Self {
        Tenancy {
            machine: machine.map(Cow::Borrowed),
            oversubscribe,
            reasons: [down, up],
            tenants: Vec::new(),
            live: Vec::new(),
            fair: None,
            caps: Vec::new(),
        }
    }

    /// The machine reclaim and containment divide, if there is one.
    pub(crate) fn machine(&self) -> Option<&Machine> {
        self.machine.as_deref()
    }

    /// Sets the machine reclaim and containment divide.
    pub(crate) fn set_machine(&mut self, machine: Machine) {
        self.machine = Some(Cow::Owned(machine));
        self.fair = None;
    }

    /// Adds a tenant, not yet live; one that is up opens its ledger epoch
    /// (`managed`), one that is down opens it on its first up edge.
    pub fn admit(&mut self, hub: &TelemetryHub, name: &str, down: bool, now_us: u64) {
        if let Some(ledger) = hub.tenant_ledger().filter(|_| !down) {
            ledger.open_epoch(hub, name, "managed", now_us);
        }
        self.tenants.push(Tenant {
            name: name.to_string(),
            down,
            last_runaway: 0,
            sustained: 0,
        });
        self.live.push(false);
        self.caps.push(None);
        self.fair = None;
    }

    /// Whether tenant `i` is down.
    pub(crate) fn is_down(&self, i: usize) -> bool {
        self.tenants[i].down
    }

    /// Marks tenant `i` down or up. On an edge its ledger epoch closes or
    /// re-opens and going down ends its containment; returns whether this
    /// was an edge.
    pub fn set_down(&mut self, hub: &TelemetryHub, i: usize, down: bool, now_us: u64) -> bool {
        let tenant = &mut self.tenants[i];
        if tenant.down == down {
            return false;
        }
        tenant.down = down;
        tenant.sustained = 0;
        self.caps[i] = None;
        if let Some(ledger) = hub.tenant_ledger() {
            let reason = self.reasons[usize::from(!down)];
            if down {
                ledger.close_epoch(hub, &tenant.name, reason, now_us);
            } else {
                ledger.open_epoch(hub, &tenant.name, reason, now_us);
            }
        }
        true
    }

    /// Takes this tick's live mask as the ascending indices of the tenants
    /// that may be commanded; returns whether it moved.
    pub fn set_live(&mut self, live: impl IntoIterator<Item = usize>) -> bool {
        let mut live = live.into_iter().peekable();
        let mut moved = false;
        for (i, slot) in self.live.iter_mut().enumerate() {
            let now = live.next_if_eq(&i).is_some();
            moved |= *slot != now;
            *slot = now;
        }
        if moved {
            self.fair = None;
        }
        moved
    }

    /// This tick's live mask, one flag per tenant.
    pub fn live(&self) -> &[bool] {
        &self.live
    }

    /// Reclaim: the machine fair-shared among this tick's live tenants, one
    /// row per tenant. `None` without a machine or a live tenant.
    pub fn fair(&mut self) -> Option<&ThreadAssignment> {
        if self.fair.is_none() {
            self.fair = fair_share_among(self.machine.as_deref()?, &self.live).ok();
        }
        self.fair.as_ref()
    }

    /// Containment over each live tenant's runaway counter (`runaway` may
    /// name the others too): after [`SUSTAINED_RUNAWAY_TICKS`] climbing
    /// ticks a tenant is capped at `strategies::contain(held(i), its fair
    /// row)`, `held(i)` being what the tick would otherwise leave it (a node
    /// `held` leaves out holds its fair share); a tick whose counter does
    /// not climb ends it. Returns whether any cap differs from the last
    /// tick's.
    pub fn contain(
        &mut self,
        runaway: impl IntoIterator<Item = (usize, u64)>,
        mut held: impl FnMut(usize) -> Vec<usize>,
    ) -> bool {
        let mut changed = false;
        for (i, counter) in runaway {
            if !self.live[i] {
                continue;
            }
            let tenant = &mut self.tenants[i];
            let climbed = counter > tenant.last_runaway;
            tenant.sustained = if climbed {
                tenant.sustained.saturating_add(1)
            } else {
                0
            };
            tenant.last_runaway = counter;
            let cap = if tenant.sustained < SUSTAINED_RUNAWAY_TICKS {
                None
            } else {
                self.fair().map(|fair| {
                    let mut row = held(i);
                    row.resize(fair.row(i).len(), usize::MAX);
                    contain(&mut row, fair.row(i));
                    row
                })
            };
            changed |= self.caps[i] != cap;
            self.caps[i] = cap;
        }
        for (cap, _) in self.caps.iter_mut().zip(&self.live).filter(|(_, l)| !**l) {
            changed |= cap.take().is_some();
        }
        changed
    }

    /// This tick's contained tenants with their rows.
    pub fn caps(&self) -> impl Iterator<Item = (usize, &[usize])> {
        (self.caps.iter().enumerate()).filter_map(|(i, cap)| Some((i, cap.as_deref()?)))
    }

    /// The check every tick's commands pass: [`check_commands`] against
    /// this tick's mask and caps (and the machine's cores, unless the plant
    /// oversubscribes). A violation counts in [`INVARIANT_VIOLATIONS`] and
    /// fails a debug build.
    pub fn check<'a, I>(&self, hub: &TelemetryHub, cmds: I)
    where
        I: IntoIterator<Item = (usize, Option<&'a [usize]>)> + Clone,
    {
        let cores = self.machine.as_deref().filter(|_| !self.oversubscribe);
        let violations = check_commands(cores, &self.live, &self.caps, cmds);
        if !violations.is_empty() {
            let registry = hub.registry();
            registry.set_help(
                INVARIANT_VIOLATIONS,
                "Tick commands that broke a tenancy invariant: a node over its cores, \
                 a contained tenant above its fair row, a down or quarantined tenant commanded",
            );
            let counter = registry.counter(INVARIANT_VIOLATIONS, &[]);
            counter.add(violations.len() as u64);
        }
        debug_assert!(violations.is_empty(), "{violations:?}");
    }

    /// Booking: each `(tenant, threads)` grant as its share of the
    /// machine's cores and `samples` into any installed ledger, then any
    /// installed SLO engine's judgement.
    pub fn book(
        &self,
        hub: &TelemetryHub,
        now_us: u64,
        granted: impl IntoIterator<Item = (usize, usize)>,
        samples: &[TenantSample],
    ) {
        if let Some(ledger) = hub.tenant_ledger() {
            let cores = self.machine.as_deref().map_or(0, Machine::total_cores);
            for (i, threads) in granted.into_iter().filter(|_| cores > 0) {
                ledger.set_entitlement(&self.tenants[i].name, threads as f64 / cores as f64);
            }
            ledger.tick(hub, now_us, samples);
        }
        if let Some(engine) = hub.slo_engine() {
            engine.evaluate(hub, now_us);
        }
    }
}

/// The per-node row `cmd` names, if any: a `cmds` item of
/// [`check_commands`].
pub fn row_of(cmd: &ThreadCommand) -> Option<&[usize]> {
    match cmd {
        ThreadCommand::PerNode(row) => Some(row),
        _ => None,
    }
}

/// The safety properties of one tick's `(tenant, per-node row)` commands,
/// one line per violation: a tenant outside `live` (down or quarantined)
/// is commanded; a tenant with a cap (contained) is not commanded a row
/// within it — its fair row, never raised; a node of `machine` (if given)
/// is commanded more threads than it has cores.
pub fn check_commands<'a, I>(
    machine: Option<&Machine>,
    live: &[bool],
    caps: &[Option<Vec<usize>>],
    cmds: I,
) -> Vec<String>
where
    I: IntoIterator<Item = (usize, Option<&'a [usize]>)> + Clone,
{
    let mut violations = Vec::new();
    for (i, _) in cmds.clone() {
        if live.get(i) != Some(&true) {
            violations.push(format!("tenant {i} is not live but was commanded"));
        }
    }
    for (i, cap) in caps.iter().enumerate() {
        let Some(cap) = cap else { continue };
        let within =
            |row: &[usize]| row.len() == cap.len() && row.iter().zip(cap).all(|(r, c)| r <= c);
        let mut rows = cmds.clone().into_iter().filter(|&(j, _)| j == i).peekable();
        if rows.peek().is_none() || !rows.all(|(_, row)| row.is_some_and(within)) {
            violations.push(format!("contained tenant {i} was not held to {cap:?}"));
        }
    }
    for (n, node) in machine.iter().flat_map(|m| m.nodes()).enumerate() {
        let rows = cmds
            .clone()
            .into_iter()
            .filter_map(|(_, row)| row?.get(n).copied());
        let (sum, cores) = (rows.sum::<usize>(), node.num_cores());
        if sum > cores {
            violations.push(format!(
                "node {n} was commanded {sum} threads on {cores} cores"
            ));
        }
    }
    violations
}
