//! `live_squeeze`: two live `coop_runtime::Runtime`s under thread control.
//! One op is one task.
//!
//! A round is four squeezes, one per thread command: the paper's three
//! blocking options, then `Unrestricted`. Each squeeze spawns a gated DAG
//! into both runtimes while their workers idle, applies its command, opens
//! the gate, waits for both runtimes to drain, and lets the agent tick. The
//! gate keeps the generator from overlapping the workers: between spawn and
//! drain only workers run, and never more of them than the machine has cores.

use super::{Meter, Workload};
use crate::gen::Rng;
use crate::trace::{SpanId, Tracer};
use coop_agent::policies::FairShare;
use coop_agent::proto::{self, RuntimeSideEndpoint};
use coop_agent::Agent;
use coop_runtime::{Event, Runtime, RuntimeConfig, TelemetryHub, ThreadCommand};
use coop_workloads::kernels::spin_work;
use numa_topology::{CpuSet, Machine, MachineBuilder, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const FAN_WIDTH: usize = 64;
/// FMA steps per task body: small, so scheduling dominates.
pub const TASK_WORK: usize = 200;
const SETTLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Two nodes with half the host's cores each, so that `Unrestricted` on one
/// runtime (or half the machine on both) keeps every host core busy and no
/// more.
pub fn machine() -> Machine {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    MachineBuilder::new()
        .name("squeeze-2n")
        .symmetric_nodes(2, (nproc / 2).max(1))
        .core_peak_gflops(10.0)
        .node_bandwidth_gbs(32.0)
        .uniform_link_gbs(10.0)
        .build()
        .expect("squeeze machine parameters are well-formed")
}

/// DAG shape for one squeeze.
#[derive(Debug, Clone, Copy)]
pub struct Dag {
    /// 64-wide fan-out levels, each joined by a latch the next depends on.
    pub levels: usize,
    /// Length of the dependency chain (one ready task at a time).
    pub chain: usize,
    /// Every this-many-th fan task carries a node affinity hint.
    pub affinity_every: usize,
}

impl Dag {
    /// Sizes are fixed, so that fan and chain tasks (which cost differently)
    /// mix alike in every round; where the affinity hints fall is drawn.
    pub fn seeded(rng: &mut Rng, smoke: bool) -> Self {
        let scale = if smoke { 1 } else { 4 };
        Dag {
            levels: 4 * scale,
            chain: 32 * scale,
            affinity_every: rng.range(3, 6),
        }
    }

    pub fn tasks(&self) -> u64 {
        (self.levels * FAN_WIDTH + self.chain) as u64
    }
}

/// Counters task bodies bump.
#[derive(Debug, Default)]
pub struct Ran {
    pub tasks: AtomicU64,
    /// Affinity-hinted tasks, and how many of them ran on the hinted node.
    pub hinted: AtomicU64,
    pub hinted_local: AtomicU64,
}

/// Spawns `dag` into `rt`, every root waiting on the returned gate event.
pub fn spawn_gated(rt: &Runtime, dag: Dag, ran: &Arc<Ran>) -> coop_runtime::Result<Event> {
    let gate = rt.new_once_event();
    let nodes = rt.machine().num_nodes();
    let mut prev = gate.clone();
    for level in 0..dag.levels {
        let join = rt.new_latch_event(FAN_WIDTH as u64);
        for t in 0..FAN_WIDTH {
            let hint = (t % dag.affinity_every == 0).then(|| NodeId((level + t) % nodes));
            let mut builder = rt.task("fan").depends_on(&prev);
            if let Some(node) = hint {
                builder = builder.affinity(node);
            }
            let join = join.clone();
            let ran = Arc::clone(ran);
            builder
                .body(move |ctx| {
                    spin_work(TASK_WORK);
                    ran.tasks.fetch_add(1, Ordering::Relaxed);
                    if let Some(node) = hint {
                        ran.hinted.fetch_add(1, Ordering::Relaxed);
                        if ctx.node() == node {
                            ran.hinted_local.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    ctx.satisfy(&join);
                })
                .spawn()?;
        }
        prev = join;
    }
    let mut prev = gate.clone();
    for _ in 0..dag.chain {
        let ran = Arc::clone(ran);
        let (_, finished) = rt
            .task("chain")
            .depends_on(&prev)
            .body(move |_| {
                spin_work(TASK_WORK);
                ran.tasks.fetch_add(1, Ordering::Relaxed);
            })
            .spawn_with_finish()?;
        prev = finished;
    }
    Ok(gate)
}

/// The paper's blocking options in round order; each leaves every runtime
/// `cores_per_node` running workers, a whole machine's worth in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Squeeze {
    TotalThreads,
    BlockCores,
    PerNode,
    /// One runtime at a time gets the whole machine while the other is
    /// fully blocked.
    Unrestricted,
}

impl Squeeze {
    pub const CYCLE: [Squeeze; 4] = [
        Squeeze::TotalThreads,
        Squeeze::BlockCores,
        Squeeze::PerNode,
        Squeeze::Unrestricted,
    ];

    /// The command for runtime `which` (0 or 1) on `machine`.
    pub fn command(self, machine: &Machine, which: usize) -> ThreadCommand {
        let c = machine.node(NodeId(0)).num_cores();
        match self {
            Squeeze::TotalThreads => ThreadCommand::TotalThreads(c),
            // Runtime 0 keeps node 0, runtime 1 keeps node 1.
            Squeeze::BlockCores => ThreadCommand::BlockCores(CpuSet::from_cores(
                machine.node(NodeId(1 - which)).cores(),
            )),
            Squeeze::PerNode => {
                let mut targets = vec![0; 2];
                targets[which] = c;
                ThreadCommand::PerNode(targets)
            }
            Squeeze::Unrestricted => ThreadCommand::Unrestricted,
        }
    }
}

/// Applies `cmd` and waits until exactly `running` workers run.
pub fn settle(rt: &Runtime, cmd: ThreadCommand, running: usize) -> bool {
    let control = rt.control();
    control.apply(cmd).is_ok() && control.wait_converged(SETTLE_TIMEOUT, |run, _| run == running)
}

pub struct LiveSqueeze {
    seed: u64,
    smoke: bool,
    machine: Machine,
    runtimes: [Arc<Runtime>; 2],
    /// Pump threads of the agent's endpoints; joined on drop.
    _pumps: Vec<RuntimeSideEndpoint>,
    agent: Agent,
    pub hub: Arc<TelemetryHub>,
    pub ran: Arc<Ran>,
    expected: u64,
}

impl LiveSqueeze {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let machine = machine();
        let hub = Arc::new(TelemetryHub::new());
        let start = |name: &str| {
            Arc::new(
                Runtime::start(
                    RuntimeConfig::new(name, machine.clone()).with_telemetry(Arc::clone(&hub)),
                )
                .expect("runtime starts"),
            )
        };
        let runtimes = [start("squeeze-a"), start("squeeze-b")];
        let mut agent =
            Agent::with_telemetry(Box::new(FairShare::new(machine.clone())), Arc::clone(&hub));
        agent.set_reclaim_machine(machine.clone());
        let mut pumps = Vec::new();
        for rt in &runtimes {
            let (agent_side, runtime_side) =
                proto::connect(Arc::clone(rt)).expect("endpoint pump starts");
            agent.manage(Box::new(agent_side));
            pumps.push(runtime_side);
        }
        LiveSqueeze {
            seed,
            smoke,
            machine,
            runtimes,
            _pumps: pumps,
            agent,
            hub,
            ran: Arc::new(Ran::default()),
            expected: 0,
        }
    }

    pub fn runtimes(&self) -> &[Arc<Runtime>; 2] {
        &self.runtimes
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// One agent tick over the live endpoints.
    pub fn tick_agent(&mut self) -> coop_agent::Result<()> {
        self.agent.tick()
    }

    fn workers(&self) -> usize {
        self.machine.total_cores()
    }

    /// Opens both gates and waits for both runtimes to drain under
    /// `squeeze`. Returns `false` if a command did not settle.
    fn run_gated(&self, squeeze: Squeeze, gates: &[Event; 2]) -> bool {
        let [a, b] = &self.runtimes;
        let c = self.machine.node(NodeId(0)).num_cores();
        let mut ok = true;
        if squeeze == Squeeze::Unrestricted {
            // One at a time: the other runtime is blocked entirely.
            for (on, off, gate) in [(a, b, &gates[0]), (b, a, &gates[1])] {
                ok &= settle(off, ThreadCommand::TotalThreads(0), 0);
                ok &= settle(on, ThreadCommand::Unrestricted, self.workers());
                ok &= on.satisfy(gate).is_ok() && on.wait_quiescent().is_ok();
            }
        } else {
            for (which, rt) in self.runtimes.iter().enumerate() {
                ok &= settle(rt, squeeze.command(&self.machine, which), c);
            }
            for (rt, gate) in self.runtimes.iter().zip(gates) {
                ok &= rt.satisfy(gate).is_ok();
            }
            for rt in &self.runtimes {
                ok &= rt.wait_quiescent().is_ok();
            }
        }
        ok
    }

    /// One squeeze of round `r`; returns the tasks spawned, whether all of
    /// it settled and drained, and the span they executed in.
    fn squeeze(
        &mut self,
        r: u64,
        squeeze: Squeeze,
        tracer: &mut Tracer,
        root: Option<SpanId>,
    ) -> (u64, bool, Option<SpanId>) {
        let mut rng = Rng::stream(self.seed, r.wrapping_mul(4).wrapping_add(squeeze as u64));
        let dag = Dag::seeded(&mut rng, self.smoke);
        let (_, gates) = tracer.span("runtime", "spawn (gated)", root, r, || {
            [0, 1].map(|i| spawn_gated(&self.runtimes[i], dag, &self.ran))
        });
        let [Ok(gate_a), Ok(gate_b)] = gates else {
            return (2 * dag.tasks(), false, None);
        };
        let (exec, mut ok) = tracer.span("runtime", "settle+execute", root, r, || {
            self.run_gated(squeeze, &[gate_a, gate_b])
        });
        let (_, ticked) = tracer.span("agent", "Agent::tick", root, r, || self.agent.tick());
        ok &= ticked.is_ok();
        (2 * dag.tasks(), ok, exec)
    }
}

impl Workload for LiveSqueeze {
    fn round(&mut self, r: u64, meter: &mut Meter, tracer: &mut Tracer) {
        let t = Instant::now();
        let root = tracer.begin("harness", "round", None, r);
        let (mut tasks, mut ok) = (0, true);
        let mut executed = Vec::with_capacity(Squeeze::CYCLE.len());
        for squeeze in Squeeze::CYCLE {
            let (spawned, settled, exec) = self.squeeze(r, squeeze, tracer, root);
            tasks += spawned;
            ok &= settled;
            executed.push((exec, spawned));
        }
        tracer.end(root);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.expected += tasks;
        meter.ops += tasks;
        meter.op_us.push(us / tasks as f64);
        let ran = self.ran.tasks.load(Ordering::SeqCst);
        if !ok || ran != self.expected {
            meter.fail(tasks, || {
                format!(
                    "live_squeeze round {r}: settled/drained = {ok}, {ran} of {} tasks ran",
                    self.expected
                )
            });
            self.expected = ran;
        }
        if tracer.replays() {
            // What the bodies themselves cost, single-threaded.
            for (exec, spawned) in executed {
                tracer.replay("workloads", "task bodies", exec, r, || {
                    for _ in 0..spawned {
                        spin_work(TASK_WORK);
                    }
                });
            }
        }
    }

    fn finish(self: Box<Self>, meter: &mut Meter) {
        for rt in &self.runtimes {
            let stats = rt.stats();
            if stats.tasks_spawned != stats.tasks_executed + stats.tasks_panicked
                || stats.tasks_panicked != 0
            {
                meter.fail(stats.tasks_spawned - stats.tasks_executed, || {
                    format!(
                        "live_squeeze {}: spawned {} executed {} panicked {}",
                        stats.name, stats.tasks_spawned, stats.tasks_executed, stats.tasks_panicked
                    )
                });
            }
            rt.shutdown();
        }
    }
}
