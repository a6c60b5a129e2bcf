//! The five workloads. Each is a closed loop driven by one generator
//! thread: the next round starts when the previous one has returned.

pub mod ctl_chaos;
pub mod ctl_paper;
pub mod fleet;
pub mod live_squeeze;

use crate::trace::Tracer;
use coop_alloc::search::ModelOracle;
use coop_alloc::{Objective, ScoreCache, SearchCounters};
use numa_topology::{Machine, NodeId};
use roofline_numa::{
    solve_gflops, AppSpec, DeltaSolver, SolveOptions, SolveScratch, ThreadAssignment,
};
use std::sync::Arc;

/// What every search in the benchmark maximizes.
pub static OBJECTIVE: Objective = Objective::TotalGflops;

/// The oracle the agent's policy and the supervised loop search with: total
/// GFLOP/s, every application keeping a thread, and a fresh score cache
/// keyed to exactly that context.
pub fn search_oracle<'a>(
    machine: &'a Machine,
    specs: &'a [AppSpec],
) -> (ModelOracle<'a>, Arc<ScoreCache>) {
    let oracle = ModelOracle::new(machine, specs, &OBJECTIVE)
        .expect("generated specs are valid")
        .with_min_threads(1);
    let cache = Arc::new(ScoreCache::new(oracle.fingerprint()));
    let oracle = oracle
        .with_cache(Arc::clone(&cache))
        .expect("cache was keyed from the oracle");
    (oracle, cache)
}

/// Performs as many delta probes and full solves as `counters` says a search
/// did, on one-thread moves around `around`: the replay of the solver work
/// inside that search.
pub fn replay_solves(
    machine: &Machine,
    specs: &[AppSpec],
    around: &ThreadAssignment,
    counters: SearchCounters,
) {
    let mut delta = DeltaSolver::new(machine, specs).expect("generated specs are valid");
    delta.rebase(around).expect("a searched assignment solves");
    let nodes = machine.num_nodes();
    let mut candidate = around.clone();
    for i in 0..counters.delta_solves as usize {
        let (app, node) = (i % specs.len(), NodeId(i / specs.len() % nodes));
        let had = around.get(app, node);
        // Removing a thread never over-subscribes a node.
        candidate.set(app, node, had.saturating_sub(1));
        std::hint::black_box(delta.probe(&candidate, &[node]).expect("probe solves"));
        candidate.set(app, node, had);
    }
    let mut scratch = SolveScratch::new();
    for _ in 0..counters.full_solves {
        std::hint::black_box(
            solve_gflops(
                machine,
                specs,
                around,
                SolveOptions::default(),
                &mut scratch,
            )
            .expect("a searched assignment solves"),
        );
    }
}

/// What the measured rounds of one run add up to.
#[derive(Debug, Default)]
pub struct Meter {
    /// Operations of the workload's stated kind that were attempted.
    pub ops: u64,
    /// Operations that failed or whose output violated a check.
    pub failed: u64,
    /// The typical microseconds per operation of each round: the round's
    /// wall time over its operations, or the median of its operations where
    /// the workload times them singly.
    pub op_us: Vec<f64>,
    /// Every singly-timed operation, for the tail percentile.
    pub single_op_us: Vec<f64>,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Meter {
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(why());
        }
    }
}

pub trait Workload {
    /// One round of the closed loop. With the tracer on, the round also
    /// records spans and replays its inputs against the lower layers.
    fn round(&mut self, r: u64, meter: &mut Meter, tracer: &mut Tracer);

    /// End-of-run checks and teardown (stopping runtimes).
    fn finish(self: Box<Self>, _meter: &mut Meter) {}
}

pub struct Info {
    pub name: &'static str,
    /// What one operation is.
    pub op: &'static str,
    pub why: &'static str,
}

pub const ALL: [Info; 5] = [
    Info {
        name: "ctl_paper",
        op: "decision tick",
        why: "The paper's Table III scenario under supervision: warm re-search, provenance and drift bookkeeping do the work, the simulator almost none.",
    },
    Info {
        name: "ctl_chaos",
        op: "agent tick",
        why: "The real agent over 8 stub runtimes with seeded kills and revives: cold search, health machine and evict-reclaim-readmit, the path ctl_paper bypasses.",
    },
    Info {
        name: "fleet_diurnal",
        op: "simulated event",
        why: "1000 tenants on 64 nodes with phase-grouped bursts: simulator arbitration and integration are all of the work, search and agent none.",
    },
    Info {
        name: "fleet_outages",
        op: "simulated segment",
        why: "A 256x16 fleet of the same shape under correlated outage waves with reclaim: few long segments, each after a schedule rewrite and a fair-share reclaim.",
    },
    Info {
        name: "live_squeeze",
        op: "task",
        why: "Two live runtimes squeezed by thread commands while running gated DAGs: deques, parking, graph stripes and control do the work, model and simulator none.",
    },
];

pub fn info(name: &str) -> Option<&'static Info> {
    ALL.iter().find(|i| i.name == name)
}

/// Builds the workload's machines, applications and plans, starts its
/// runtimes and runs one warm-up round. The caller times this as set-up.
pub fn setup(name: &str, seed: u64, smoke: bool) -> Box<dyn Workload> {
    let mut w: Box<dyn Workload> = match name {
        "ctl_paper" => Box::new(ctl_paper::CtlPaper::new(seed, smoke)),
        "ctl_chaos" => Box::new(ctl_chaos::CtlChaos::new(seed, smoke)),
        "fleet_diurnal" => Box::new(fleet::Fleet::diurnal(seed, smoke)),
        "fleet_outages" => Box::new(fleet::Fleet::outages(seed, smoke)),
        "live_squeeze" => Box::new(live_squeeze::LiveSqueeze::new(seed, smoke)),
        other => panic!("unknown workload {other}"),
    };
    // Warm-up rounds use round numbers the measured loop never reaches.
    w.round(
        u64::MAX,
        &mut Meter::default(),
        &mut Tracer::new(crate::trace::Depth::Off),
    );
    w
}
