//! `fleet_diurnal` and `fleet_outages`: the simulator's event engine at
//! fleet scale. The fleet shape is the one `crates/bench` sweeps (one
//! thread per tenant striped over the nodes, memory- and compute-bound
//! tenants mixed), re-created here and seeded.

use super::{Meter, Workload};
use crate::gen::Rng;
use crate::trace::Tracer;
use memsim::{
    run_chaos_scenario_threaded, ActivityPattern, AppOutage, ChaosPlan, EffectModel, EngineKind,
    EventLog, NamedAssignment, Scenario, SimApp, SimConfig, SimResult, Simulation,
};
use numa_topology::{Machine, MachineBuilder};
use roofline_numa::ThreadAssignment;
use std::time::Instant;

/// The slice engine's quantum. Every edge is snapped onto this grid, in the
/// float form the slice engine computes its step times in, so the slice and
/// event engines switch at the same instants and can be compared exactly.
const QUANTUM_S: f64 = 1e-3;

fn snap(t_s: f64) -> f64 {
    (t_s / QUANTUM_S).round() * QUANTUM_S
}

const PHASE_GROUPS: usize = 16;
const OUTAGE_WAVES: usize = 16;
/// Distinct seeded inputs a run cycles through; a repeat of an input must
/// reproduce its first result bit for bit.
const VARIANTS: u64 = 8;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub tenants: usize,
    pub nodes: usize,
    pub duration_s: f64,
}

impl Scale {
    pub const FLEET: Scale = Scale {
        tenants: 1000,
        nodes: 64,
        duration_s: 4.0,
    };
    /// The outage runs' fleet: their 33 schedule matrices then fit in 1 MiB.
    pub const OUTAGES: Scale = Scale {
        tenants: 256,
        nodes: 16,
        duration_s: 4.0,
    };
    /// Small enough for the slice engine to act as the agreement oracle.
    pub const SMALL: Scale = Scale {
        tenants: 100,
        nodes: 8,
        duration_s: 4.0,
    };
}

pub fn machine(scale: Scale) -> Machine {
    let cores_per_node = scale.tenants.div_ceil(scale.nodes) + 2;
    MachineBuilder::new()
        .name(&format!("fleet-{}n", scale.nodes))
        .symmetric_nodes(scale.nodes, cores_per_node)
        .core_peak_gflops(12.8)
        .node_bandwidth_gbs(80.0)
        .uniform_link_gbs(12.0)
        .build()
        .expect("fleet machine parameters are well-formed")
}

/// One thread per tenant, striped across the nodes.
pub fn striped(scale: Scale) -> Vec<Vec<usize>> {
    let mut matrix = vec![vec![0usize; scale.nodes]; scale.tenants];
    for (i, row) in matrix.iter_mut().enumerate() {
        row[i % scale.nodes] = 1;
    }
    matrix
}

/// Tenants with a seeded memory-/compute-bound mix. `diurnal` gives each a
/// 50% duty cycle in one of 16 seeded phase groups, so edges coincide within
/// a group and the load swings like a day/night curve.
pub fn tenants(scale: Scale, rng: &mut Rng, diurnal: bool) -> Vec<SimApp> {
    let period_s = snap(scale.duration_s / 4.0);
    (0..scale.tenants)
        .map(|i| {
            let ai = if rng.chance(0.5) { 1.0 / 32.0 } else { 1.0 };
            let app = SimApp::numa_local(&format!("t{i}"), ai);
            let group = rng.range(0, PHASE_GROUPS);
            if diurnal {
                app.with_activity(ActivityPattern::Bursts {
                    period_s,
                    duty: 0.5,
                    phase_s: snap(period_s * group as f64 / PHASE_GROUPS as f64),
                })
            } else {
                app
            }
        })
        .collect()
}

/// Correlated outages: 16 evenly spaced waves, each taking down a
/// contiguous block of 8% of the fleet, at a seeded position, for 3% of the
/// run. Only the positions are drawn, so every plan has the same 33 segments
/// and costs about the same.
pub fn outage_plan(scale: Scale, rng: &mut Rng) -> ChaosPlan {
    let mut outages = Vec::new();
    let block = (scale.tenants * 2 / 25).max(1);
    for wave in 0..OUTAGE_WAVES {
        let slot = scale.duration_s * 0.9 / OUTAGE_WAVES as f64;
        let down_at_s = snap(scale.duration_s * 0.05 + slot * wave as f64);
        let up_at_s = snap(down_at_s + scale.duration_s * 0.03);
        let lo = rng.range(0, scale.tenants - block + 1);
        for app in lo..lo + block {
            outages.push(AppOutage {
                app,
                down_at_s,
                up_at_s: Some(up_at_s),
            });
        }
    }
    ChaosPlan {
        outages,
        reclaim: true,
    }
}

pub fn sim_config(machine: &Machine, engine: EngineKind, sim_threads: usize) -> SimConfig {
    SimConfig::new(machine.clone())
        .with_effects(EffectModel::ideal())
        .with_seed(42)
        .with_engine(engine)
        .with_sim_threads(sim_threads)
}

pub fn run_diurnal(
    machine: &Machine,
    apps: &[SimApp],
    schedule: &[(f64, ThreadAssignment)],
    duration_s: f64,
    sim_threads: usize,
) -> memsim::Result<(SimResult, EventLog)> {
    Simulation::new(sim_config(machine, EngineKind::Event, sim_threads))
        .run_logged(apps, schedule, duration_s)
}

pub fn outage_scenario(scale: Scale, machine: &Machine, apps: Vec<SimApp>) -> Scenario {
    Scenario {
        name: format!("fleet-outages-{}x{}", scale.tenants, scale.nodes),
        machine: machine.clone(),
        apps,
        assignments: vec![NamedAssignment {
            name: "striped".into(),
            threads: striped(scale),
        }],
        duration_s: scale.duration_s,
        effects: EffectModel::ideal(),
        seed: 42,
    }
}

/// What one fleet round produced.
#[derive(Debug, Clone, Copy)]
pub struct FleetOut {
    pub ops: u64,
    /// Total simulated GFLOP/s over the run.
    pub gflops: f64,
    /// Constant-rate segments the engine integrated.
    pub segments: u64,
}

enum Variant {
    Diurnal(Vec<SimApp>),
    Outages(Box<Scenario>, ChaosPlan),
}

/// `(total GFLOP/s bits, ops)` of a variant's first run.
type Fingerprint = (u64, u64);

pub struct Fleet {
    name: &'static str,
    scale: Scale,
    machine: Machine,
    schedule: Vec<(f64, ThreadAssignment)>,
    variants: Vec<Variant>,
    first: Vec<Option<Fingerprint>>,
}

impl Fleet {
    fn build(name: &'static str, seed: u64, smoke: bool, diurnal: bool) -> Self {
        let scale = match (smoke, diurnal) {
            (true, _) => Scale::SMALL,
            (false, true) => Scale::FLEET,
            (false, false) => Scale::OUTAGES,
        };
        let machine = machine(scale);
        let variants = (0..VARIANTS)
            .map(|v| {
                let mut rng = Rng::stream(seed, v);
                let apps = tenants(scale, &mut rng, diurnal);
                if diurnal {
                    Variant::Diurnal(apps)
                } else {
                    let plan = outage_plan(scale, &mut rng);
                    Variant::Outages(Box::new(outage_scenario(scale, &machine, apps)), plan)
                }
            })
            .collect();
        Fleet {
            name,
            scale,
            schedule: vec![(0.0, ThreadAssignment::from_matrix(striped(scale)))],
            machine,
            variants,
            first: vec![None; VARIANTS as usize],
        }
    }

    pub fn diurnal(seed: u64, smoke: bool) -> Self {
        Self::build("fleet_diurnal", seed, smoke, true)
    }

    pub fn outages(seed: u64, smoke: bool) -> Self {
        Self::build("fleet_outages", seed, smoke, false)
    }

    /// Runs variant `v`. One op is an event (diurnal) or a schedule segment
    /// (outages).
    pub fn run_variant(&self, v: usize, sim_threads: usize) -> memsim::Result<FleetOut> {
        match &self.variants[v] {
            Variant::Diurnal(apps) => {
                let (result, log) = run_diurnal(
                    &self.machine,
                    apps,
                    &self.schedule,
                    self.scale.duration_s,
                    sim_threads,
                )?;
                Ok(FleetOut {
                    ops: log.len() as u64,
                    gflops: result.total_gflops(),
                    segments: log.segments,
                })
            }
            Variant::Outages(scenario, plan) => {
                let out = run_chaos_scenario_threaded(
                    scenario,
                    plan,
                    None,
                    EngineKind::Event,
                    sim_threads,
                )?;
                Ok(FleetOut {
                    ops: out.segments.len() as u64,
                    gflops: out.result.total_gflops(),
                    segments: out.segments.len() as u64,
                })
            }
        }
    }

    /// Replays the reclaim the chaos runner performs before each segment:
    /// a fair share of the machine over that segment's survivors.
    fn replay_reclaim(&self, scenario: &Scenario, plan: &ChaosPlan) {
        let mut edges: Vec<f64> = plan
            .outages
            .iter()
            .flat_map(|o| [Some(o.down_at_s), o.up_at_s])
            .flatten()
            .chain([0.0])
            .collect();
        edges.sort_by(|a, b| a.partial_cmp(b).expect("edge times are finite"));
        edges.dedup();
        for t in edges {
            let live = plan.live_at(scenario.apps.len(), t);
            let survivors = live.iter().filter(|&&l| l).count();
            std::hint::black_box(
                coop_alloc::strategies::fair_share(&self.machine, survivors)
                    .expect("fair share over survivors exists"),
            );
        }
    }
}

impl Workload for Fleet {
    fn round(&mut self, r: u64, meter: &mut Meter, tracer: &mut Tracer) {
        let v = (r % VARIANTS) as usize;
        let t = Instant::now();
        let (span, out) = tracer.span("memsim", "event_engine.run", None, r, || {
            self.run_variant(v, 1)
        });
        let us = t.elapsed().as_secs_f64() * 1e6;
        match out {
            Ok(FleetOut { ops, gflops, .. }) => {
                meter.ops += ops;
                meter.op_us.push(us / ops.max(1) as f64);
                let print = (gflops.to_bits(), ops);
                let first = *self.first[v].get_or_insert(print);
                if !(gflops.is_finite() && gflops > 0.0 && ops > 0) || first != print {
                    meter.fail(ops.max(1), || {
                        format!(
                            "{} round {r}: variant {v} gave {gflops} GFLOP/s over {ops} ops, first run {first:?}",
                            self.name
                        )
                    });
                }
            }
            Err(e) => {
                meter.ops += 1;
                meter.fail(1, || format!("{} round {r}: {e}", self.name));
            }
        }
        // Below the simulator there is only the reclaim of the outage runs.
        if let (true, Variant::Outages(scenario, plan)) = (tracer.replays(), &self.variants[v]) {
            tracer.replay("core", "fair_share.reclaim", span, r, || {
                self.replay_reclaim(scenario, plan)
            });
        }
    }
}
