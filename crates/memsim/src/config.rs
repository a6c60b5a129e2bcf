//! Simulator configuration and the second-order effect model.

use coop_telemetry::json_struct;
use numa_topology::Machine;

/// The knobs that make `memsim` behave like hardware instead of like the
/// analytic model. All effects are multiplicative on bandwidth or compute
/// throughput; see the crate docs for what each one represents.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectModel {
    /// Coefficient of variation of per-thread, per-quantum multiplicative
    /// noise (0 = deterministic). Mean-preserving uniform noise.
    pub jitter: f64,
    /// Throughput efficiency of remote (cross-node) traffic relative to the
    /// nominal link bandwidth (1.0 = links reach their spec).
    pub remote_efficiency: f64,
    /// Utilization beyond which a memory controller starts losing
    /// efficiency to queueing (0..1).
    pub saturation_knee: f64,
    /// Maximum fractional bandwidth loss at 100% utilization. Efficiency
    /// falls linearly from 1.0 at the knee to `1 - saturation_loss` at
    /// utilization 1.
    pub saturation_loss: f64,
    /// Fractional bandwidth loss per *additional* distinct application
    /// sharing a node's memory system (cache/row-buffer interference).
    pub multi_app_interference: f64,
    /// Extra capacity a memory controller spends per unit of bandwidth
    /// served to *remote* nodes (coherence/directory overhead): serving
    /// `r` GB/s remotely consumes `r * (1 + overhead)` GB/s of capacity.
    pub remote_service_overhead: f64,
    /// Fractional throughput loss applied to every thread on a node whose
    /// runnable-thread count exceeds its core count (context switches and
    /// cache refills under time-slicing).
    pub oversub_switch_loss: f64,
    /// Whether assignments may exceed a node's core count (the OS-style
    /// time-slicing path). The analytic model never allows this.
    pub allow_oversubscription: bool,
    /// Over-subscription execution style: `false` (default) models the OS
    /// scheduler as continuous fair shares (every runnable thread runs at
    /// `cores/runnable` duty each quantum); `true` models discrete round-
    /// robin time slices (each quantum, exactly `cores` of the runnable
    /// threads run, and the window rotates). Long-run throughput matches;
    /// the discrete mode exposes per-quantum burstiness.
    pub discrete_timeslice: bool,
}

json_struct!(EffectModel: jitter, remote_efficiency, saturation_knee, saturation_loss,
    multi_app_interference, remote_service_overhead, oversub_switch_loss, allow_oversubscription,
    discrete_timeslice);

impl EffectModel {
    /// No second-order effects: the simulator converges to the analytic
    /// model (used for cross-validation).
    pub fn ideal() -> Self {
        EffectModel {
            jitter: 0.0,
            remote_efficiency: 1.0,
            saturation_knee: 1.0,
            saturation_loss: 0.0,
            multi_app_interference: 0.0,
            remote_service_overhead: 0.0,
            oversub_switch_loss: 0.0,
            allow_oversubscription: false,
            discrete_timeslice: false,
        }
    }

    /// Effects tuned to reproduce the *character* of the paper's Table III
    /// measurements on the four-socket Skylake server: the model slightly
    /// over-estimates heavily shared and cross-node scenarios (~2–6%) and
    /// slightly under-estimates the single-application-per-node scenario.
    pub fn skylake_like() -> Self {
        EffectModel {
            jitter: 0.01,
            remote_efficiency: 0.70,
            saturation_knee: 0.55,
            saturation_loss: 0.13,
            multi_app_interference: 0.008,
            remote_service_overhead: 0.5,
            oversub_switch_loss: 0.03,
            allow_oversubscription: true,
            discrete_timeslice: false,
        }
    }
}

impl Default for EffectModel {
    fn default() -> Self {
        EffectModel::skylake_like()
    }
}

/// Which execution engine advances simulated time.
///
/// `Slice` is the original fixed-quantum engine: every quantum re-arbitrates
/// every node even when nothing changed, so cost scales with
/// `duration / quantum` regardless of how eventful the scenario is. `Event`
/// is the discrete-event engine: state changes (assignment edges, activity
/// edges) become heap events, bandwidth is arbitrated once per inter-event
/// segment and integrated analytically, so cost scales with the number of
/// events. The two agree on scenarios without slice-coupled effects (see
/// `docs/performance.md`, "Fleet simulation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Fixed-quantum time-stepped execution (the original engine).
    #[default]
    Slice,
    /// Discrete-event execution over a deterministic global event heap.
    Event,
}

impl EngineKind {
    /// Stable lowercase name, as printed by the CLI (`slice` / `event`).
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineKind::Slice => "slice",
            EngineKind::Event => "event",
        }
    }

    /// Parses the CLI spelling (`slice` / `event`, case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "slice" => Some(EngineKind::Slice),
            "event" => Some(EngineKind::Event),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A contiguous partition of simulated components across simulator worker
/// threads (the parallel event engine's shards).
///
/// Shard `s` owns applications `app_bounds[s]..app_bounds[s + 1]` — and,
/// because [`crate::Simulation`] expands assignments app-major, the
/// matching contiguous range of simulated threads — plus NUMA nodes
/// `node_bounds[s]..node_bounds[s + 1]` (their memory controllers and
/// inbound links). Both bound vectors have `shards + 1` entries, start at
/// 0, end at the respective totals, and are non-decreasing; empty ranges
/// are allowed (more shards than apps just idles the surplus workers).
///
/// The partition never changes the answer — the parallel engine is
/// bit-identical to the single-threaded event engine for *any* valid plan
/// (see `docs/performance.md`, "Parallel fleet simulation") — it only
/// changes how the per-segment arbitration work is spread across cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Per-shard application-range boundaries (`shards + 1` entries).
    pub app_bounds: Vec<usize>,
    /// Per-shard NUMA-node-range boundaries (`shards + 1` entries).
    pub node_bounds: Vec<usize>,
}

impl ShardPlan {
    /// Plans `shards` contiguous shards over `num_apps` applications and
    /// `num_nodes` NUMA nodes, balancing by `weights` (one weight per app,
    /// typically its worst-case thread count across the schedule; missing
    /// or zero weights count as 1). Deterministic: same inputs, same plan.
    pub fn balanced(num_apps: usize, num_nodes: usize, shards: usize, weights: &[usize]) -> Self {
        let shards = shards.max(1);
        let w: Vec<u64> = (0..num_apps)
            .map(|a| weights.get(a).copied().unwrap_or(1).max(1) as u64)
            .collect();
        let total: u64 = w.iter().sum();
        let mut app_bounds = Vec::with_capacity(shards + 1);
        app_bounds.push(0usize);
        let mut acc = 0u64;
        let mut next = 0usize;
        for s in 1..shards {
            // Advance to the first app whose cumulative weight reaches this
            // shard's proportional target.
            let target = total * s as u64 / shards as u64;
            while next < num_apps && acc < target {
                acc += w[next];
                next += 1;
            }
            app_bounds.push(next);
        }
        app_bounds.push(num_apps);
        let node_bounds = (0..=shards).map(|s| num_nodes * s / shards).collect();
        ShardPlan {
            app_bounds,
            node_bounds,
        }
    }

    /// Number of shards in the plan.
    pub fn num_shards(&self) -> usize {
        self.app_bounds.len().saturating_sub(1)
    }

    /// Checks the plan's shape against a simulation's app and node counts.
    pub(crate) fn check(&self, num_apps: usize, num_nodes: usize) -> Result<(), &'static str> {
        let shards = self.num_shards();
        if shards == 0 || self.node_bounds.len() != shards + 1 {
            return Err("shard plan must have matching, non-empty bound vectors");
        }
        for (bounds, total) in [(&self.app_bounds, num_apps), (&self.node_bounds, num_nodes)] {
            if bounds[0] != 0 || bounds[shards] != total {
                return Err("shard plan bounds must span 0..=total");
            }
            if bounds.windows(2).any(|w| w[0] > w[1]) {
                return Err("shard plan bounds must be non-decreasing");
            }
        }
        Ok(())
    }

    /// The shard owning NUMA node `node`.
    pub(crate) fn node_owner(&self, node: usize) -> usize {
        // `partition_point` finds the first bound beyond `node`; bounds
        // are non-decreasing so every node belongs to exactly one
        // non-empty range.
        self.node_bounds.partition_point(|&b| b <= node) - 1
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The machine being simulated.
    pub machine: Machine,
    /// Time quantum in seconds. Each quantum performs one bandwidth
    /// arbitration. Default 1 ms.
    pub quantum_s: f64,
    /// Second-order effects.
    pub effects: EffectModel,
    /// Seed for the jitter stream (simulations are deterministic per seed).
    pub seed: u64,
    /// Which execution engine to use (default [`EngineKind::Slice`]).
    pub engine: EngineKind,
    /// Simulator worker threads for the event engine (default 1: the
    /// single-threaded engine). With more than one, [`EngineKind::Event`]
    /// runs the conservative parallel engine: components are sharded with
    /// [`ShardPlan::balanced`] and synchronized at every safe horizon. The
    /// result is bit-identical at any thread count; only wall-clock time
    /// changes. Ignored by [`EngineKind::Slice`].
    pub sim_threads: usize,
}

impl SimConfig {
    /// Creates a config with the default quantum (1 ms), default effects
    /// ([`EffectModel::skylake_like`]) and seed 0.
    pub fn new(machine: Machine) -> Self {
        SimConfig {
            machine,
            quantum_s: 1e-3,
            effects: EffectModel::default(),
            seed: 0,
            engine: EngineKind::default(),
            sim_threads: 1,
        }
    }

    /// Overrides the effect model.
    pub fn with_effects(mut self, effects: EffectModel) -> Self {
        self.effects = effects;
        self
    }

    /// Overrides the time quantum.
    pub fn with_quantum(mut self, quantum_s: f64) -> Self {
        self.quantum_s = quantum_s;
        self
    }

    /// Overrides the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the execution engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the event engine's worker-thread count; see
    /// [`SimConfig::sim_threads`]. Zero is clamped to 1.
    pub fn with_sim_threads(mut self, sim_threads: usize) -> Self {
        self.sim_threads = sim_threads.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::tiny;

    #[test]
    fn ideal_effects_are_neutral() {
        let e = EffectModel::ideal();
        assert_eq!(e.jitter, 0.0);
        assert_eq!(e.remote_efficiency, 1.0);
        assert_eq!(e.saturation_loss, 0.0);
        assert_eq!(e.multi_app_interference, 0.0);
        assert_eq!(e.remote_service_overhead, 0.0);
        assert!(!e.allow_oversubscription);
    }

    #[test]
    fn skylake_like_is_lossy_but_mild() {
        let e = EffectModel::skylake_like();
        assert!(e.remote_efficiency < 1.0 && e.remote_efficiency > 0.5);
        assert!(e.saturation_loss > 0.0 && e.saturation_loss < 0.2);
        assert!(e.remote_service_overhead >= 0.0);
        assert!(e.oversub_switch_loss < 0.1, "paper: only a few percent");
    }

    #[test]
    fn config_builders() {
        let c = SimConfig::new(tiny())
            .with_quantum(5e-4)
            .with_seed(9)
            .with_effects(EffectModel::ideal())
            .with_engine(EngineKind::Event);
        assert_eq!(c.quantum_s, 5e-4);
        assert_eq!(c.seed, 9);
        assert_eq!(c.effects, EffectModel::ideal());
        assert_eq!(c.engine, EngineKind::Event);
    }

    #[test]
    fn sim_threads_builder_clamps_zero() {
        let c = SimConfig::new(tiny()).with_sim_threads(0);
        assert_eq!(c.sim_threads, 1);
        assert_eq!(SimConfig::new(tiny()).sim_threads, 1, "default is 1");
        assert_eq!(SimConfig::new(tiny()).with_sim_threads(8).sim_threads, 8);
    }

    #[test]
    fn balanced_plan_partitions_apps_and_nodes() {
        let plan = ShardPlan::balanced(10, 8, 4, &[1; 10]);
        assert_eq!(plan.num_shards(), 4);
        assert_eq!(plan.app_bounds.first(), Some(&0));
        assert_eq!(plan.app_bounds.last(), Some(&10));
        assert_eq!(plan.node_bounds, vec![0, 2, 4, 6, 8]);
        assert!(plan.check(10, 8).is_ok());
        for node in 0..8 {
            let s = plan.node_owner(node);
            assert!(plan.node_bounds[s] <= node && node < plan.node_bounds[s + 1]);
        }
    }

    #[test]
    fn balanced_plan_follows_weights() {
        // One heavy app (weight 8) and seven light ones across two shards:
        // the heavy app should sit alone (or nearly so) in its shard.
        let plan = ShardPlan::balanced(8, 4, 2, &[8, 1, 1, 1, 1, 1, 1, 1]);
        let first = plan.app_bounds[1];
        assert!(first <= 2, "heavy first shard stays small, got {plan:?}");
        // More shards than apps: surplus shards are empty but valid.
        let wide = ShardPlan::balanced(2, 2, 8, &[1, 1]);
        assert_eq!(wide.num_shards(), 8);
        assert!(wide.check(2, 2).is_ok());
    }

    #[test]
    fn plan_check_rejects_malformed_bounds() {
        let plan = ShardPlan {
            app_bounds: vec![0, 3, 2],
            node_bounds: vec![0, 1, 2],
        };
        assert!(plan.check(2, 2).is_err(), "decreasing bounds");
        let plan = ShardPlan {
            app_bounds: vec![0, 2],
            node_bounds: vec![0, 1],
        };
        assert!(plan.check(2, 2).is_err(), "node bounds fall short");
    }

    #[test]
    fn engine_kind_round_trips() {
        assert_eq!(EngineKind::default(), EngineKind::Slice);
        for kind in [EngineKind::Slice, EngineKind::Event] {
            assert_eq!(EngineKind::parse(kind.as_str()), Some(kind));
            assert_eq!(EngineKind::parse(&kind.as_str().to_uppercase()), Some(kind));
        }
        assert_eq!(EngineKind::parse("quantum"), None);
        assert_eq!(EngineKind::Event.to_string(), "event");
    }
}
