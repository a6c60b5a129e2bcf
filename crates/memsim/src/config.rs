//! Simulator configuration and the second-order effect model.

use coop_telemetry::json_struct;
use numa_topology::Machine;

/// The knobs that make `memsim` behave like hardware instead of like the
/// analytic model. All effects are multiplicative on bandwidth or compute
/// throughput; see the crate docs for what each one represents.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectModel {
    /// Half-width of per-thread, per-segment multiplicative noise (0 = none):
    /// mean-preserving, uniform, keyed by seed, thread and segment start.
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

/// Where the one time-advance loop ([`crate::event`]) cuts simulated time.
///
/// Every state change (assignment edge, activity edge) is a heap event and
/// a cut; bandwidth is arbitrated once per segment between cuts and
/// integrated analytically. `Event` cuts nowhere else, so cost scales with
/// the number of events. `Slice` also cuts at every multiple of the
/// quantum, so cost scales with `duration / quantum` however eventful the
/// scenario is — for what only a grid provides: a jitter draw per thread
/// per quantum, windowed samples (discrete time-slicing brings the grid to
/// either kind). The two agree to float rounding on scenarios without those
/// effects (see `docs/performance.md`, "Fleet simulation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The event heap and the quantum grid.
    Slice,
    /// The event heap alone (a deterministic global heap of wake-ups).
    #[default]
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

/// Full simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The machine being simulated.
    pub machine: Machine,
    /// Time quantum in seconds, at least 1 ns: the grid step of
    /// [`EngineKind::Slice`], each quantum performing at least one
    /// bandwidth arbitration. Default 1 ms.
    pub quantum_s: f64,
    /// Second-order effects.
    pub effects: EffectModel,
    /// Seed of the jitter draws (simulations are deterministic per seed).
    pub seed: u64,
    /// Where the loop cuts time (default [`EngineKind::Event`]).
    pub engine: EngineKind,
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

    // Ignores its argument: kept only for coopbench's `memsim.par2_*` probe
    // (`benchmarks/src/workloads/fleet.rs`); goes with it in the next `benchmark` PR.
    #[doc(hidden)]
    pub fn with_sim_threads(self, _sim_threads: usize) -> Self {
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
    fn engine_kind_round_trips() {
        assert_eq!(EngineKind::default(), EngineKind::Event);
        for kind in [EngineKind::Slice, EngineKind::Event] {
            assert_eq!(EngineKind::parse(kind.as_str()), Some(kind));
            assert_eq!(EngineKind::parse(&kind.as_str().to_uppercase()), Some(kind));
        }
        assert_eq!(EngineKind::parse("quantum"), None);
        assert_eq!(EngineKind::Event.to_string(), "event");
    }
}
