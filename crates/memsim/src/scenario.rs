//! Declarative, serializable experiment scenarios.
//!
//! A [`Scenario`] bundles everything one simulator experiment needs —
//! machine, applications, one or more named assignments, duration, effect
//! model, seed — into a single JSON-serializable value, so experiments can
//! be version-controlled, shipped to the CLI (`coop-cli simulate`), and
//! re-run identically anywhere. [`run_scenario`] executes every assignment
//! and, for comparison, also scores each with the analytic model.

use crate::engine::{check_apps, check_threads};
use crate::{EffectModel, EngineKind, Result, SimApp, SimConfig, SimError, Simulation};
use coop_telemetry::json::{self, FromJson, ToJson};
use coop_telemetry::{json_struct, json_write};
use numa_topology::Machine;
use roofline_numa::{solve, AppSpec, ThreadAssignment};

/// One named thread assignment inside a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedAssignment {
    /// Label used in results (e.g. `"even (5,5,5,5)"`).
    pub name: String,
    /// The `[app][node]` thread matrix.
    pub threads: Vec<Vec<usize>>,
}

/// A complete, self-contained experiment description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name.
    pub name: String,
    /// The machine to simulate.
    pub machine: Machine,
    /// The applications.
    pub apps: Vec<SimApp>,
    /// The assignments to compare.
    pub assignments: Vec<NamedAssignment>,
    /// Simulated duration per assignment, seconds.
    pub duration_s: f64,
    /// The effect model.
    pub effects: EffectModel,
    /// Jitter seed.
    pub seed: u64,
}

/// Result for one assignment of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// Assignment label.
    pub name: String,
    /// Simulated (effectful) machine-wide GFLOPS.
    pub simulated_gflops: f64,
    /// Analytic-model machine-wide GFLOPS for the same assignment.
    pub model_gflops: f64,
    /// Per-application simulated GFLOPS.
    pub per_app_gflops: Vec<f64>,
}

/// Result of a whole scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// One row per assignment, in scenario order.
    pub rows: Vec<ScenarioRow>,
}

json_struct!(NamedAssignment: name, threads);
json_struct!(Scenario: name, machine, apps, assignments, duration_s, effects, seed);
json_write!(ScenarioRow: name, simulated_gflops, model_gflops, per_app_gflops);
json_write!(ScenarioResult: name, rows);

impl Scenario {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().write_pretty()
    }

    /// Deserializes and validates a scenario from JSON.
    pub fn from_json(json: &str) -> Result<Scenario> {
        let s = json::parse(json)
            .and_then(|doc| Scenario::from_value(&doc))
            .map_err(|e| SimError::Calibration {
                reason: format!("scenario JSON: {e}"),
            })?;
        s.validate()?;
        Ok(s)
    }

    /// Validates apps and assignments against the machine and the run
    /// budget. Assignments are checked for shape and thread count only:
    /// whether one over-subscribes, and whether the duration fits the
    /// budget, is the run's to refuse (a supervised run simulates its own
    /// duration, not the scenario's).
    pub fn validate(&self) -> Result<()> {
        check_apps(&self.machine, &self.apps)?;
        if self.assignments.is_empty() {
            return Err(SimError::BadTime {
                reason: "scenario needs at least one assignment",
            });
        }
        for a in &self.assignments {
            let rows = a.threads.iter().map(Vec::as_slice);
            check_threads(rows, self.apps.len(), self.machine.num_nodes())?;
        }
        Ok(())
    }
}

/// Executes every assignment of the scenario, with the analytic model's
/// score alongside for comparison. The model comparison uses the same
/// machine (no calibration) and requires no over-subscription; assignments
/// that over-subscribe get `model_gflops = NaN`-free `0.0` with the
/// simulated value still reported.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioResult> {
    run_scenario_on(scenario, None, EngineKind::default())
}

/// The general scenario runner: an optional telemetry hub (every
/// assignment's run publishes per-node bandwidth counter tracks, scheduler
/// switch counters and utilization gauges into it) and an explicit
/// [`EngineKind`] (what `coop simulate --engine` calls).
pub fn run_scenario_on(
    scenario: &Scenario,
    hub: Option<std::sync::Arc<coop_telemetry::TelemetryHub>>,
    engine: EngineKind,
) -> Result<ScenarioResult> {
    scenario.validate()?;
    let mut sim = Simulation::new(
        SimConfig::new(scenario.machine.clone())
            .with_effects(scenario.effects.clone())
            .with_seed(scenario.seed)
            .with_engine(engine),
    );
    if let Some(hub) = hub {
        sim = sim.with_telemetry(hub);
    }
    let specs: Vec<AppSpec> = scenario.apps.iter().map(|a| a.spec.clone()).collect();

    let mut rows = Vec::with_capacity(scenario.assignments.len());
    for named in &scenario.assignments {
        let assignment = ThreadAssignment::from_matrix(named.threads.clone());
        let r = sim.run(&scenario.apps, &assignment, scenario.duration_s)?;
        let model_gflops = solve(&scenario.machine, &specs, &assignment)
            .map(|m| m.total_gflops())
            .unwrap_or(0.0);
        rows.push(ScenarioRow {
            name: named.name.clone(),
            simulated_gflops: r.total_gflops(),
            model_gflops,
            per_app_gflops: (0..scenario.apps.len()).map(|a| r.app_gflops(a)).collect(),
        });
    }
    Ok(ScenarioResult {
        name: scenario.name.clone(),
        rows,
    })
}

impl std::fmt::Display for ScenarioResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "scenario: {}", self.name)?;
        writeln!(
            f,
            "{:<28} {:>12} {:>12}",
            "assignment", "simulated", "model"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<28} {:>12.2} {:>12.2}",
                r.name, r.simulated_gflops, r.model_gflops
            )?;
        }
        Ok(())
    }
}

/// A ready-made scenario: the paper's Table III local scenarios on the
/// calibrated Skylake machine (handy as a template for custom files —
/// `coop-cli simulate --write-template` emits it).
pub fn template() -> Scenario {
    let machine = numa_topology::presets::paper_skylake_machine();
    Scenario {
        name: "table3-local-scenarios".into(),
        apps: vec![
            SimApp::numa_local("mem1", 1.0 / 32.0),
            SimApp::numa_local("mem2", 1.0 / 32.0),
            SimApp::numa_local("mem3", 1.0 / 32.0),
            SimApp::numa_local("comp", 1.0),
        ],
        assignments: vec![
            NamedAssignment {
                name: "uneven (1,1,1,17)".into(),
                threads: vec![vec![1; 4], vec![1; 4], vec![1; 4], vec![17; 4]],
            },
            NamedAssignment {
                name: "even (5,5,5,5)".into(),
                threads: vec![vec![5; 4]; 4],
            },
        ],
        duration_s: 0.05,
        effects: EffectModel::ideal(),
        seed: 0,
        machine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_round_trips_and_runs() {
        let s = template();
        let json = s.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);

        let result = run_scenario(&back).unwrap();
        assert_eq!(result.rows.len(), 2);
        // Ideal effects: simulated == model, and the model values are the
        // paper's Table III rows 1-2.
        for r in &result.rows {
            assert!(
                (r.simulated_gflops - r.model_gflops).abs() < 1e-6,
                "{}: {} vs {}",
                r.name,
                r.simulated_gflops,
                r.model_gflops
            );
        }
        assert!((result.rows[0].model_gflops - 23.20).abs() < 5e-3);
        assert!((result.rows[1].model_gflops - 18.12).abs() < 5e-3);
    }

    #[test]
    fn validation_rejects_bad_scenarios() {
        let mut s = template();
        s.assignments.clear();
        assert!(s.validate().is_err());

        let mut s = template();
        s.assignments[0].threads.pop(); // app count mismatch
        assert!(matches!(
            s.validate(),
            Err(SimError::Model(
                roofline_numa::ModelError::AppCountMismatch { .. }
            ))
        ));

        // An activity pattern that cannot advance time (see
        // `ActivityPattern::validate`).
        let mut s = template();
        s.apps[0].activity = crate::ActivityPattern::Bursts {
            period_s: 0.0,
            duty: 0.5,
            phase_s: 0.0,
        };
        assert!(matches!(s.validate(), Err(SimError::BadTime { .. })));

        assert!(Scenario::from_json("not json").is_err());
    }

    #[test]
    fn display_lists_every_assignment() {
        let result = run_scenario(&template()).unwrap();
        let text = result.to_string();
        assert!(text.contains("uneven (1,1,1,17)"));
        assert!(text.contains("even (5,5,5,5)"));
    }

    #[test]
    fn scenario_with_telemetry_records_bandwidth() {
        let hub = std::sync::Arc::new(coop_telemetry::TelemetryHub::new());
        let result = run_scenario_on(
            &template(),
            Some(std::sync::Arc::clone(&hub)),
            EngineKind::Slice,
        )
        .unwrap();
        assert_eq!(result.rows.len(), 2);
        assert!(hub.events().iter().any(|e| e.cat == "bandwidth"));
        assert!(hub
            .registry()
            .to_prometheus()
            .contains("memsim_node_utilization"));
    }

    #[test]
    fn event_engine_runs_the_template_scenario() {
        let slice = run_scenario_on(&template(), None, EngineKind::Slice).unwrap();
        let event = run_scenario_on(&template(), None, EngineKind::Event).unwrap();
        assert_eq!(slice.rows.len(), event.rows.len());
        for (s, e) in slice.rows.iter().zip(&event.rows) {
            assert_eq!(s.name, e.name);
            assert!(
                (s.simulated_gflops - e.simulated_gflops).abs()
                    <= 1e-9 * s.simulated_gflops.max(1.0),
                "{}: slice {} vs event {}",
                s.name,
                s.simulated_gflops,
                e.simulated_gflops
            );
        }
    }

    #[test]
    fn per_app_breakdown_sums_to_total() {
        let result = run_scenario(&template()).unwrap();
        for r in &result.rows {
            let sum: f64 = r.per_app_gflops.iter().sum();
            assert!((sum - r.simulated_gflops).abs() < 1e-6);
        }
    }
}
