//! Table III: model vs (simulated) real hardware, five scenarios,
//! including the paper's calibration procedure.
//!
//! The paper's procedure, §III.B, which this module re-enacts end to end:
//!
//! 1. Run the synthetic benchmark on the real machine in the even-
//!    allocation scenario. (Here: `memsim` with [`EffectModel::skylake_like`]
//!    on a "true" machine whose raw parameters — 118 GB/s per node,
//!    0.2905 GFLOPS per thread, 11.6 GB/s links — are deliberately richer
//!    than what software can observe, exactly like real hardware specs
//!    exceed achievable STREAM numbers.)
//! 2. Fit the model's machine parameters from that one scenario
//!    ([`memsim::calibrate_even_scenario`]); the paper got 100 GB/s and
//!    0.29 GFLOPS/thread, and so does the fit here.
//! 3. Predict all five scenarios with the model and compare against the
//!    "real" measurements.
//!
//! The paper's observation — the model is a good match on the NUMA-local
//! scenarios and *over*-estimates the NUMA-bad ones by ~5% — emerges from
//! the simulator's effect model rather than being hard-coded.

use crate::report::{Row, Table};
use coop_telemetry::{DriftReport, ModelObservatory, SeriesValue, TelemetryHub};
use coop_workloads::apps::{sim_apps_with_sync, skylake_bad_mix, skylake_mix};
use memsim::{calibrate_even_scenario, EffectModel, SimApp, SimConfig, Simulation};
use numa_topology::{Machine, MachineBuilder, NodeId};
use roofline_numa::{solve, AppSpec, ThreadAssignment};
use std::sync::Arc;

/// Per-scenario outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario label (matches the paper's rows).
    pub label: String,
    /// Model prediction on the calibrated machine, GFLOPS.
    pub model: f64,
    /// "Real" (simulated hardware) measurement, GFLOPS.
    pub real: f64,
    /// The paper's model value.
    pub paper_model: f64,
    /// The paper's real value.
    pub paper_real: f64,
}

/// Full Table III result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3 {
    /// Fitted peak GFLOPS per thread (paper: 0.29).
    pub calibrated_peak: f64,
    /// Fitted node bandwidth (paper: 100 GB/s).
    pub calibrated_bandwidth: f64,
    /// The five scenarios, in the paper's order.
    pub scenarios: Vec<Scenario>,
}

/// The "true" hardware the simulator runs: richer than the calibrated
/// view, as real hardware is.
pub(crate) fn true_machine() -> Machine {
    MachineBuilder::new()
        .name("skylake-4x20-true")
        .symmetric_nodes(4, 20)
        .core_peak_gflops(0.2905)
        .node_bandwidth_gbs(118.0)
        .uniform_link_gbs(11.6)
        .build()
        .expect("true machine is valid")
}

/// The per-app synchronization overhead used for the compute-bound
/// benchmark (a statically-partitioned kernel pays a little coordination
/// cost per extra thread; this is what makes the paper's uneven scenario
/// fall slightly below the model).
const COMP_SYNC_ALPHA: f64 = 0.0003;

fn sim_mix(specs: &[AppSpec]) -> Vec<SimApp> {
    // The 4th app is the compute-bound (or NUMA-bad) one; only the
    // compute-bound kernel carries the sync overhead.
    let alphas: Vec<f64> = specs
        .iter()
        .map(|s| if s.ai >= 1.0 { COMP_SYNC_ALPHA } else { 0.0 })
        .collect();
    sim_apps_with_sync(specs, &alphas)
}

/// Runs the whole Table III procedure. `duration_s` trades precision for
/// time (0.2 s of simulated time is plenty; the binary uses 0.2, tests use
/// less).
pub fn run(duration_s: f64) -> Table3 {
    let machine = true_machine();
    let sim =
        Simulation::new(SimConfig::new(machine.clone()).with_effects(EffectModel::skylake_like()));

    let local = skylake_mix();
    let bad0 = skylake_bad_mix(NodeId(0));
    let bad3 = skylake_bad_mix(NodeId(3));

    let uneven = ThreadAssignment::uniform_per_node(&machine, &[1, 1, 1, 17]);
    let even = ThreadAssignment::uniform_per_node(&machine, &[5, 5, 5, 5]);
    let per_node = ThreadAssignment::node_per_app(&machine, 4).expect("4 apps, 4 nodes");

    // --- Step 1: "measure" all five scenarios on the true hardware. ----
    let r_uneven = sim.run(&sim_mix(&local), &uneven, duration_s).unwrap();
    let r_even = sim.run(&sim_mix(&local), &even, duration_s).unwrap();
    let r_pernode = sim.run(&sim_mix(&local), &per_node, duration_s).unwrap();
    let r_bad_cross = sim.run(&sim_mix(&bad0), &even, duration_s).unwrap();
    let r_bad_on = sim.run(&sim_mix(&bad3), &per_node, duration_s).unwrap();

    // --- Step 2: calibrate from the even scenario, like the paper. -----
    let mem_total: f64 = (0..3).map(|a| r_even.app_gflops(a)).sum();
    let comp = r_even.app_gflops(3);
    let cal = calibrate_even_scenario(&machine, mem_total, 1.0 / 32.0, comp, 20)
        .expect("calibration inputs are sane");
    // The model machine uses the fitted peak/bandwidth and the 10 GB/s
    // link assumption of `paper_skylake_machine` (links are estimated from
    // separate STREAM runs in the paper, not from this scenario).
    let model_machine = MachineBuilder::new()
        .name("skylake-4x20-calibrated")
        .symmetric_nodes(4, 20)
        .core_peak_gflops(cal.core_peak_gflops)
        .node_bandwidth_gbs(cal.node_bandwidth_gbs)
        .uniform_link_gbs(10.0)
        .build()
        .expect("calibrated machine is valid");

    // --- Step 3: model predictions. -------------------------------------
    let model = |apps: &[AppSpec], a: &ThreadAssignment| {
        solve(&model_machine, apps, a).unwrap().total_gflops()
    };

    let scenarios = vec![
        Scenario {
            label: "uneven (1,1,1,17)".into(),
            model: model(&local, &uneven),
            real: r_uneven.total_gflops(),
            paper_model: 23.20,
            paper_real: 22.82,
        },
        Scenario {
            label: "even (5,5,5,5)".into(),
            model: model(&local, &even),
            real: r_even.total_gflops(),
            paper_model: 18.12,
            paper_real: 18.14,
        },
        Scenario {
            label: "node per app".into(),
            model: model(&local, &per_node),
            real: r_pernode.total_gflops(),
            paper_model: 15.18,
            paper_real: 15.28,
        },
        Scenario {
            label: "NUMA-bad cross-node".into(),
            model: model(&bad0, &even),
            real: r_bad_cross.total_gflops(),
            paper_model: 13.98,
            paper_real: 13.25,
        },
        Scenario {
            label: "NUMA-bad on-node".into(),
            model: model(&bad3, &per_node),
            real: r_bad_on.total_gflops(),
            paper_model: 15.18,
            paper_real: 14.52,
        },
    ];

    Table3 {
        calibrated_peak: cal.core_peak_gflops,
        calibrated_bandwidth: cal.node_bandwidth_gbs,
        scenarios,
    }
}

/// One decision tick of the continuous residual replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualTick {
    /// Tick index.
    pub tick: u64,
    /// Model prediction for the tick, machine-wide GFLOPS.
    pub predicted_gflops: f64,
    /// Simulated "real" measurement for the tick, machine-wide GFLOPS.
    pub measured_gflops: f64,
    /// Relative machine-wide residual `(measured - predicted)/predicted`.
    pub residual: f64,
}

/// Result of [`run_residuals`]: the Table III even scenario replayed as a
/// stream of predict/measure decision ticks instead of one aggregate row.
#[derive(Debug, Clone)]
pub struct Table3Residuals {
    /// Fitted peak GFLOPS per thread (paper: 0.29).
    pub calibrated_peak: f64,
    /// Fitted node bandwidth (paper: 100 GB/s).
    pub calibrated_bandwidth: f64,
    /// Per-tick predicted vs measured throughput.
    pub ticks: Vec<ResidualTick>,
    /// The observatory's drift report over all series.
    pub report: DriftReport,
}

impl Table3Residuals {
    /// Mean absolute machine-wide relative residual.
    pub(crate) fn mean_abs_residual(&self) -> f64 {
        if self.ticks.is_empty() {
            return 0.0;
        }
        self.ticks.iter().map(|t| t.residual.abs()).sum::<f64>() / self.ticks.len() as f64
    }
}

impl std::fmt::Display for Table3Residuals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "continuous Table III (even scenario): {} ticks, mean |residual| {:.4}, {} alarms",
            self.ticks.len(),
            self.mean_abs_residual(),
            self.report.total_alarms()
        )?;
        writeln!(
            f,
            "{:>5} {:>10} {:>10} {:>9}",
            "tick", "model", "real", "residual"
        )?;
        for t in &self.ticks {
            writeln!(
                f,
                "{:>5} {:>10.2} {:>10.2} {:>+9.4}",
                t.tick, t.predicted_gflops, t.measured_gflops, t.residual
            )?;
        }
        Ok(())
    }
}

/// The continuous residual mode: replay the paper's even scenario as a
/// stream of decision ticks. Each tick is predicted with the *calibrated*
/// model machine, measured on the *true* machine (with the full effect
/// model), and back-filled into a [`ModelObservatory`] — Table III's
/// one-shot model-vs-real comparison turned into residual tracking. With
/// calibration as good as the paper's, the machine-wide residual stays in
/// the low percent range and the drift detector stays quiet.
pub fn run_residuals(duration_s: f64, decision_period_s: f64) -> Table3Residuals {
    let machine = true_machine();
    let local = skylake_mix();
    let even = ThreadAssignment::uniform_per_node(&machine, &[5, 5, 5, 5]);

    // Calibrate exactly like `run` (one even-scenario measurement).
    let sim =
        Simulation::new(SimConfig::new(machine.clone()).with_effects(EffectModel::skylake_like()));
    let r_even = sim.run(&sim_mix(&local), &even, duration_s).unwrap();
    let mem_total: f64 = (0..3).map(|a| r_even.app_gflops(a)).sum();
    let comp = r_even.app_gflops(3);
    let cal = calibrate_even_scenario(&machine, mem_total, 1.0 / 32.0, comp, 20)
        .expect("calibration inputs are sane");
    let model_machine = MachineBuilder::new()
        .name("skylake-4x20-calibrated")
        .symmetric_nodes(4, 20)
        .core_peak_gflops(cal.core_peak_gflops)
        .node_bandwidth_gbs(cal.node_bandwidth_gbs)
        .uniform_link_gbs(10.0)
        .build()
        .expect("calibrated machine is valid");

    // One prediction per tick from the calibrated machine; one measurement
    // per tick from the true machine (fresh jitter seed each segment).
    let report = solve(&model_machine, &local, &even).expect("even scenario solves");
    let mut prediction = report.to_prediction();
    prediction.assignment = "even (5,5,5,5)".into();
    let predicted_gflops = report.total_gflops();

    let hub = Arc::new(TelemetryHub::new());
    let observatory = ModelObservatory::new(Arc::clone(&hub));
    let apps = sim_mix(&local);
    let n_ticks = (duration_s / decision_period_s).ceil().max(1.0) as u64;
    let mut ticks = Vec::with_capacity(n_ticks as usize);
    for tick in 0..n_ticks {
        let id = observatory.open_decision(tick, "table3", "even (5,5,5,5)", prediction.clone());
        let sim = Simulation::new(
            SimConfig::new(machine.clone())
                .with_effects(EffectModel::skylake_like())
                .with_seed(tick),
        );
        let r = sim.run(&apps, &even, decision_period_s).unwrap();
        let mut measured = Vec::with_capacity(local.len() * 2 + machine.num_nodes());
        for (i, spec) in local.iter().enumerate() {
            let gflops = r.app_gflops(i);
            measured.push(SeriesValue::new(
                format!("app/{}/gflops", spec.name),
                gflops,
            ));
            measured.push(SeriesValue::new(
                format!("app/{}/bandwidth_gbs", spec.name),
                gflops / spec.ai,
            ));
        }
        for (n, &gbs) in r.node_avg_gbs.iter().enumerate() {
            measured.push(SeriesValue::new(format!("node/{n}/bandwidth_gbs"), gbs));
        }
        observatory.close_decision(id, measured);
        let measured_gflops = r.total_gflops();
        ticks.push(ResidualTick {
            tick,
            predicted_gflops,
            measured_gflops,
            residual: (measured_gflops - predicted_gflops) / predicted_gflops,
        });
    }

    Table3Residuals {
        calibrated_peak: cal.core_peak_gflops,
        calibrated_bandwidth: cal.node_bandwidth_gbs,
        ticks,
        report: observatory.report(),
    }
}

impl Table3 {
    /// The model column as a comparison table against the paper's model
    /// column.
    pub fn model_table(&self) -> Table {
        let mut t = Table::new("Table III — model column", "GFLOPS");
        for s in &self.scenarios {
            t.push(Row::with_paper(&s.label, s.paper_model, s.model));
        }
        t
    }

    /// The real column as a comparison table against the paper's real
    /// column.
    pub fn real_table(&self) -> Table {
        let mut t = Table::new("Table III — real (simulated hardware) column", "GFLOPS");
        for s in &self.scenarios {
            t.push(Row::with_paper(&s.label, s.paper_real, s.real));
        }
        t
    }
}

impl std::fmt::Display for Table3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "calibrated parameters: {:.4} GFLOPS/thread (paper 0.29), {:.1} GB/s per node (paper 100)",
            self.calibrated_peak, self.calibrated_bandwidth
        )?;
        writeln!(
            f,
            "{:<22} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
            "scenario", "model", "real", "p.model", "p.real", "m/r", "paper m/r"
        )?;
        for s in &self.scenarios {
            writeln!(
                f,
                "{:<22} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.3} {:>9.3}",
                s.label,
                s.model,
                s.real,
                s.paper_model,
                s.paper_real,
                s.model / s.real,
                s.paper_model / s.paper_real
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_lands_on_paper_values() {
        let t = run(0.05);
        assert!(
            (t.calibrated_peak - 0.29).abs() < 0.005,
            "peak {}",
            t.calibrated_peak
        );
        assert!(
            (t.calibrated_bandwidth - 100.0).abs() < 2.0,
            "bandwidth {}",
            t.calibrated_bandwidth
        );
    }

    #[test]
    fn model_column_matches_paper_within_2_percent() {
        let t = run(0.05);
        let m = t.model_table();
        assert!(
            m.max_deviation() < 0.02,
            "model column deviation {}",
            m.max_deviation()
        );
    }

    #[test]
    fn real_column_matches_paper_within_5_percent() {
        let t = run(0.05);
        let r = t.real_table();
        assert!(
            r.max_deviation() < 0.05,
            "real column deviation {}",
            r.max_deviation()
        );
    }

    #[test]
    fn residual_mode_tracks_calibrated_model() {
        let r = run_residuals(0.05, 0.01);
        assert_eq!(r.ticks.len(), 5);
        // The even scenario is the calibration target: the continuous
        // machine-wide residual stays small...
        assert!(
            r.mean_abs_residual() < 0.03,
            "mean |residual| {}",
            r.mean_abs_residual()
        );
        // ...every tick has a real (nonzero) residual — this is measured
        // hardware-with-effects against an analytic model...
        assert!(r.ticks.iter().any(|t| t.residual != 0.0));
        // ...and a well-calibrated model raises no drift alarms.
        assert_eq!(
            r.report.total_alarms(),
            0,
            "report:\n{}",
            r.report.to_text()
        );
        // The report carries per-app and per-node series.
        assert!(r.report.series.iter().any(|s| s.series.starts_with("app/")));
        assert!(r
            .report
            .series
            .iter()
            .any(|s| s.series.starts_with("node/")));
    }

    #[test]
    fn shape_of_discrepancies_matches_paper() {
        let t = run(0.05);
        let s = &t.scenarios;
        // Even scenario is the calibration target: near-exact.
        assert!((s[1].model / s[1].real - 1.0).abs() < 0.005);
        // Node-per-app: real beats the model (paper: 15.28 > 15.18).
        assert!(s[2].real > s[2].model);
        // NUMA-bad rows: the model over-estimates.
        assert!(
            s[3].model > s[3].real,
            "cross-node: model should over-estimate"
        );
        assert!(
            s[4].model > s[4].real,
            "on-node: model should over-estimate"
        );
        // And the ordering of scenarios by performance matches the paper:
        // uneven > even > {node-per-app, on-node} > cross-node.
        assert!(s[0].real > s[1].real);
        assert!(s[1].real > s[2].real);
        assert!(s[2].real > s[3].real);
        assert!(s[4].real > s[3].real);
    }
}
