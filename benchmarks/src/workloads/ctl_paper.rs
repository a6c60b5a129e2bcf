//! `ctl_paper`: the paper's own scenario in steady state. One op is one
//! decision tick of `memsim::run_supervised` with `reoptimize` on.

use super::{replay_solves, search_oracle, Meter, Workload};
use crate::gen::Rng;
use crate::trace::{SpanId, Tracer};
use coop_alloc::search::HillClimb;
use coop_alloc::SearchCounters;
use coop_telemetry::{ModelObservatory, SeriesValue, TelemetryHub};
use memsim::{
    run_supervised, EffectModel, EngineKind, Perturbation, Scenario, SupervisedResult,
    SupervisorConfig,
};
use roofline_numa::{solve, AppSpec, ThreadAssignment};
use std::sync::Arc;
use std::time::Instant;

const DECISION_PERIOD_S: f64 = 0.02;

pub struct CtlPaper {
    seed: u64,
    ticks: u64,
    template: Scenario,
}

/// What one round measured, for the quality metrics.
pub struct RoundQuality {
    /// Mean over ticks of the simulated delivered GFLOP/s (all tenants).
    pub sim_gflops: f64,
    /// Mean |measured - predicted| / |predicted| over the `app/*/gflops`
    /// residuals of unperturbed ticks, in percent.
    pub model_err_pct: f64,
    pub alarms: usize,
}

impl CtlPaper {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut template = memsim::scenario::template();
        template.effects = EffectModel::skylake_like();
        CtlPaper {
            seed,
            ticks: if smoke { 50 } else { 500 },
            template,
        }
    }

    /// Round inputs: the scenario's jitter seed and one bandwidth
    /// perturbation at a seeded tick, node and depth. No outages: with them
    /// `run_supervised` does not re-solve predictions for the live set.
    pub fn inputs(&self, r: u64, reoptimize: bool) -> (Scenario, SupervisorConfig) {
        let mut rng = Rng::stream(self.seed, r);
        let mut scenario = self.template.clone();
        scenario.seed = rng.next_u64();
        let at_tick = rng.range(self.ticks as usize / 5, self.ticks as usize * 4 / 5);
        let config = SupervisorConfig {
            decision_period_s: DECISION_PERIOD_S,
            duration_s: self.ticks as f64 * DECISION_PERIOD_S,
            perturbations: vec![Perturbation::NodeBandwidth {
                at_s: at_tick as f64 * DECISION_PERIOD_S,
                node: rng.range(0, scenario.machine.num_nodes()),
                bandwidth_factor: rng.uniform(0.4, 0.8),
            }],
            reoptimize,
            engine: EngineKind::Event,
            ..SupervisorConfig::default()
        };
        (scenario, config)
    }

    pub fn run(&self, r: u64, reoptimize: bool) -> memsim::Result<SupervisedResult> {
        let (scenario, config) = self.inputs(r, reoptimize);
        run_supervised(&scenario, &config, Arc::new(TelemetryHub::new()))
    }

    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Checks one round's output; returns the number of violating ticks.
    pub fn check(&self, result: &SupervisedResult) -> (u64, Option<RoundQuality>) {
        if result.ticks.len() as u64 != self.ticks {
            return (self.ticks, None);
        }
        let mut bad = 0u64;
        let mut gflops_sum = 0.0;
        let mut err_sum = 0.0;
        let mut err_n = 0u64;
        for tick in &result.ticks {
            let mut tick_gflops = 0.0;
            let mut seen = 0;
            for res in &tick.residuals {
                if res.series.starts_with("app/") && res.series.ends_with("/gflops") {
                    seen += 1;
                    tick_gflops += res.measured;
                    if !tick.perturbed {
                        err_sum += res.relative.abs();
                        err_n += 1;
                    }
                }
            }
            let ok =
                seen == self.template.apps.len() && tick_gflops.is_finite() && tick_gflops > 0.0;
            bad += u64::from(!ok);
            gflops_sum += tick_gflops;
        }
        let quality = RoundQuality {
            sim_gflops: gflops_sum / self.ticks as f64,
            model_err_pct: 100.0 * err_sum / err_n.max(1) as f64,
            alarms: result.total_alarms(),
        };
        (bad, Some(quality))
    }

    /// Replays the warm re-search `run_supervised` performs each tick: one
    /// oracle, score cache and delta base for the whole run, 600 proposals
    /// seeded per tick, warm-started from the incumbent. Returns the summed
    /// solver counters (they repeat exactly).
    pub fn replay_search(&self, scenario: &Scenario) -> SearchCounters {
        let specs: Vec<AppSpec> = scenario.apps.iter().map(|a| a.spec.clone()).collect();
        let (mut oracle, _) = search_oracle(&scenario.machine, &specs);
        let mut assignment = ThreadAssignment::from_matrix(scenario.assignments[0].threads.clone());
        let mut counters = SearchCounters::default();
        for tick in 0..self.ticks {
            let found = HillClimb::new()
                .with_iterations(600)
                .with_seed(0xc0de ^ tick)
                .with_start(assignment.clone())
                .run_model(&scenario.machine, &mut oracle)
                .expect("warm re-search succeeds on the template");
            counters.merge(found.counters);
            assignment = found.assignment;
        }
        counters
    }

    fn replay(&self, r: u64, parent: Option<SpanId>, tracer: &mut Tracer) {
        let (scenario, _) = self.inputs(r, true);
        // Simulator + telemetry share: the same run with the search off.
        let (fixed, _) = tracer.replay("memsim", "run_supervised.fixed", parent, r, || {
            self.run(r, false).expect("fixed-assignment run succeeds")
        });
        // Telemetry inside that share: one provenance open+close per tick.
        tracer.replay("telemetry", "provenance.open_close", fixed, r, || {
            replay_provenance(&scenario, self.ticks)
        });
        // Search share, and the solver calls inside it.
        let (search, counters) = tracer.replay("core", "hillclimb.warm", parent, r, || {
            self.replay_search(&scenario)
        });
        let specs: Vec<AppSpec> = scenario.apps.iter().map(|a| a.spec.clone()).collect();
        let base = ThreadAssignment::from_matrix(scenario.assignments[0].threads.clone());
        tracer.replay("roofline", "delta+full solves", search, r, || {
            replay_solves(&scenario.machine, &specs, &base, counters)
        });
    }
}

/// `ticks` provenance records opened and back-filled with series shaped
/// like the supervisor's (two per app, one per node).
pub fn replay_provenance(scenario: &Scenario, ticks: u64) {
    let specs: Vec<AppSpec> = scenario.apps.iter().map(|a| a.spec.clone()).collect();
    let assignment = ThreadAssignment::from_matrix(scenario.assignments[0].threads.clone());
    let report = solve(&scenario.machine, &specs, &assignment).expect("template solves");
    let prediction = report.to_prediction();
    let measured: Vec<SeriesValue> = prediction.series.clone();
    let observatory = ModelObservatory::new(Arc::new(TelemetryHub::new()));
    for tick in 0..ticks {
        let id = observatory.open_decision(tick, "coopbench", "replay", prediction.clone());
        std::hint::black_box(observatory.close_decision(id, measured.clone()));
    }
}

impl Workload for CtlPaper {
    fn round(&mut self, r: u64, meter: &mut Meter, tracer: &mut Tracer) {
        let t = Instant::now();
        let (span, result) = tracer.span("memsim", "run_supervised", None, r, || self.run(r, true));
        let us = t.elapsed().as_secs_f64() * 1e6;
        meter.ops += self.ticks;
        meter.op_us.push(us / self.ticks as f64);
        match result {
            Ok(result) => {
                let (bad, _) = self.check(&result);
                if bad > 0 {
                    meter.fail(bad, || {
                        format!("ctl_paper round {r}: {bad} ticks failed the output check")
                    });
                }
            }
            Err(e) => meter.fail(self.ticks, || format!("ctl_paper round {r}: {e}")),
        }
        if tracer.replays() {
            self.replay(r, span, tracer);
        }
    }
}
