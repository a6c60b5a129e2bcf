//! Command execution: one function per subcommand, each over the checked
//! arguments its parser produced.

use crate::args::{
    field, parts, ChaosArgs, DriftArgs, ObserveArgs, ParetoArgs, SearchArgs, SearchMethod,
    SimulateArgs, SolveArgs, SweepArgs, TopArgs, TraceArgs,
};
use crate::session::{write_metrics_file, Session};
use crate::{AppArg, Cli, CliError, Command, OutputFormat, PlacementArg, Result};
use coop_alloc::{search, Objective, ThreadAssignment};
use coop_telemetry::json::{self, ToJson, Value};
use coop_telemetry::{json_object, SloSpec};
use numa_topology::{presets, Machine, NodeId};
use roofline_numa::{solve, sweep, AppSpec, DataPlacement};
use std::sync::Arc;

/// A preset machine: its `--machine` name and constructor.
type Preset = (&'static str, fn() -> Machine);

const PRESETS: [Preset; 6] = [
    ("paper-model", presets::paper_model_machine),
    ("paper-crossnode", presets::paper_crossnode_machine),
    ("paper-skylake", presets::paper_skylake_machine),
    ("dual-socket", presets::dual_socket),
    ("knl", presets::knl_snc4),
    ("tiny", presets::tiny),
];

/// Resolves a `--machine` argument: preset name, `host`, or a JSON path.
pub(crate) fn resolve_machine(name: &str) -> Result<Machine> {
    if let Some((_, preset)) = PRESETS.iter().find(|(n, _)| *n == name) {
        return Ok(preset());
    }
    if name == "host" {
        return Ok(numa_topology::host::detect_host());
    }
    let json = std::fs::read_to_string(name).map_err(|e| {
        CliError::usage(format!(
            "'{name}' is not a preset machine and could not be read as a file: {e}"
        ))
    })?;
    Machine::from_json(&json)
        .map_err(|e| CliError::failure(format!("invalid machine JSON in '{name}': {e}")))
}

/// Converts CLI app specs to model specs, validating against the machine.
pub(crate) fn resolve_apps(machine: &Machine, args: &[AppArg]) -> Result<Vec<AppSpec>> {
    args.iter()
        .map(|a| {
            let placement = match a.placement {
                PlacementArg::Local => DataPlacement::Local,
                PlacementArg::Node(n) => DataPlacement::SingleNode(NodeId(n)),
                PlacementArg::Spread => DataPlacement::Spread(vec![
                    1.0 / machine.num_nodes() as f64;
                    machine.num_nodes()
                ]),
            };
            let spec = AppSpec {
                name: a.name.clone(),
                ai: a.ai,
                placement,
            };
            spec.validate(machine)
                .map_err(|e| CliError::usage(format!("app '{}': {e}", a.name)))?;
            Ok(spec)
        })
        .collect()
}

/// A `--format json` document as printed: pretty, one trailing newline.
fn json_doc(doc: &Value) -> String {
    doc.write_pretty() + "\n"
}

/// A component's own JSON text as a [`Value`], to embed in a larger document.
fn reparse(what: &str, text: &str) -> Result<Value> {
    json::parse(text).map_err(|e| CliError::failure(format!("{what} JSON: {e}")))
}

/// [`json_doc`] of a simulator document stamped with the engine choice.
fn engine_doc(mut doc: Value, engine: memsim::EngineKind) -> String {
    doc.insert("engine", engine.as_str().to_value());
    json_doc(&doc)
}

/// `{runtime: health}` with the runtimes in name order.
fn health_doc(health: &[(String, coop_agent::Health)]) -> Value {
    let mut by_name: Vec<(String, &str)> =
        health.iter().map(|(n, h)| (n.clone(), h.name())).collect();
    by_name.sort();
    Value::object(&by_name)
}

/// Executes a parsed command; returns stdout text.
pub(crate) fn execute(cli: &Cli) -> Result<String> {
    let format = cli.format;
    match &cli.command {
        Command::Help => Ok(crate::args::USAGE.to_string()),
        Command::Machines => Ok(machines_text()),
        Command::Detect => detect(format),
        Command::Show(x) => Ok(resolve_machine(&x.machine)?.to_json() + "\n"),
        Command::Solve(x) => solve_cmd(x, format),
        Command::Search(x) => search_cmd(x, format),
        Command::Sweep(x) => sweep_cmd(x, format),
        Command::Pareto(x) => pareto_cmd(x, format),
        Command::Simulate(x) => simulate_cmd(x, format),
        Command::Chaos(x) => chaos_cmd(x, format),
        Command::Top(x) => top_cmd(x, format),
        Command::Observe(x) => observe_cmd(x, format),
        Command::Trace(x) => trace_cmd(x, format),
        Command::Drift(x) => drift_cmd(x, format),
    }
}

fn read_scenario(path: &str) -> Result<memsim::Scenario> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read scenario '{path}': {e}")))?;
    memsim::Scenario::from_json(&text)
        .map_err(|e| CliError::failure(format!("invalid scenario: {e}")))
}

/// `app:down_at_s[:up_at_s]` outages: `--fault` on simulate, `--outage` on
/// top (errors name the flag the user typed).
fn parse_outages(flag: &str, specs: &[String]) -> Result<Vec<memsim::AppOutage>> {
    let outage = |spec: &String| {
        let parts = parts(flag, spec, "app:down_at_s[:up_at_s]", 2..=3)?;
        Ok(memsim::AppOutage {
            app: field(flag, spec, "app index", parts[0])?,
            down_at_s: field(flag, spec, "down time", parts[1])?,
            up_at_s: match parts.get(2) {
                Some(t) => Some(field(flag, spec, "up time", t)?),
                None => None,
            },
        })
    };
    specs.iter().map(outage).collect()
}

fn simulate_cmd(x: &SimulateArgs, format: OutputFormat) -> Result<String> {
    if x.write_template {
        return Ok(memsim::scenario::template().to_json() + "\n");
    }
    let engine = x.engine;
    let scenario = read_scenario(x.scenario.as_deref().expect("checked by the parser"))?;
    // `--fault` switches simulate into the chaos path: the first
    // assignment runs with the requested outages injected.
    let plan = (!x.faults.is_empty()).then_some(memsim::ChaosPlan {
        outages: parse_outages("--fault", &x.faults)?,
        reclaim: !x.no_reclaim,
    });
    // The simulator gets a hub only when something will read it: an
    // attached hub costs a label format, a shard push and a histogram
    // observe per node per segment.
    let session = if x.export.metrics.is_some() || format == OutputFormat::Prom {
        Some(Session::new(&x.export, Vec::new())?)
    } else {
        None
    };
    let hub = session.as_ref().map(Session::hub);

    let out = match &plan {
        Some(plan) => {
            let chaos = memsim::run_chaos_scenario_on(&scenario, plan, hub, engine)
                .map_err(|e| CliError::failure(format!("chaos simulation failed: {e}")))?;
            match format {
                OutputFormat::Json => engine_doc(chaos.result.to_value(), engine),
                OutputFormat::Prom => String::new(), // `finish` prints the hub instead
                OutputFormat::Text => {
                    let mut out = format!(
                        "chaos scenario: {} ({} segments, reclaim {}, engine {engine})\n",
                        scenario.name,
                        chaos.segments.len(),
                        if plan.reclaim { "on" } else { "off" }
                    );
                    for (start, live) in &chaos.segments {
                        let live_names: Vec<&str> = scenario
                            .apps
                            .iter()
                            .zip(live)
                            .filter(|(_, &l)| l)
                            .map(|(a, _)| a.name())
                            .collect();
                        out.push_str(&format!(
                            "  from {start:.3}s: live = [{}]\n",
                            live_names.join(", ")
                        ));
                    }
                    for (i, app) in scenario.apps.iter().enumerate() {
                        out.push_str(&format!(
                            "  {:<12} {:>10.2} GFLOPS\n",
                            app.name(),
                            chaos.result.app_gflops(i)
                        ));
                    }
                    out.push_str(&format!(
                        "  total        {:>10.2} GFLOPS\n",
                        chaos.result.total_gflops()
                    ));
                    out
                }
            }
        }
        None => {
            let result = memsim::run_scenario_on(&scenario, hub, engine)
                .map_err(|e| CliError::failure(format!("simulation failed: {e}")))?;
            match format {
                OutputFormat::Json => engine_doc(result.to_value(), engine),
                OutputFormat::Prom => String::new(),
                OutputFormat::Text => format!("{result}engine: {engine}\n"),
            }
        }
    };
    match &session {
        Some(session) => session.finish(&x.export, format, |_| Ok(out)),
        None => Ok(out),
    }
}

/// `drift`: run a scenario under model supervision (predict each decision
/// tick with the analytic model, simulate it — optionally on a perturbed
/// machine — and back-fill the residuals) and print the drift report.
fn drift_cmd(x: &DriftArgs, format: OutputFormat) -> Result<String> {
    let scenario = match &x.scenario {
        Some(path) => read_scenario(path)?,
        None => {
            // Template with only the first assignment: one supervised run.
            let mut s = memsim::scenario::template();
            s.assignments.truncate(1);
            s
        }
    };
    let config = memsim::SupervisorConfig {
        decision_period_s: x.decision_period_s,
        duration_s: x.duration_s,
        perturbations: x
            .perturbations
            .iter()
            .map(|p| memsim::Perturbation::NodeBandwidth {
                at_s: p.at_s,
                node: p.node,
                bandwidth_factor: p.factor,
            })
            .collect(),
        drift: coop_telemetry::DriftConfig {
            ewma_alpha: x.ewma_alpha,
            cusum_k: x.cusum_k,
            cusum_h: x.cusum_h,
            ..coop_telemetry::DriftConfig::default()
        },
        reoptimize: x.reoptimize,
        // A requested trace export implies the causal spans that make it
        // assemble like a real runtime's.
        tracing: x.export.trace_out.is_some(),
        chaos: None,
        engine: x.engine,
    };
    let session = Session::new(&x.export, Vec::new())?;
    let result = memsim::run_supervised(&scenario, &config, session.hub())
        .map_err(|e| CliError::failure(format!("supervised run failed: {e}")))?;

    session.finish(&x.export, format, |done| {
        let report = result.report();
        if format == OutputFormat::Json {
            let doc = reparse("drift report", &report.to_json())?;
            return Ok(engine_doc(doc, x.engine));
        }
        Ok(format!(
            "{}{} decision ticks ({} perturbed), first alarm at tick {}, engine {}\n{}",
            report.to_text(),
            result.ticks.len(),
            result.ticks.iter().filter(|t| t.perturbed).count(),
            result
                .first_alarm_tick()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".to_string()),
            x.engine,
            done.footer
        ))
    })
}

/// `chaos`: live runtimes under a supervised agent. `app0` is wrapped in a
/// chaos handle; at `--kill-at` its kill switch flips and the failure
/// detector walks it to Dead, the agent evicts it and fair-shares its
/// cores among the survivors; at `--revive-at` (if given) a probe finds it
/// healthy again and re-admits it.
///
/// `--runaway app:tick` additionally arms fuel budgets and the wall-clock
/// watchdog on every runtime and, starting at `tick`, injects spinning
/// tasks (plus a fuel-hungry step task) into the chosen app. The watchdog
/// marks the spinners runaway, the agent clamps the offender to its
/// fair-share row, and the ledger books the over-budget CPU against it.
fn chaos_cmd(x: &ChaosArgs, format: OutputFormat) -> Result<String> {
    use coop_agent::{policies, Agent, ChaosHandle, FaultPlan, KillSwitch, SupervisionConfig};
    use coop_runtime::{Runtime, RuntimeConfig};
    use std::time::Duration;

    let (runtimes, kill_at, revive_at, runaway) = (x.runtimes, x.kill_at, x.revive_at, x.runaway);
    let m = resolve_machine(&x.machine)?;
    let mut plan = FaultPlan::new();
    for spec in &x.faults {
        plan = plan
            .parse_rule(spec)
            .map_err(|e| CliError::usage(format!("bad --fault '{spec}': {e}")))?;
    }

    // `--flight-dir`: the agent's supervision machine dumps the recorder on
    // every transition to Suspected or Dead, so the kill below leaves a
    // post-mortem on disk. The ledger books every runtime's delivered work
    // as the agent ticks, and the SLO engine burns app0's error budget
    // while the kill keeps it below its fair share. Short windows so the
    // handful of ticks a CLI run makes is enough to register a spike.
    let session = Session::new(
        &x.export,
        vec![SloSpec::min_share("app0", 0.5 / runtimes as f64).with_windows(vec![2, 8])],
    )?;
    let hub = session.hub();
    let rts: Vec<Arc<Runtime>> = (0..runtimes)
        .map(|i| {
            let name = format!("app{i}");
            let mut cfg = RuntimeConfig::new(&name, m.clone()).with_telemetry(Arc::clone(&hub));
            if runaway.is_some() {
                // Budgets + watchdog armed on *every* tenant: containment
                // must single out the offender by behaviour, not by
                // configuration. A short deadline keeps detection inside
                // one agent tick.
                cfg = cfg
                    .with_task_fuel(64)
                    .with_watchdog(Duration::from_millis((x.tick_interval_ms / 2).clamp(1, 20)));
            }
            Runtime::start(cfg)
                .map(Arc::new)
                .map_err(|e| CliError::failure(format!("cannot start runtime '{name}': {e}")))
        })
        .collect::<Result<_>>()?;

    let kill = KillSwitch::new();
    let mut agent = Agent::with_telemetry(
        Box::new(policies::FairShare::new(m.clone())),
        Arc::clone(&hub),
    );
    agent.set_supervision(SupervisionConfig::aggressive(Duration::from_millis(
        x.deadline_ms,
    )));
    agent.set_reclaim_machine(m.clone());
    for (i, rt) in rts.iter().enumerate() {
        if i == 0 {
            agent.manage(Box::new(
                ChaosHandle::new(Box::new(Arc::clone(rt)), plan.clone())
                    .with_kill_switch(kill.clone()),
            ));
        } else {
            agent.manage(Box::new(Arc::clone(rt)));
        }
    }

    let health_line = |health: &[(String, coop_agent::Health)], evicted: &[String]| {
        format!(
            "{}{}",
            health
                .iter()
                .map(|(n, h)| format!("{n}={}", h.name()))
                .collect::<Vec<_>>()
                .join(" "),
            if evicted.is_empty() {
                String::new()
            } else {
                format!("  evicted: [{}]", evicted.join(", "))
            }
        )
    };
    let mut lines = Vec::new();
    let mut tick_records = Vec::new();
    // `--runaway`: spinners hold their workers until this flag flips, so
    // the watchdog sees a genuine wedge but shutdown still drains clean.
    let spin_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut spins_left: u32 = if runaway.is_some() { 3 } else { 0 };
    for tick in 0..x.ticks {
        if tick == kill_at {
            kill.kill();
            lines.push(format!("tick {tick:>3}: >>> killed app0"));
        }
        if revive_at == Some(tick) {
            kill.revive();
            lines.push(format!("tick {tick:>3}: >>> revived app0"));
        }
        if let Some((app, at)) = runaway {
            if tick >= at && spins_left > 0 {
                spins_left -= 1;
                // One fresh spinner per tick keeps the runaway counter
                // climbing, which is what the agent's sustained-runaway
                // detector keys on before it contains the offender.
                let stop = Arc::clone(&spin_stop);
                rts[app]
                    .task(&format!("runaway-spin-{tick}"))
                    .body(move |_ctx| {
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    })
                    .spawn()
                    .map_err(|e| CliError::failure(format!("cannot inject runaway: {e}")))?;
                if tick == at {
                    // A fuel hog rides along: it yields far past its
                    // 8-unit budget, so the preemption counter moves too.
                    let mut steps = 0u32;
                    rts[app]
                        .task("runaway-hog")
                        .fuel(8)
                        .body_step(move |_ctx| {
                            steps += 1;
                            if steps < 256 {
                                coop_runtime::TaskStep::Yield
                            } else {
                                coop_runtime::TaskStep::Done
                            }
                        })
                        .spawn()
                        .map_err(|e| CliError::failure(format!("cannot inject fuel hog: {e}")))?;
                    lines.push(format!(
                        "tick {tick:>3}: >>> runaway injected into app{app}"
                    ));
                }
            }
        }
        agent
            .tick()
            .map_err(|e| CliError::failure(format!("agent tick {tick} failed: {e}")))?;
        let health = agent.health();
        let evicted = agent.evicted();
        lines.push(format!(
            "tick {tick:>3}: {}",
            health_line(&health, &evicted)
        ));
        tick_records.push(json_object! {
            "tick": tick,
            "health": health_doc(&health),
            "evicted": evicted,
        });
        std::thread::sleep(Duration::from_millis(x.tick_interval_ms));
    }

    let final_health = agent.health();
    let final_evicted = agent.evicted();
    spin_stop.store(true, std::sync::atomic::Ordering::Release);
    if let Some((app, _)) = runaway {
        // Let the spinners observe the stop flag and *return*: the
        // over-budget CPU of a runaway slice is only booked once the
        // wedged task hands its worker back.
        let _ = rts[app].wait_quiescent();
    }
    let final_stats: Vec<coop_runtime::RuntimeStats> = rts.iter().map(|rt| rt.stats()).collect();
    for rt in &rts {
        rt.shutdown();
    }
    let containments = hub
        .registry()
        .counter_total("coop_agent_containments_total");

    session.finish(&x.export, format, |done| {
        let (ledger, slo_engine) = session.tenants();
        if format == OutputFormat::Json {
            let doc = json_object! {
                "machine": m.name(),
                "runtimes": runtimes,
                "kill_at": kill_at,
                "revive_at": revive_at,
                "ticks": tick_records,
                "final_health": health_doc(&final_health),
                "final_evicted": final_evicted,
                "flight_dumps": done.flight_dumps,
                "tenants": reparse("ledger", &ledger.to_json())?,
                "slo": reparse("SLO", &slo_engine.to_json())?,
                "runaway": runaway.map(|(app, at)| json_object! {
                    "app": app,
                    "at": at,
                    "containments": containments,
                    "per_runtime": final_stats.iter().enumerate().map(|(i, s)| {
                        json_object! {
                            "runtime": format!("app{i}"),
                            "tasks_preempted": s.tasks_preempted,
                            "tasks_runaway": s.tasks_runaway,
                            "overbudget_cpu_us": s.overbudget_cpu_us,
                        }
                    }).collect::<Vec<_>>(),
                }),
            };
            return Ok(json_doc(&doc));
        }
        let mut out = format!(
            "chaos: {runtimes} runtimes on {}, kill app0 at tick {kill_at}{}\n",
            m.name(),
            revive_at
                .map(|r| format!(", revive at tick {r}"))
                .unwrap_or_default()
        );
        for l in &lines {
            out.push_str(l);
            out.push('\n');
        }
        out.push_str(&format!(
            "final: {}\n{}",
            health_line(&final_health, &final_evicted),
            done.footer
        ));
        out.push_str(&session.tenants_line());
        if let Some((app, at)) = runaway {
            out.push_str(&format!(
                "runaway: injected into app{app} at tick {at}; {containments} containment(s)\n",
            ));
            for (i, s) in final_stats.iter().enumerate() {
                out.push_str(&format!(
                    "  app{i}: {} preempted, {} runaway, {}us over budget\n",
                    s.tasks_preempted, s.tasks_runaway, s.overbudget_cpu_us
                ));
            }
        }
        if let Some(p) = &x.export.slo_report {
            out.push_str(&format!("slo report written to {p}\n"));
        }
        Ok(out)
    })
}

/// `observe`: the Figure-1 setup end to end on one telemetry hub — two
/// runtimes driving the producer-consumer pipeline, the agent throttling
/// the producer, and a memsim reallocation run — then export the merged
/// trace and metrics.
fn observe_cmd(x: &ObserveArgs, format: OutputFormat) -> Result<String> {
    use coop_agent::{policies, Agent};
    use coop_runtime::{Runtime, RuntimeConfig};
    use coop_workloads::pipeline::{run_pipeline, PipelineConfig};
    use std::time::Duration;

    let m = resolve_machine(&x.machine)?;
    // `--dump`: flight recorder on the hub from the start, snapshotted at
    // the end of the run. The agent books producer and consumer into the
    // ledger each tick and the SLO engine tracks a (deliberately loose)
    // minimum-share objective for each, so the `/tenants` and `/slo`
    // routes serve real data under `--serve`.
    let session = Session::new(
        &x.export,
        ["producer", "consumer"]
            .map(|t| SloSpec::min_share(t, 0.05).with_windows(vec![4, 16]))
            .into(),
    )?;
    let hub = session.hub();
    let start_rt = |name: &str| -> Result<Arc<Runtime>> {
        Runtime::start(
            RuntimeConfig::new(name, m.clone())
                .with_telemetry(Arc::clone(&hub))
                .with_task_tracing(),
        )
        .map(Arc::new)
        .map_err(|e| CliError::failure(format!("cannot start runtime '{name}': {e}")))
    };
    let producer = start_rt("producer")?;
    let consumer = start_rt("consumer")?;

    // Fair share first (every runtime gets a per-node allocation on tick
    // 0), then the paper's producer-consumer throttle.
    let policy = policies::Chain::new(vec![
        Box::new(policies::FairShare::new(m.clone())),
        Box::new(policies::ProducerConsumerThrottle::new(
            0,
            1,
            1,
            3,
            1,
            m.total_cores(),
        )),
    ]);
    let mut agent = Agent::with_telemetry(Box::new(policy), Arc::clone(&hub));
    agent.manage(Box::new(Arc::clone(&producer)));
    agent.manage(Box::new(Arc::clone(&consumer)));
    let agent_thread = agent
        .spawn(Duration::from_millis(2))
        .map_err(|e| CliError::failure(format!("cannot start agent: {e}")))?;

    let config = PipelineConfig {
        iterations: x.iterations,
        ..PipelineConfig::default()
    };
    let report = run_pipeline(&producer, &consumer, &config);
    let log = agent_thread.stop();
    producer.shutdown();
    consumer.shutdown();

    // A dynamic-reallocation memsim run on the same hub: all cores to one
    // app, then all to the other — bandwidth counter tracks plus one
    // assignment-switch instant on the shared clock.
    let sim = memsim::Simulation::new(
        memsim::SimConfig::new(m.clone()).with_effects(memsim::EffectModel::ideal()),
    )
    .with_telemetry(Arc::clone(&hub))
    .with_tracing();
    let sim_apps = vec![
        memsim::SimApp::numa_local("producer", 0.5),
        memsim::SimApp::numa_local("consumer", 0.5),
    ];
    let full: Vec<usize> = m.nodes().map(|n| n.num_cores()).collect();
    let zero = vec![0usize; m.num_nodes()];
    let all_producer =
        roofline_numa::ThreadAssignment::from_matrix(vec![full.clone(), zero.clone()]);
    let all_consumer = roofline_numa::ThreadAssignment::from_matrix(vec![zero, full]);
    let sim_result = sim
        .run_dynamic(
            &sim_apps,
            &[(0.0, all_producer), (0.025, all_consumer)],
            0.05,
        )
        .map_err(|e| CliError::failure(format!("memsim run failed: {e}")))?;

    // A model-guided allocation search on the same hub: the score cache is
    // attached to the registry first, so its hit/miss/insert counters land
    // in the merged Prometheus exposition alongside the pipeline metrics.
    let search_specs = vec![
        roofline_numa::AppSpec::numa_local("producer", 0.5),
        roofline_numa::AppSpec::numa_local("consumer", 0.5),
    ];
    let objective = Objective::TotalGflops;
    let search_counters = {
        let oracle = search::ModelOracle::new(&m, &search_specs, &objective)
            .map_err(|e| CliError::failure(format!("search setup failed: {e}")))?
            .with_min_threads(1);
        let cache = Arc::new(coop_alloc::ScoreCache::new(oracle.fingerprint()));
        cache.attach_metrics(hub.registry(), "observe");
        let mut oracle = oracle
            .with_cache(Arc::clone(&cache))
            .expect("a freshly keyed cache always matches its oracle");
        let result = search::GreedySearch::new()
            .run_model(&m, &mut oracle)
            .map_err(|e| CliError::failure(format!("allocation search failed: {e}")))?;
        publish_solve_counters(hub.registry(), "greedy", &result.counters);
        result.counters
    };

    session.finish(&x.export, format, |done| {
        if format == OutputFormat::Json {
            let out = json_object! {
                "pipeline": json_object! {
                    "produced": report.produced,
                    "consumed": report.consumed,
                    "throughput_items_per_s": report.throughput,
                    "max_lead": report.max_lead,
                },
                "agent": json_object! {
                    "ticks": log.ticks,
                    "decisions": log.decisions.len(),
                },
                "memsim": json_object! {
                    "node_utilization": sim_result.node_utilization,
                },
                "search": json_object! {
                    "full_solves": search_counters.full_solves,
                    "delta_solves": search_counters.delta_solves,
                    "cache_hits": search_counters.cache_hits,
                },
                "flight_dump": done.dump_path.as_ref().map(|p| p.display().to_string()),
                "served": done.served,
                "tenants": reparse("ledger", &session.tenants().0.to_json())?,
                "telemetry": reparse("summary", &hub.summary_json())?,
            };
            return Ok(json_doc(&out));
        }

        let mut out = format!(
            "pipeline: {} produced, {} consumed, {:.1} items/s (max lead {})\n",
            report.produced, report.consumed, report.throughput, report.max_lead
        );
        out.push_str(&format!(
            "agent: {} ticks, {} decisions\n",
            log.ticks,
            log.decisions.len()
        ));
        for (n, u) in sim_result.node_utilization.iter().enumerate() {
            out.push_str(&format!(
                "memsim node {n}: {:.0}% bandwidth utilization\n",
                u * 100.0
            ));
        }
        out.push_str(&format!(
            "search: {} full / {} delta solves, {} cache hits (counters in metrics output)\n",
            search_counters.full_solves, search_counters.delta_solves, search_counters.cache_hits
        ));
        out.push_str(&format!(
            "telemetry: {} timeline events ({} dropped)\n",
            hub.event_count(),
            hub.dropped()
        ));
        out.push_str(&session.tenants_line());
        if x.export.trace_out.is_none() && x.export.metrics.is_none() {
            out.push_str(
                "hint: use --trace-out <path> for a Perfetto/Chrome trace and\n\
                 --metrics <path> for Prometheus or JSON metrics\n",
            );
        }
        Ok(out + &done.footer)
    })
}

/// `top`: per-tenant accounting at a glance. Runs a short supervised
/// two-tenant memsim workload — optionally with `--outage` chaos edges
/// and fair-share reclamation — booking every decision tick into the
/// tenant ledger and burning each tenant's error budget in the SLO
/// engine, then prints the ledger. `--format json` emits exactly the
/// `/tenants` document; `--serve` exposes the hub over HTTP afterwards
/// so the same bytes can be fetched from the endpoint.
fn top_cmd(x: &TopArgs, format: OutputFormat) -> Result<String> {
    let m = resolve_machine(&x.machine)?;
    // Two identical memory-bound tenants fair-sharing the machine (one
    // thread per node each): deterministic, and an outage frees exactly
    // half the machine for the survivor to absorb.
    let num_nodes = m.num_nodes();
    let scenario = memsim::Scenario {
        name: "top".into(),
        machine: m.clone(),
        apps: vec![
            memsim::SimApp::numa_local("a", 1.0 / 32.0),
            memsim::SimApp::numa_local("b", 1.0 / 32.0),
        ],
        assignments: vec![memsim::NamedAssignment {
            name: "even".into(),
            threads: vec![vec![1; num_nodes]; 2],
        }],
        duration_s: x.duration_s,
        effects: memsim::EffectModel::ideal(),
        seed: 7,
    };
    let chaos = (!x.outages.is_empty()).then_some(memsim::ChaosPlan {
        outages: parse_outages("--outage", &x.outages)?,
        reclaim: true,
    });
    let config = memsim::SupervisorConfig {
        decision_period_s: x.decision_period_s,
        duration_s: x.duration_s,
        chaos,
        ..memsim::SupervisorConfig::default()
    };

    // Each tenant is entitled to half the machine; a minimum-share floor
    // at half of that catches outages without tripping on jitter. Short
    // windows match the handful of decision ticks a CLI run makes.
    let slos = scenario
        .apps
        .iter()
        .map(|a| SloSpec::min_share(a.name(), 0.25).with_windows(vec![2, 6]))
        .collect();
    let session = Session::new(&x.export, slos)?;
    memsim::run_supervised(&scenario, &config, session.hub())
        .map_err(|e| CliError::failure(format!("supervised run failed: {e}")))?;

    session.finish(&x.export, format, |done| {
        let (ledger, slo_engine) = session.tenants();
        Ok(match format {
            // Byte-for-byte the `/tenants` document, so scripts can use the
            // CLI and the HTTP endpoint interchangeably.
            OutputFormat::Json => ledger.to_json(),
            _ => ledger.to_text() + &slo_engine.to_text() + &done.footer,
        })
    })
}

/// `trace`: reconstruct the causal span chain for a task — either from a
/// flight-recorder dump (`--from`) or from a fresh traced dependency-chain
/// run — and print each matching task's hop timeline, per-hop wall time,
/// cross-node attribution, and critical path.
fn trace_cmd(x: &TraceArgs, format: OutputFormat) -> Result<String> {
    use coop_telemetry::TraceAssembler;

    let query = x.query.as_str();
    let asm = match &x.from {
        Some(path) => {
            let bytes = std::fs::read(path)
                .map_err(|e| CliError::usage(format!("cannot read dump '{path}': {e}")))?;
            let events = coop_telemetry::FlightRecorder::decode(&bytes)
                .map_err(|e| CliError::failure(format!("invalid flight dump '{path}': {e}")))?;
            TraceAssembler::from_events(&events)
        }
        None => {
            // Live mode: a dependent task chain on a traced runtime. Each
            // stage gates its successor through a once-event and stages
            // round-robin across nodes, so released/enqueued/stolen hops
            // and cross-node attribution all show up in the assembly.
            use coop_runtime::{Runtime, RuntimeConfig};
            let m = resolve_machine(&x.machine)?;
            let nodes = m.num_nodes();
            let hub = Arc::new(coop_telemetry::TelemetryHub::new());
            let rt = Runtime::start(
                RuntimeConfig::new("traced", m)
                    .with_telemetry(Arc::clone(&hub))
                    .with_task_tracing(),
            )
            .map_err(|e| CliError::failure(format!("cannot start runtime: {e}")))?;
            let n = x.iterations.max(1);
            let chain: Vec<_> = (0..n).map(|_| rt.new_once_event()).collect();
            {
                let chain = chain.clone();
                rt.task("root")
                    .body(move |ctx| {
                        for (i, ev) in chain.iter().enumerate() {
                            let mine = ev.clone();
                            let b = ctx
                                .task(&format!("stage{i}"))
                                .affinity(NodeId(i % nodes))
                                .body(move |c| c.satisfy(&mine));
                            let b = if i > 0 {
                                b.depends_on(&chain[i - 1])
                            } else {
                                b
                            };
                            b.spawn().expect("spawn traced stage");
                        }
                    })
                    .spawn()
                    .map_err(|e| CliError::failure(format!("cannot spawn chain: {e}")))?;
            }
            rt.wait_quiescent()
                .map_err(|e| CliError::failure(format!("traced run failed: {e}")))?;
            let asm = TraceAssembler::from_hub(&hub);
            rt.shutdown();
            asm
        }
    };

    let matches = asm.find(query);
    if matches.is_empty() {
        return Err(CliError::failure(format!(
            "no traced task matches '{query}' ({} task(s) assembled)",
            asm.len()
        )));
    }

    if format == OutputFormat::Json {
        let docs: Vec<Value> = matches
            .iter()
            .map(|t| {
                json_object! {
                    "task": t.task,
                    "trace_id": t.trace_id,
                    "name": t.name,
                    "parent": t.parent,
                    "truncated": t.truncated,
                    "completed": t.completed(),
                    "total_wall_us": t.total_wall_us(),
                    "cross_node": t
                        .cross_node()
                        .map(|(f, to)| json_object! {"from": f, "to": to}),
                    "critical_path": asm
                        .critical_path(t)
                        .iter()
                        .map(|p| json_object! {"task": p.task, "name": p.name})
                        .collect::<Vec<_>>(),
                    "hops": t
                        .hops
                        .iter()
                        .map(|h| json_object! {
                            "kind": h.kind,
                            "ts_us": h.ts_us,
                            "wall_us": h.wall_us,
                            "node": h.node,
                            "from_node": h.from_node,
                            "tier": h.tier,
                            "event": h.event,
                        })
                        .collect::<Vec<_>>(),
                }
            })
            .collect();
        return Ok(json_doc(&docs.to_value()));
    }

    let mut out = format!("{} task(s) match '{query}'\n", matches.len());
    for t in &matches {
        out.push('\n');
        out.push_str(&t.to_text());
        let path = asm.critical_path(t);
        if path.len() > 1 {
            out.push_str(&format!(
                "critical path: {}\n",
                path.iter()
                    .map(|p| p.name.clone().unwrap_or_else(|| format!("task{}", p.task)))
                    .collect::<Vec<_>>()
                    .join(" -> ")
            ));
        }
    }
    Ok(out)
}

fn pareto_cmd(x: &ParetoArgs, format: OutputFormat) -> Result<String> {
    let m = resolve_machine(&x.machine)?;
    let specs = resolve_apps(&m, &x.apps)?;
    let frontier = coop_alloc::pareto_frontier(&m, &specs, 2_000_000)
        .map_err(|e| CliError::failure(format!("pareto enumeration failed: {e}")))?;
    if format == OutputFormat::Json {
        let points: Vec<Value> = frontier
            .iter()
            .map(|p| {
                json_object! {
                    "total_gflops": p.total_gflops,
                    "min_app_gflops": p.min_app_gflops,
                    "assignment": p.assignment.to_matrix(),
                }
            })
            .collect();
        return Ok(json_doc(&points.to_value()));
    }
    let mut out = format!(
        "Pareto frontier (total vs min-app GFLOPS), {} points:\n{:>12} {:>12}  per-node counts per app\n",
        frontier.len(),
        "total",
        "min-app"
    );
    for p in &frontier {
        let counts: Vec<usize> = (0..specs.len())
            .map(|i| p.assignment.get(i, NodeId(0)))
            .collect();
        out.push_str(&format!(
            "{:>12.2} {:>12.2}  {:?}\n",
            p.total_gflops, p.min_app_gflops, counts
        ));
    }
    Ok(out)
}

fn machines_text() -> String {
    let mut out = String::new();
    for (name, preset) in PRESETS {
        let m = preset();
        out.push_str(&format!(
            "{name:<16} {} nodes x {} cores, {:.2} GFLOPS/core, {:.0} GB/s/node\n",
            m.num_nodes(),
            m.node(NodeId(0)).num_cores(),
            m.core_peak_gflops(),
            m.node(NodeId(0)).bandwidth_gbs,
        ));
    }
    out.push_str("host             (detected from /sys/devices/system/node)\n");
    out
}

fn detect(format: OutputFormat) -> Result<String> {
    let m = numa_topology::host::detect_host();
    if format == OutputFormat::Json {
        return Ok(m.to_json() + "\n");
    }
    let mut out = format!(
        "host machine: {} NUMA node(s), {} cores total\n",
        m.num_nodes(),
        m.total_cores()
    );
    for node in m.nodes() {
        out.push_str(&format!(
            "  {:?}: cores {:?}, {:.1} GiB memory\n",
            node.id,
            node.cpuset(),
            node.memory_gib
        ));
    }
    out.push_str(
        "note: GFLOPS/bandwidth are defaults — calibrate with measurements\n\
         (see the host_calibration example and memsim::calibrate_even_scenario).\n",
    );
    Ok(out)
}

fn solve_cmd(x: &SolveArgs, format: OutputFormat) -> Result<String> {
    let m = resolve_machine(&x.machine)?;
    let specs = resolve_apps(&m, &x.apps)?;
    let assignment = ThreadAssignment::uniform_per_node(&m, &x.counts);
    let report = solve(&m, &specs, &assignment)
        .map_err(|e| CliError::failure(format!("solve failed: {e}")))?;
    if format == OutputFormat::Json {
        return Ok(json_doc(&report.to_value()));
    }
    let mut out = format!(
        "machine {} | total {:.2} GFLOPS, {:.2} GB/s\n",
        m.name(),
        report.total_gflops(),
        report.total_bandwidth_gbs()
    );
    out.push_str(&format!(
        "{:<12} {:>8} {:>12} {:>12}\n",
        "app", "threads", "GB/s", "GFLOPS"
    ));
    for a in &report.apps {
        out.push_str(&format!(
            "{:<12} {:>8} {:>12.2} {:>12.2}\n",
            a.name, a.threads, a.bandwidth_gbs, a.gflops
        ));
    }
    if x.explain {
        out.push('\n');
        out.push_str(&roofline_numa::explain::explain(&m, &report).to_string());
    }
    Ok(out)
}

/// The search's full/delta solve counts as `coop_search_*_solves_total{method}`.
fn publish_solve_counters(
    reg: &coop_telemetry::MetricsRegistry,
    method: &str,
    counters: &search::SearchCounters,
) {
    reg.set_help(
        "coop_search_full_solves_total",
        "Full model solves performed by the allocation search",
    );
    reg.set_help(
        "coop_search_delta_solves_total",
        "Incremental (delta) model solves performed by the allocation search",
    );
    let labels = &[("method", method)];
    reg.counter("coop_search_full_solves_total", labels)
        .add(counters.full_solves);
    reg.counter("coop_search_delta_solves_total", labels)
        .add(counters.delta_solves);
}

/// The most worker threads (and, for the stochastic methods, seeds) one
/// `search` may start: each is an OS thread.
const MAX_SEARCH_THREADS: usize = 256;

fn search_cmd(x: &SearchArgs, format: OutputFormat) -> Result<String> {
    let (seed, threads) = (x.seed, x.threads);
    if threads > MAX_SEARCH_THREADS {
        return Err(CliError::failure(format!(
            "--threads {threads} is more than the {MAX_SEARCH_THREADS} worker threads a search may start"
        )));
    }
    let m = resolve_machine(&x.machine)?;
    let specs = resolve_apps(&m, &x.apps)?;
    let objective = Objective::TotalGflops;
    let min_threads = usize::from(x.keep_alive);
    let fail = |e: coop_alloc::AllocError| CliError::failure(format!("search failed: {e}"));

    let oracle = search::ModelOracle::new(&m, &specs, &objective)
        .map_err(fail)?
        .with_min_threads(min_threads);
    let cache = Arc::new(coop_alloc::ScoreCache::new(oracle.fingerprint()));
    let mut oracle = oracle
        .with_cache(Arc::clone(&cache))
        .expect("a freshly keyed cache always matches its oracle");

    // `--threads N` races N derived seeds for the stochastic methods; the
    // merge is deterministic (best score, earliest seed on ties).
    let portfolio = search::Portfolio::new()
        .with_seeds((0..threads as u64).map(|i| seed.wrapping_add(i)).collect())
        .with_threads(threads)
        .with_min_threads(min_threads);

    let result = match x.method {
        SearchMethod::Greedy => search::GreedySearch::new().run_model(&m, &mut oracle),
        // One oracle per worker, each sharing the cache.
        SearchMethod::Exhaustive => search::ExhaustiveSearch::new()
            .with_threads(threads)
            .truncating()
            .run_with(&m, specs.len(), || {
                search::ModelOracle::new(&m, &specs, &objective)?
                    .with_min_threads(min_threads)
                    .with_cache(Arc::clone(&cache))
            }),
        SearchMethod::Hill => search::HillClimb::new().with_seed(seed).run_portfolio(
            &m,
            &specs,
            &objective,
            &portfolio,
            Some(&cache),
        ),
        SearchMethod::Anneal => search::SimulatedAnnealing::new()
            .with_seed(seed)
            .run_portfolio(&m, &specs, &objective, &portfolio, Some(&cache)),
    }
    .map_err(fail)?;

    let report = solve(&m, &specs, &result.assignment)
        .map_err(|e| CliError::failure(format!("re-solve failed: {e}")))?;
    if let Some(path) = &x.metrics {
        let method = x.method.as_str();
        let hub = coop_telemetry::TelemetryHub::new();
        let reg = hub.registry();
        reg.set_help(
            "coop_search_evaluations_total",
            "Model evaluations performed by the allocation search",
        );
        reg.set_help("coop_search_best_gflops", "Best machine-wide GFLOPS found");
        let labels = &[("method", method)];
        reg.counter("coop_search_evaluations_total", labels)
            .add(result.evaluations as u64);
        reg.gauge("coop_search_best_gflops", labels)
            .set(report.total_gflops());
        publish_solve_counters(reg, method, &result.counters);
        // Replays the cache's hit/miss/insert history onto the registry as
        // coop_score_cache_*_total{context=...} counters.
        cache.attach_metrics(reg, method);
        write_metrics_file(path, &hub)?;
    }
    if format == OutputFormat::Json {
        return Ok(json_doc(&json_object! {
            "score_gflops": report.total_gflops(),
            "evaluations": result.evaluations,
            "full_solves": result.counters.full_solves,
            "delta_solves": result.counters.delta_solves,
            "cache_hits": result.counters.cache_hits,
            "truncated": result.truncated,
            "assignment": result.assignment.to_matrix(),
            "report": report,
        }));
    }

    let mut out = format!(
        "best allocation: {:.2} GFLOPS ({} model evaluations; {} full / {} delta solves, {} cache hits)\n",
        report.total_gflops(),
        result.evaluations,
        result.counters.full_solves,
        result.counters.delta_solves,
        result.counters.cache_hits,
    );
    if result.truncated {
        out.push_str(
            "note: candidate space exceeded the scan limit; the result covers a prefix of the space\n",
        );
    }
    out.push_str(&format!("{:<12} {:>8}  threads per node\n", "app", "total"));
    for (i, spec) in specs.iter().enumerate() {
        let per: Vec<usize> = m.node_ids().map(|n| result.assignment.get(i, n)).collect();
        out.push_str(&format!(
            "{:<12} {:>8}  {:?}\n",
            spec.name,
            result.assignment.app_total(i),
            per
        ));
    }
    Ok(out)
}

fn sweep_cmd(x: &SweepArgs, format: OutputFormat) -> Result<String> {
    let (m, app) = (resolve_machine(&x.machine)?, &x.app);
    let specs = resolve_apps(&m, std::slice::from_ref(app))?;
    let curve = sweep::thread_sweep(&m, &specs, 0, &[0])
        .map_err(|e| CliError::failure(format!("sweep failed: {e}")))?;
    if format == OutputFormat::Json {
        return Ok(json_doc(&curve.to_value()));
    }
    let mut out = format!(
        "thread-scaling curve for '{}' (AI={}) on {}\n{:>16} {:>12} {:>12}\n",
        app.name,
        app.ai,
        m.name(),
        "threads/node",
        "GFLOPS",
        "marginal"
    );
    for (i, p) in curve.iter().enumerate() {
        let marginal = if i == 0 {
            0.0
        } else {
            p.app_gflops - curve[i - 1].app_gflops
        };
        out.push_str(&format!(
            "{:>16} {:>12.2} {:>12.2}\n",
            p.x as usize, p.app_gflops, marginal
        ));
    }
    Ok(out)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_args;

    fn run_str(s: &str) -> Result<String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        crate::run(&argv)
    }

    #[test]
    fn help_and_machines() {
        assert!(run_str("help").unwrap().contains("USAGE"));
        let m = run_str("machines").unwrap();
        assert!(m.contains("paper-model"));
        assert!(m.contains("paper-skylake"));
    }

    #[test]
    fn solve_reproduces_table_2() {
        let out = run_str(
            "solve --machine paper-model --app mem1:local:0.5 --app mem2:local:0.5 \
             --app mem3:local:0.5 --app comp:local:10 --counts 2,2,2,2",
        )
        .unwrap();
        assert!(out.contains("140.00 GFLOPS"), "output:\n{out}");
    }

    #[test]
    fn solve_json_is_valid_json() {
        let out = run_str("solve --machine tiny --app a:local:1 --counts 1 --json").unwrap();
        let v = json::parse(&out).unwrap();
        assert!(v.get("apps").is_some());
    }

    #[test]
    fn search_greedy_finds_compute_optimum() {
        let out = run_str("search --machine paper-model --app mem:local:0.5 --app comp:local:10")
            .unwrap();
        assert!(out.contains("320.00 GFLOPS"), "output:\n{out}");
    }

    #[test]
    fn search_keep_alive_keeps_everyone() {
        let out = run_str(
            "search --machine paper-model --app mem:local:0.5 --app comp:local:10 --keep-alive --json",
        )
        .unwrap();
        let v = json::parse(&out).unwrap();
        let assignment = v["assignment"].as_array().unwrap();
        for row in assignment {
            let total: u64 = row
                .as_array()
                .unwrap()
                .iter()
                .map(|x| x.as_u64().unwrap())
                .sum();
            assert!(total >= 1, "keep-alive must give every app a thread");
        }
    }

    #[test]
    fn sweep_prints_curve() {
        let out = run_str("sweep --machine paper-model --app mem:local:0.5").unwrap();
        assert!(out.contains("threads/node"));
        // 0..=8 rows plus header lines.
        assert!(out.lines().count() >= 10);
    }

    #[test]
    fn show_round_trips_machine_json() {
        let out = run_str("show --machine paper-skylake").unwrap();
        let m = Machine::from_json(&out).unwrap();
        assert_eq!(m.total_cores(), 80);
    }

    #[test]
    fn machine_from_json_file() {
        let dir = std::env::temp_dir().join(format!("coop-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("machine.json");
        std::fs::write(&path, presets::tiny().to_json()).unwrap();
        let m = resolve_machine(path.to_str().unwrap()).unwrap();
        assert_eq!(m.total_cores(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detect_runs() {
        let out = run_str("detect").unwrap();
        assert!(out.contains("host machine"));
    }

    #[test]
    fn errors_are_usage_errors() {
        let err =
            run_str("solve --machine nope-not-a-machine --app a:local:1 --counts 1").unwrap_err();
        assert_eq!(err.code, 2);
        let err = run_str("solve --machine tiny --app a:node9:1 --counts 1").unwrap_err();
        assert_eq!(err.code, 2, "placement beyond machine nodes: {err}");
    }

    #[test]
    fn chaos_kill_revive_round_trips() {
        let out =
            run_str("chaos --ticks 8 --kill-at 1 --revive-at 5 --tick-interval 1 --deadline 25")
                .unwrap();
        assert!(out.contains("killed app0"), "{out}");
        assert!(out.contains("evicted: [app0]"), "{out}");
        assert!(out.contains("revived app0"), "{out}");
        let final_line = out.lines().find(|l| l.starts_with("final:")).unwrap();
        assert!(final_line.contains("app0=healthy"), "{out}");
        assert!(!final_line.contains("evicted"), "{out}");
    }

    #[test]
    fn simulate_fault_flag_runs_the_chaos_path() {
        let dir = std::env::temp_dir().join(format!("coop-cli-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        std::fs::write(&path, memsim::scenario::template().to_json()).unwrap();
        let out = run_str(&format!(
            "simulate --scenario {} --fault 3:0.02",
            path.to_str().unwrap()
        ))
        .unwrap();
        assert!(out.contains("chaos scenario"), "{out}");
        assert!(out.contains("live = ["), "{out}");
        assert!(out.contains("total"), "{out}");
        // Bad specs are usage errors.
        let err = run_str(&format!(
            "simulate --scenario {} --fault nope",
            path.to_str().unwrap()
        ))
        .unwrap_err();
        assert_eq!(err.code, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_and_execute_agree_on_flags() {
        // --json anywhere applies to the command.
        let cli = parse_args(
            &"--json solve --machine tiny --app a:local:1 --counts 1"
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(cli.format, OutputFormat::Json);
        let out = execute(&cli).unwrap();
        assert!(json::parse(&out).is_ok());
    }
}

#[cfg(test)]
mod explain_tests {
    #[test]
    fn solve_explain_appends_analysis() {
        let argv: Vec<String> =
            "solve --machine paper-model --app mem:local:0.5 --app comp:local:10 --counts 1,5 --explain"
                .split_whitespace()
                .map(String::from)
                .collect();
        let out = crate::run(&argv).unwrap();
        assert!(out.contains("-- groups --"), "output:\n{out}");
        assert!(out.contains("ComputeBound"), "output:\n{out}");
    }
}

#[cfg(test)]
mod pareto_tests {
    #[test]
    fn pareto_lists_both_extremes() {
        let argv: Vec<String> =
            "pareto --machine paper-model --app mem:local:0.5 --app comp:local:10"
                .split_whitespace()
                .map(String::from)
                .collect();
        let out = crate::run(&argv).unwrap();
        assert!(out.contains("320.00"), "max-total end present:\n{out}");
        assert!(out.contains("Pareto frontier"));
    }

    #[test]
    fn pareto_json_is_sorted() {
        let argv: Vec<String> = "pareto --machine tiny --app a:local:0.5 --app b:local:4 --json"
            .split_whitespace()
            .map(String::from)
            .collect();
        let out = crate::run(&argv).unwrap();
        let v = coop_telemetry::json::parse(&out).unwrap();
        let totals: Vec<f64> = v
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p["total_gflops"].as_f64().unwrap())
            .collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]));
    }
}

#[cfg(test)]
mod observe_tests {
    #[test]
    fn observe_writes_merged_trace_and_prometheus_metrics() {
        let dir = std::env::temp_dir().join(format!("coop-cli-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let prom = dir.join("metrics.prom");

        let out = crate::run(&[
            "observe".into(),
            "--machine".into(),
            "tiny".into(),
            "--iterations".into(),
            "4".into(),
            "--trace-out".into(),
            trace.to_str().unwrap().into(),
            "--metrics".into(),
            prom.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(out.contains("4 produced, 4 consumed"), "output:\n{out}");
        assert!(out.contains("decisions"));

        // The trace merges all three sources: runtime tasks, agent
        // decisions, memsim bandwidth counters.
        let v = coop_telemetry::json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert!(events.iter().any(|e| e["cat"] == "task"));
        assert!(events.iter().any(|e| e["cat"] == "agent"));
        assert!(events.iter().any(|e| e["cat"] == "bandwidth"));

        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(
            text.contains("coop_task_latency_us_bucket{"),
            "metrics:\n{text}"
        );
        assert!(text.contains("memsim_node_utilization"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observe_json_embeds_telemetry_summary() {
        let out = crate::run(&[
            "observe".into(),
            "--iterations".into(),
            "2".into(),
            "--json".into(),
        ])
        .unwrap();
        let v = coop_telemetry::json::parse(&out).unwrap();
        assert_eq!(v["pipeline"]["produced"], 2);
        assert!(
            v["agent"]["decisions"].as_u64().unwrap() >= 2,
            "fair share decides on tick 0"
        );
        assert!(v["telemetry"]["events"].as_u64().unwrap() > 0);
    }

    #[test]
    fn search_metrics_file_is_written() {
        let dir = std::env::temp_dir().join(format!("coop-cli-sm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("search.json");
        crate::run(&[
            "search".into(),
            "--machine".into(),
            "tiny".into(),
            "--app".into(),
            "a:local:1".into(),
            "--metrics".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap();
        let v = coop_telemetry::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let names: Vec<&str> = v["metrics"]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m["name"].as_str().unwrap())
            .collect();
        assert!(names.contains(&"coop_search_evaluations_total"));
        assert!(names.contains(&"coop_search_best_gflops"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod drift_tests {
    #[test]
    fn drift_with_perturbation_reports_alarms() {
        let out = crate::run(&[
            "drift".into(),
            "--perturb".into(),
            "0:0.2:0.1".into(),
            "--duration".into(),
            "0.2".into(),
        ])
        .unwrap();
        assert!(out.contains("model-drift report"), "output:\n{out}");
        assert!(!out.contains("first alarm at tick -"), "output:\n{out}");
        assert!(out.contains("node/0/bandwidth_gbs"), "output:\n{out}");
    }

    #[test]
    fn drift_without_perturbation_is_quiet() {
        let out = crate::run(&["drift".into()]).unwrap();
        assert!(out.contains("0 alarms"), "output:\n{out}");
        assert!(out.contains("first alarm at tick -"), "output:\n{out}");
    }

    #[test]
    fn drift_json_and_prom_formats() {
        let json_out = crate::run(&[
            "drift".into(),
            "--perturb".into(),
            "0:0.2:0.05".into(),
            "--duration".into(),
            "0.15".into(),
            "--format".into(),
            "json".into(),
        ])
        .unwrap();
        let v = coop_telemetry::json::parse(&json_out).unwrap();
        assert!(v["total_alarms"].as_u64().unwrap() > 0, "json:\n{json_out}");
        assert!(v["series"]
            .as_array()
            .unwrap()
            .iter()
            .any(|s| s["series"].as_str().unwrap().starts_with("node/")));

        let prom_out = crate::run(&[
            "drift".into(),
            "--perturb".into(),
            "0:0.2:0.05".into(),
            "--duration".into(),
            "0.15".into(),
            "--format".into(),
            "prom".into(),
        ])
        .unwrap();
        assert!(
            prom_out.contains("coop_model_drift_alarms"),
            "prom:\n{prom_out}"
        );
        assert!(prom_out.contains("coop_model_residual"));
    }

    #[test]
    fn drift_writes_trace_and_metrics() {
        let dir = std::env::temp_dir().join(format!("coop-cli-drift-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let prom = dir.join("drift.prom");
        let out = crate::run(&[
            "drift".into(),
            "--perturb".into(),
            "0:0.2:0.05".into(),
            "--duration".into(),
            "0.15".into(),
            "--trace-out".into(),
            trace.to_str().unwrap().into(),
            "--metrics".into(),
            prom.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(out.contains("trace written"));
        let v = coop_telemetry::json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert!(events.iter().any(|e| e["cat"] == "provenance"));
        assert!(events.iter().any(|e| e["cat"] == "drift"));
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("coop_model_residual"), "metrics:\n{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observe_prom_format_prints_exposition() {
        let out = crate::run(&[
            "observe".into(),
            "--iterations".into(),
            "2".into(),
            "--format".into(),
            "prom".into(),
        ])
        .unwrap();
        assert!(out.contains("# TYPE"), "output:\n{out}");
        assert!(out.contains("memsim_node_utilization"));
    }
}

#[cfg(test)]
mod trace_tests {
    #[test]
    fn trace_live_run_prints_causal_chain_and_critical_path() {
        let out = crate::run(&[
            "trace".into(),
            "stage".into(),
            "--iterations".into(),
            "3".into(),
        ])
        .unwrap();
        assert!(out.contains("task(s) match 'stage'"), "output:\n{out}");
        assert!(out.contains("spawned"), "hop timeline present:\n{out}");
        assert!(out.contains("finished"), "hop timeline present:\n{out}");
        assert!(
            out.contains("critical path: root -> stage"),
            "chain links back to the root:\n{out}"
        );
    }

    #[test]
    fn trace_json_lists_hops() {
        let out = crate::run(&[
            "trace".into(),
            "stage0".into(),
            "--iterations".into(),
            "2".into(),
            "--json".into(),
        ])
        .unwrap();
        let v = coop_telemetry::json::parse(&out).unwrap();
        let tasks = v.as_array().unwrap();
        assert!(!tasks.is_empty());
        let hops = tasks[0]["hops"].as_array().unwrap();
        assert!(hops.iter().any(|h| h["kind"] == "spawned"));
        assert!(hops.iter().any(|h| h["kind"] == "finished"));
        assert!(tasks[0]["critical_path"].as_array().unwrap().len() >= 2);
    }

    #[test]
    fn trace_unknown_task_is_an_error() {
        let err = crate::run(&[
            "trace".into(),
            "no-such-task-name".into(),
            "--iterations".into(),
            "1".into(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("no traced task"), "{err}");
    }

    #[test]
    fn observe_dump_then_trace_from_flight_recorder() {
        let dir = std::env::temp_dir().join(format!("coop-cli-dump-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let out = crate::run(&[
            "observe".into(),
            "--iterations".into(),
            "2".into(),
            "--dump".into(),
            dir.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(out.contains("flight recorder dumped to"), "output:\n{out}");

        let dump = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("flight-observe-cli-")
            })
            .expect("observe --dump writes a flight file");

        // The dump feeds `trace --from`: memsim epoch spans (recorded at
        // the end of the run) must still be in the drop-oldest ring.
        let out = crate::run(&[
            "trace".into(),
            "epoch".into(),
            "--from".into(),
            dump.path().to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(out.contains("match 'epoch'"), "output:\n{out}");
        assert!(out.contains("started"), "output:\n{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_flight_dir_dumps_on_eviction() {
        let dir = std::env::temp_dir().join(format!("coop-cli-bb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();

        let out = crate::run(&[
            "chaos".into(),
            "--ticks".into(),
            "6".into(),
            "--kill-at".into(),
            "1".into(),
            "--tick-interval".into(),
            "1".into(),
            "--deadline".into(),
            "25".into(),
            "--flight-dir".into(),
            dir.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(out.contains("evicted: [app0]"), "output:\n{out}");
        assert!(out.contains("flight recorder:"), "output:\n{out}");

        // Suspected and Dead each dump once; the files decode back into
        // timeline events.
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("flight-health-app0-")
            })
            .collect();
        assert!(
            !dumps.is_empty(),
            "eviction must leave a black-box dump in {dir:?}"
        );
        let bytes = std::fs::read(dumps[0].path()).unwrap();
        let events = coop_telemetry::FlightRecorder::decode(&bytes).unwrap();
        assert!(!events.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observe_serve_answers_metrics_and_healthz() {
        use std::io::{Read, Write};

        // Reserve a port, free it, and hand it to --serve. (The small
        // reuse race is acceptable in tests.)
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let addr_for_cli = addr.clone();
        let cli = std::thread::spawn(move || {
            crate::run(&[
                "observe".into(),
                "--iterations".into(),
                "2".into(),
                "--serve".into(),
                addr_for_cli,
                "--serve-max-requests".into(),
                "2".into(),
            ])
        });

        let fetch = |path: &str| -> String {
            // The server comes up only after the observe run finishes, so
            // retry the connect for a while.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            loop {
                match std::net::TcpStream::connect(&addr) {
                    Ok(mut s) => {
                        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
                        let mut buf = String::new();
                        s.read_to_string(&mut buf).unwrap();
                        return buf;
                    }
                    Err(_) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(std::time::Duration::from_millis(20))
                    }
                    Err(e) => panic!("server never came up on {addr}: {e}"),
                }
            }
        };

        let health = fetch("/healthz");
        assert!(health.contains("200"), "healthz response:\n{health}");
        assert!(health.contains("\"status\""), "healthz response:\n{health}");
        let metrics = fetch("/metrics");
        assert!(
            metrics.contains("coop_task_latency_us"),
            "metrics response:\n{metrics}"
        );

        let out = cli.join().unwrap().unwrap();
        assert!(out.contains("served telemetry"), "output:\n{out}");
    }
}

#[cfg(test)]
mod top_tests {
    fn run_str(s: &str) -> super::Result<String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        crate::run(&argv)
    }

    #[test]
    fn top_text_books_both_tenants() {
        let out = run_str("top --duration 0.06 --decision-period 0.01").unwrap();
        assert!(out.contains("jain fairness index"), "output:\n{out}");
        assert!(out.contains("TENANT"), "output:\n{out}");
        // Both tenants booked work; the SLO table follows the ledger.
        assert!(out.lines().any(|l| l.starts_with("a ")), "output:\n{out}");
        assert!(out.lines().any(|l| l.starts_with("b ")), "output:\n{out}");
        assert!(out.contains("delivered_share"), "output:\n{out}");
    }

    #[test]
    fn top_json_with_outage_is_the_tenants_document() {
        let out = run_str(
            "top --duration 0.08 --decision-period 0.01 --outage 1:0.02:0.05 --format json",
        )
        .unwrap();
        let v = coop_telemetry::json::parse(&out).unwrap();
        assert!(v["jain"].as_f64().unwrap() > 0.0);
        let tenants = v["tenants"].as_array().unwrap();
        assert_eq!(tenants.len(), 2);
        // The outage closes "b"'s first epoch and the revival opens a
        // second one; the survivor keeps its single managed epoch.
        let b = tenants.iter().find(|t| t["tenant"] == "b").unwrap();
        assert_eq!(b["epochs"].as_array().unwrap().len(), 2, "{out}");
        let a = tenants.iter().find(|t| t["tenant"] == "a").unwrap();
        assert_eq!(a["epochs"].as_array().unwrap().len(), 1, "{out}");
        assert!(a["tasks_total"].as_u64().unwrap() > 0);
    }

    #[test]
    fn top_serve_json_matches_the_tenants_route_byte_for_byte() {
        use std::io::{Read, Write};

        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let addr_for_cli = addr.clone();
        let cli = std::thread::spawn(move || {
            crate::run(&[
                "top".into(),
                "--duration".into(),
                "0.04".into(),
                "--decision-period".into(),
                "0.01".into(),
                "--serve".into(),
                addr_for_cli,
                "--serve-max-requests".into(),
                "2".into(),
                "--format".into(),
                "json".into(),
            ])
        });

        let fetch = |path: &str| -> String {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            loop {
                match std::net::TcpStream::connect(&addr) {
                    Ok(mut s) => {
                        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
                        let mut buf = String::new();
                        s.read_to_string(&mut buf).unwrap();
                        return buf;
                    }
                    Err(_) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(std::time::Duration::from_millis(20))
                    }
                    Err(e) => panic!("server never came up on {addr}: {e}"),
                }
            }
        };

        let tenants = fetch("/tenants");
        assert!(tenants.contains("200"), "tenants response:\n{tenants}");
        let body = tenants.split("\r\n\r\n").nth(1).unwrap().to_string();
        let slo = fetch("/slo");
        assert!(slo.contains("delivered_share"), "slo response:\n{slo}");

        // The contract scripts rely on: stdout in `--format json` IS the
        // `/tenants` document, byte for byte.
        let out = cli.join().unwrap().unwrap();
        assert_eq!(out, body, "CLI json and /tenants must match exactly");
    }

    #[test]
    fn chaos_slo_report_records_the_burn_spike() {
        let dir = std::env::temp_dir().join(format!("coop-cli-slo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let path = dir.join("slo-report.json");

        let out = crate::run(&[
            "chaos".into(),
            "--ticks".into(),
            "8".into(),
            "--kill-at".into(),
            "1".into(),
            "--revive-at".into(),
            "5".into(),
            "--tick-interval".into(),
            "1".into(),
            "--deadline".into(),
            "25".into(),
            "--slo-report".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(out.contains("slo report written"), "output:\n{out}");
        assert!(out.contains("tenants:"), "output:\n{out}");

        let report = coop_telemetry::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let slos = report["slos"].as_array().unwrap();
        assert_eq!(slos[0]["tenant"], "app0");
        assert!(slos[0]["violations"].as_u64().unwrap() >= 1, "{report:?}");
        assert!(
            slos[0]["burn_rate_peak"].as_f64().unwrap() > 1.0,
            "{report:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod simulate_tests {
    #[test]
    fn template_round_trip_through_the_cli() {
        // Emit the template, write it to a file, run it.
        let template = crate::run(&["simulate".into(), "--write-template".into()]).unwrap();
        let dir = std::env::temp_dir().join(format!("coop-cli-sim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        std::fs::write(&path, &template).unwrap();

        let out = crate::run(&[
            "simulate".into(),
            "--scenario".into(),
            path.to_str().unwrap().to_string(),
        ])
        .unwrap();
        assert!(out.contains("table3-local-scenarios"), "output:\n{out}");
        assert!(out.contains("uneven (1,1,1,17)"));

        let json_out = crate::run(&[
            "simulate".into(),
            "--scenario".into(),
            path.to_str().unwrap().to_string(),
            "--json".into(),
        ])
        .unwrap();
        let v = coop_telemetry::json::parse(&json_out).unwrap();
        assert_eq!(v["rows"].as_array().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_prom_format_prints_exposition() {
        let template = crate::run(&["simulate".into(), "--write-template".into()]).unwrap();
        let dir = std::env::temp_dir().join(format!("coop-cli-simprom-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        std::fs::write(&path, &template).unwrap();
        let out = crate::run(&[
            "simulate".into(),
            "--scenario".into(),
            path.to_str().unwrap().to_string(),
            "--format".into(),
            "prom".into(),
        ])
        .unwrap();
        assert!(out.contains("memsim_node_utilization"), "output:\n{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_engine_flag_runs_the_event_core_and_is_echoed() {
        let template = crate::run(&["simulate".into(), "--write-template".into()]).unwrap();
        let dir = std::env::temp_dir().join(format!("coop-cli-simeng-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        std::fs::write(&path, &template).unwrap();

        let out = crate::run(&[
            "simulate".into(),
            "--scenario".into(),
            path.to_str().unwrap().to_string(),
            "--engine".into(),
            "event".into(),
        ])
        .unwrap();
        assert!(out.contains("engine: event"), "output:\n{out}");

        let json_out = crate::run(&[
            "simulate".into(),
            "--scenario".into(),
            path.to_str().unwrap().to_string(),
            "--engine".into(),
            "event".into(),
            "--json".into(),
        ])
        .unwrap();
        let v = coop_telemetry::json::parse(&json_out).unwrap();
        assert_eq!(v["engine"], "event", "json:\n{json_out}");
        assert_eq!(v["rows"].as_array().unwrap().len(), 2);

        // The default is the event engine and says so.
        let out = crate::run(&[
            "simulate".into(),
            "--scenario".into(),
            path.to_str().unwrap().to_string(),
        ])
        .unwrap();
        assert!(out.contains("engine: event"), "output:\n{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drift_engine_flag_reaches_the_supervisor() {
        let out = crate::run(&[
            "drift".into(),
            "--duration".into(),
            "0.1".into(),
            "--engine".into(),
            "event".into(),
        ])
        .unwrap();
        assert!(out.contains("engine event"), "output:\n{out}");

        let json_out = crate::run(&[
            "drift".into(),
            "--duration".into(),
            "0.1".into(),
            "--engine".into(),
            "event".into(),
            "--json".into(),
        ])
        .unwrap();
        let v = coop_telemetry::json::parse(&json_out).unwrap();
        assert_eq!(v["engine"], "event", "json:\n{json_out}");
    }

    #[test]
    fn simulate_requires_input() {
        let err = crate::run(&["simulate".into()]).unwrap_err();
        assert_eq!(err.code, 2);
        let err = crate::run(&[
            "simulate".into(),
            "--scenario".into(),
            "/nonexistent.json".into(),
        ])
        .unwrap_err();
        assert_eq!(err.code, 2);
    }
}
