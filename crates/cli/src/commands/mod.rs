//! Command execution.

use crate::{
    AppArg, Cli, CliError, Command, OutputFormat, PerturbArg, PlacementArg, Result, SearchMethod,
};
use coop_alloc::{search, Objective, ThreadAssignment};
use coop_telemetry::json::{self, ToJson, Value};
use coop_telemetry::json_object;
use numa_topology::{presets, Machine, NodeId};
use roofline_numa::{solve, sweep, AppSpec, DataPlacement};

/// Resolves a `--machine` argument: preset name, `host`, or a JSON path.
pub fn resolve_machine(name: &str) -> Result<Machine> {
    match name {
        "paper-model" => Ok(presets::paper_model_machine()),
        "paper-crossnode" => Ok(presets::paper_crossnode_machine()),
        "paper-skylake" => Ok(presets::paper_skylake_machine()),
        "dual-socket" => Ok(presets::dual_socket()),
        "knl" => Ok(presets::knl_snc4()),
        "tiny" => Ok(presets::tiny()),
        "host" => Ok(numa_topology::host::detect_host()),
        path => {
            let json = std::fs::read_to_string(path).map_err(|e| {
                CliError::usage(format!(
                    "'{path}' is not a preset machine and could not be read as a file: {e}"
                ))
            })?;
            Machine::from_json(&json)
                .map_err(|e| CliError::failure(format!("invalid machine JSON in '{path}': {e}")))
        }
    }
}

/// Converts CLI app specs to model specs, validating against the machine.
pub fn resolve_apps(machine: &Machine, args: &[AppArg]) -> Result<Vec<AppSpec>> {
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

/// [`json_doc`] of a simulator document stamped with the engine choice.
fn engine_doc(mut doc: Value, engine: memsim::EngineKind, sim_threads: usize) -> String {
    doc.insert("engine", engine.as_str().to_value());
    doc.insert("sim_threads", sim_threads.to_value());
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
pub fn execute(cli: &Cli) -> Result<String> {
    match &cli.command {
        Command::Help => Ok(crate::args::USAGE.to_string()),
        Command::Machines => Ok(machines_text()),
        Command::Detect => detect(cli.json),
        Command::Show { machine } => {
            let m = resolve_machine(machine)?;
            Ok(m.to_json() + "\n")
        }
        Command::Solve {
            machine,
            apps,
            counts,
            explain,
        } => solve_cmd(machine, apps, counts, *explain, cli.json),
        Command::Search {
            machine,
            apps,
            method,
            keep_alive,
            seed,
            threads,
            metrics,
        } => search_cmd(
            machine,
            apps,
            *method,
            *keep_alive,
            *seed,
            *threads,
            metrics.as_deref(),
            cli.json,
        ),
        Command::Sweep { machine, app } => sweep_cmd(machine, app, cli.json),
        Command::Pareto { machine, apps } => pareto_cmd(machine, apps, cli.json),
        Command::Simulate {
            scenario,
            write_template,
            metrics,
            faults,
            no_reclaim,
            engine,
            sim_threads,
        } => simulate_cmd(
            scenario.as_deref(),
            *write_template,
            metrics.as_deref(),
            faults,
            *no_reclaim,
            (*engine, *sim_threads),
            cli.format,
        ),
        Command::Chaos {
            machine,
            runtimes,
            ticks,
            tick_interval_ms,
            kill_at,
            revive_at,
            deadline_ms,
            faults,
            runaway,
            trace_out,
            metrics,
            flight_dir,
            slo_report,
            engine,
            sim_threads,
        } => chaos_cmd(
            machine,
            *runtimes,
            (*ticks, *tick_interval_ms, *kill_at, *revive_at),
            *deadline_ms,
            faults,
            *runaway,
            trace_out.as_deref(),
            metrics.as_deref(),
            (flight_dir.as_deref(), slo_report.as_deref()),
            (*engine, *sim_threads),
            cli.format,
        ),
        Command::Top {
            machine,
            duration_s,
            decision_period_s,
            outages,
            serve,
            serve_max_requests,
        } => top_cmd(
            machine,
            *duration_s,
            *decision_period_s,
            outages,
            (serve.as_deref(), *serve_max_requests),
            cli.format,
        ),
        Command::Observe {
            machine,
            iterations,
            trace_out,
            metrics,
            serve,
            serve_max_requests,
            dump,
        } => observe_cmd(
            machine,
            *iterations,
            trace_out.as_deref(),
            metrics.as_deref(),
            (serve.as_deref(), *serve_max_requests, dump.as_deref()),
            cli.format,
        ),
        Command::Trace {
            query,
            from,
            machine,
            iterations,
        } => trace_cmd(query, from.as_deref(), machine, *iterations, cli.format),
        Command::Drift {
            scenario,
            perturbations,
            decision_period_s,
            duration_s,
            ewma_alpha,
            cusum_k,
            cusum_h,
            reoptimize,
            trace_out,
            metrics,
            engine,
            sim_threads,
        } => drift_cmd(
            scenario.as_deref(),
            perturbations,
            *decision_period_s,
            *duration_s,
            (*ewma_alpha, *cusum_k, *cusum_h),
            *reoptimize,
            trace_out.as_deref(),
            metrics.as_deref(),
            (*engine, *sim_threads),
            cli.format,
        ),
    }
}

/// Writes a hub's metrics to `path`: `.json` gets the structured summary,
/// anything else the Prometheus text exposition.
fn write_metrics_file(path: &str, hub: &coop_telemetry::TelemetryHub) -> Result<()> {
    let body = if path.ends_with(".json") {
        hub.summary_json()
    } else {
        hub.registry().to_prometheus()
    };
    std::fs::write(path, body)
        .map_err(|e| CliError::failure(format!("cannot write metrics '{path}': {e}")))
}

/// Parses an `app:down_at_s[:up_at_s]` outage spec; `flag` names the
/// CLI flag it came from (`--fault` on simulate, `--outage` on top) so
/// errors point at what the user actually typed.
fn parse_outage(flag: &str, spec: &str) -> Result<memsim::AppOutage> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 2 && parts.len() != 3 {
        return Err(CliError::usage(format!(
            "bad {flag} '{spec}': expected app:down_at_s[:up_at_s]"
        )));
    }
    let app: usize = parts[0].parse().map_err(|_| {
        CliError::usage(format!("bad app index '{}' in {flag} '{spec}'", parts[0]))
    })?;
    let down_at_s: f64 = parts[1].parse().map_err(|_| {
        CliError::usage(format!("bad down time '{}' in {flag} '{spec}'", parts[1]))
    })?;
    let up_at_s: Option<f64> = match parts.get(2) {
        Some(t) => Some(t.parse().map_err(|_| {
            CliError::usage(format!("bad up time '{t}' in {flag} '{spec}'"))
        })?),
        None => None,
    };
    Ok(memsim::AppOutage {
        app,
        down_at_s,
        up_at_s,
    })
}

fn simulate_cmd(
    scenario: Option<&str>,
    write_template: bool,
    metrics: Option<&str>,
    faults: &[String],
    no_reclaim: bool,
    engine: (memsim::EngineKind, usize),
    format: OutputFormat,
) -> Result<String> {
    let (engine, sim_threads) = engine;
    if write_template {
        return Ok(memsim::scenario::template().to_json() + "\n");
    }
    let path = scenario.expect("checked by the parser");
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read scenario '{path}': {e}")))?;
    let scenario = memsim::Scenario::from_json(&text)
        .map_err(|e| CliError::failure(format!("invalid scenario: {e}")))?;

    // `--fault` switches simulate into the chaos path: the first
    // assignment runs with the requested outages injected.
    if !faults.is_empty() {
        let plan = memsim::ChaosPlan {
            outages: faults
                .iter()
                .map(|f| parse_outage("--fault", f))
                .collect::<Result<Vec<_>>>()?,
            reclaim: !no_reclaim,
        };
        let want_hub = metrics.is_some() || format == OutputFormat::Prom;
        let (chaos, hub) = if want_hub {
            let hub = std::sync::Arc::new(coop_telemetry::TelemetryHub::new());
            let r = memsim::run_chaos_scenario_threaded(
                &scenario,
                &plan,
                Some(std::sync::Arc::clone(&hub)),
                engine,
                sim_threads,
            )
            .map_err(|e| CliError::failure(format!("chaos simulation failed: {e}")))?;
            if let Some(metrics_path) = metrics {
                write_metrics_file(metrics_path, &hub)?;
            }
            (r, Some(hub))
        } else {
            let r = memsim::run_chaos_scenario_threaded(&scenario, &plan, None, engine, sim_threads)
                .map_err(|e| CliError::failure(format!("chaos simulation failed: {e}")))?;
            (r, None)
        };
        return match format {
            OutputFormat::Json => Ok(engine_doc(chaos.result.to_value(), engine, sim_threads)),
            OutputFormat::Prom => Ok(hub
                .expect("hub exists for prom format")
                .registry()
                .to_prometheus()),
            OutputFormat::Text => {
                let mut out = format!(
                    "chaos scenario: {} ({} segments, reclaim {}, engine {engine}, \
                     sim-threads {sim_threads})\n",
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
                Ok(out)
            }
        };
    }

    // `--format prom` needs the hub even without a `--metrics` file.
    let want_hub = metrics.is_some() || format == OutputFormat::Prom;
    let (result, hub) = if want_hub {
        let hub = std::sync::Arc::new(coop_telemetry::TelemetryHub::new());
        let r = memsim::run_scenario_threaded(
            &scenario,
            Some(std::sync::Arc::clone(&hub)),
            engine,
            sim_threads,
        )
        .map_err(|e| CliError::failure(format!("simulation failed: {e}")))?;
        if let Some(metrics_path) = metrics {
            write_metrics_file(metrics_path, &hub)?;
        }
        (r, Some(hub))
    } else {
        let r = memsim::run_scenario_threaded(&scenario, None, engine, sim_threads)
            .map_err(|e| CliError::failure(format!("simulation failed: {e}")))?;
        (r, None)
    };
    match format {
        OutputFormat::Json => Ok(engine_doc(result.to_value(), engine, sim_threads)),
        OutputFormat::Prom => Ok(hub
            .expect("hub exists for prom format")
            .registry()
            .to_prometheus()),
        OutputFormat::Text => {
            let mut out = result.to_string();
            out.push_str(&format!("engine: {engine}\n"));
            out.push_str(&format!("sim-threads: {sim_threads}\n"));
            Ok(out)
        }
    }
}

/// `drift`: run a scenario under model supervision (predict each decision
/// tick with the analytic model, simulate it — optionally on a perturbed
/// machine — and back-fill the residuals) and print the drift report.
#[allow(clippy::too_many_arguments)]
fn drift_cmd(
    scenario: Option<&str>,
    perturbations: &[PerturbArg],
    decision_period_s: f64,
    duration_s: f64,
    (ewma_alpha, cusum_k, cusum_h): (f64, f64, f64),
    reoptimize: bool,
    trace_out: Option<&str>,
    metrics: Option<&str>,
    engine: (memsim::EngineKind, usize),
    format: OutputFormat,
) -> Result<String> {
    use std::sync::Arc;

    let (engine, sim_threads) = engine;

    let scenario = match scenario {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::usage(format!("cannot read scenario '{path}': {e}")))?;
            memsim::Scenario::from_json(&text)
                .map_err(|e| CliError::failure(format!("invalid scenario: {e}")))?
        }
        None => {
            // Template with only the first assignment: one supervised run.
            let mut s = memsim::scenario::template();
            s.assignments.truncate(1);
            s
        }
    };
    let config = memsim::SupervisorConfig {
        decision_period_s,
        duration_s,
        perturbations: perturbations
            .iter()
            .map(|p| memsim::Perturbation::NodeBandwidth {
                at_s: p.at_s,
                node: p.node,
                bandwidth_factor: p.factor,
            })
            .collect(),
        drift: coop_telemetry::DriftConfig {
            ewma_alpha,
            cusum_k,
            cusum_h,
            ..coop_telemetry::DriftConfig::default()
        },
        reoptimize,
        // A requested trace export implies the causal spans that make it
        // assemble like a real runtime's.
        tracing: trace_out.is_some(),
        chaos: None,
        engine,
        sim_threads,
    };
    let hub = Arc::new(coop_telemetry::TelemetryHub::new());
    let result = memsim::run_supervised(&scenario, &config, Arc::clone(&hub))
        .map_err(|e| CliError::failure(format!("supervised run failed: {e}")))?;

    if let Some(path) = trace_out {
        std::fs::write(path, hub.to_perfetto_json())
            .map_err(|e| CliError::failure(format!("cannot write trace '{path}': {e}")))?;
    }
    if let Some(path) = metrics {
        write_metrics_file(path, &hub)?;
    }

    let report = result.report();
    match format {
        OutputFormat::Json => {
            let doc = json::parse(&report.to_json())
                .map_err(|e| CliError::failure(format!("drift report JSON: {e}")))?;
            Ok(engine_doc(doc, engine, sim_threads))
        }
        OutputFormat::Prom => Ok(hub.registry().to_prometheus()),
        OutputFormat::Text => {
            let mut out = report.to_text();
            out.push_str(&format!(
                "{} decision ticks ({} perturbed), first alarm at tick {}, engine {engine}, \
                 sim-threads {sim_threads}\n",
                result.ticks.len(),
                result.ticks.iter().filter(|t| t.perturbed).count(),
                result
                    .first_alarm_tick()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".to_string()),
            ));
            if let Some(p) = trace_out {
                out.push_str(&format!("trace written to {p}\n"));
            }
            if let Some(p) = metrics {
                out.push_str(&format!("metrics written to {p}\n"));
            }
            Ok(out)
        }
    }
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
/// marks the spinners runaway, the agent's containment ladder walks the
/// offender back toward its fair share, and the ledger books the
/// over-budget CPU against it.
#[allow(clippy::too_many_arguments)]
fn chaos_cmd(
    machine: &str,
    runtimes: usize,
    (ticks, tick_interval_ms, kill_at, revive_at): (u64, u64, u64, Option<u64>),
    deadline_ms: u64,
    faults: &[String],
    runaway: Option<(usize, u64)>,
    trace_out: Option<&str>,
    metrics: Option<&str>,
    (flight_dir, slo_report): (Option<&str>, Option<&str>),
    engine: (memsim::EngineKind, usize),
    format: OutputFormat,
) -> Result<String> {
    use coop_agent::{policies, Agent, ChaosHandle, FaultPlan, KillSwitch, SupervisionConfig};
    use coop_runtime::{Runtime, RuntimeConfig};
    use std::sync::Arc;
    use std::time::Duration;

    let (engine, sim_threads) = engine;

    if runtimes < 2 {
        return Err(CliError::usage("chaos needs --runtimes >= 2"));
    }
    let m = resolve_machine(machine)?;
    let mut plan = FaultPlan::new();
    for spec in faults {
        plan = plan
            .parse_rule(spec)
            .map_err(|e| CliError::usage(format!("bad --fault '{spec}': {e}")))?;
    }

    let hub = Arc::new(coop_telemetry::TelemetryHub::new());
    // `--flight-dir`: black-box recorder on the shared hub. The agent's
    // supervision machine dumps it automatically on every transition to
    // Suspected or Dead, so the kill below leaves a post-mortem on disk.
    let recorder = match flight_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError::failure(format!("cannot create flight dir '{dir}': {e}")))?;
            let rec = Arc::new(coop_telemetry::FlightRecorder::new(
                coop_telemetry::DEFAULT_FLIGHT_CAPACITY,
            ));
            rec.set_dump_dir(dir);
            hub.install_flight_recorder(Arc::clone(&rec));
            Some(rec)
        }
        None => None,
    };
    // Tenant observatory: the ledger books every runtime's delivered work
    // as the agent ticks, and the SLO engine burns app0's error budget
    // while the kill keeps it below its fair share. Short windows so the
    // handful of ticks a CLI run makes is enough to register a spike.
    let ledger = Arc::new(coop_telemetry::TenantLedger::new());
    hub.install_tenant_ledger(Arc::clone(&ledger));
    let slo_engine = Arc::new(coop_telemetry::SloEngine::new(vec![
        coop_telemetry::SloSpec::min_share("app0", 0.5 / runtimes as f64)
            .with_windows(vec![2, 8]),
    ]));
    hub.install_slo_engine(Arc::clone(&slo_engine));
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
                    .with_watchdog(Duration::from_millis((tick_interval_ms / 2).clamp(1, 20)));
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
        deadline_ms,
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

    let mut lines = Vec::new();
    let mut tick_records = Vec::new();
    // `--runaway`: spinners hold their workers until this flag flips, so
    // the watchdog sees a genuine wedge but shutdown still drains clean.
    let spin_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut spins_left: u32 = if runaway.is_some() { 3 } else { 0 };
    for tick in 0..ticks {
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
                // detector keys on before it walks the containment ladder.
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
                    lines.push(format!("tick {tick:>3}: >>> runaway injected into app{app}"));
                }
            }
        }
        agent
            .tick()
            .map_err(|e| CliError::failure(format!("agent tick {tick} failed: {e}")))?;
        let health = agent.health();
        let evicted = agent.evicted();
        lines.push(format!(
            "tick {tick:>3}: {}{}",
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
        ));
        tick_records.push(json_object! {
            "tick": tick,
            "health": health_doc(&health),
            "evicted": evicted,
        });
        std::thread::sleep(Duration::from_millis(tick_interval_ms));
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

    if let Some(path) = trace_out {
        std::fs::write(path, hub.to_perfetto_json())
            .map_err(|e| CliError::failure(format!("cannot write trace '{path}': {e}")))?;
    }
    if let Some(path) = metrics {
        write_metrics_file(path, &hub)?;
    }
    if let Some(path) = slo_report {
        std::fs::write(path, slo_engine.to_json())
            .map_err(|e| CliError::failure(format!("cannot write SLO report '{path}': {e}")))?;
    }

    let flight_dumps = recorder.as_ref().map(|r| r.dumps());
    let ledger_snap = ledger.snapshot();

    match format {
        OutputFormat::Json => {
            let tenants_doc = json::parse(&ledger.to_json())
                .map_err(|e| CliError::failure(format!("ledger JSON: {e}")))?;
            let slo_doc = json::parse(&slo_engine.to_json())
                .map_err(|e| CliError::failure(format!("SLO JSON: {e}")))?;
            let doc = json_object! {
                "machine": m.name(),
                "engine": engine.as_str(),
                "sim_threads": sim_threads,
                "runtimes": runtimes,
                "kill_at": kill_at,
                "revive_at": revive_at,
                "ticks": tick_records,
                "final_health": health_doc(&final_health),
                "final_evicted": final_evicted,
                "flight_dumps": flight_dumps,
                "tenants": tenants_doc,
                "slo": slo_doc,
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
            Ok(json_doc(&doc))
        }
        OutputFormat::Prom => Ok(hub.registry().to_prometheus()),
        OutputFormat::Text => {
            let mut out = format!(
                "chaos: {runtimes} runtimes on {}, kill app0 at tick {kill_at}{}, \
                 engine {engine}, sim-threads {sim_threads}\n",
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
                "final: {}{}\n",
                final_health
                    .iter()
                    .map(|(n, h)| format!("{n}={}", h.name()))
                    .collect::<Vec<_>>()
                    .join(" "),
                if final_evicted.is_empty() {
                    String::new()
                } else {
                    format!("  evicted: [{}]", final_evicted.join(", "))
                }
            ));
            if let Some(p) = trace_out {
                out.push_str(&format!("trace written to {p}\n"));
            }
            if let Some(p) = metrics {
                out.push_str(&format!("metrics written to {p}\n"));
            }
            if let (Some(dir), Some(n)) = (flight_dir, flight_dumps) {
                out.push_str(&format!("flight recorder: {n} dump(s) in {dir}\n"));
            }
            out.push_str(&format!(
                "tenants: {} accounted, jain {:.3}\n",
                ledger_snap.tenants.len(),
                ledger_snap.jain
            ));
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
            if let Some(p) = slo_report {
                out.push_str(&format!("slo report written to {p}\n"));
            }
            Ok(out)
        }
    }
}

/// `observe`: the Figure-1 setup end to end on one telemetry hub — two
/// runtimes driving the producer-consumer pipeline, the agent throttling
/// the producer, and a memsim reallocation run — then export the merged
/// trace and metrics.
fn observe_cmd(
    machine: &str,
    iterations: usize,
    trace_out: Option<&str>,
    metrics: Option<&str>,
    (serve, serve_max_requests, dump): (Option<&str>, u64, Option<&str>),
    format: OutputFormat,
) -> Result<String> {
    use coop_agent::{policies, Agent};
    use coop_runtime::{Runtime, RuntimeConfig};
    use coop_workloads::pipeline::{run_pipeline, PipelineConfig};
    use std::sync::Arc;
    use std::time::Duration;

    let m = resolve_machine(machine)?;
    let hub = Arc::new(coop_telemetry::TelemetryHub::new());
    // `--dump`: flight recorder on the hub from the start, snapshotted at
    // the end of the run (`coop observe --dump` in the docs).
    let recorder = match dump {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError::failure(format!("cannot create dump dir '{dir}': {e}")))?;
            let rec = Arc::new(coop_telemetry::FlightRecorder::new(
                coop_telemetry::DEFAULT_FLIGHT_CAPACITY,
            ));
            rec.set_dump_dir(dir);
            hub.install_flight_recorder(Arc::clone(&rec));
            Some(rec)
        }
        None => None,
    };
    // Tenant observatory on the same hub: the agent books producer and
    // consumer into the ledger each tick and the SLO engine tracks a
    // (deliberately loose) minimum-share objective for each, so the
    // `/tenants` and `/slo` routes serve real data under `--serve`.
    let ledger = Arc::new(coop_telemetry::TenantLedger::new());
    hub.install_tenant_ledger(Arc::clone(&ledger));
    let slo_engine = Arc::new(coop_telemetry::SloEngine::new(vec![
        coop_telemetry::SloSpec::min_share("producer", 0.05).with_windows(vec![4, 16]),
        coop_telemetry::SloSpec::min_share("consumer", 0.05).with_windows(vec![4, 16]),
    ]));
    hub.install_slo_engine(Arc::clone(&slo_engine));
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
        iterations,
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
        let reg = hub.registry();
        reg.set_help(
            "coop_search_full_solves_total",
            "Full model solves performed by the allocation search",
        );
        reg.set_help(
            "coop_search_delta_solves_total",
            "Incremental (delta) model solves performed by the allocation search",
        );
        let labels = &[("method", "greedy")];
        reg.counter("coop_search_full_solves_total", labels)
            .add(result.counters.full_solves);
        reg.counter("coop_search_delta_solves_total", labels)
            .add(result.counters.delta_solves);
        result.counters
    };

    if let Some(path) = trace_out {
        std::fs::write(path, hub.to_perfetto_json())
            .map_err(|e| CliError::failure(format!("cannot write trace '{path}': {e}")))?;
    }
    if let Some(path) = metrics {
        write_metrics_file(path, &hub)?;
    }

    // `--dump`: snapshot the flight recorder now that the run is over.
    let dump_path = recorder
        .as_ref()
        .and_then(|r| r.trigger_dump("observe-cli"));

    // `--serve`: expose the hub over HTTP once the run has finished. With
    // `--serve-max-requests N` the server exits by itself after N requests
    // (deterministic for CI smoke tests); without it, serve until killed.
    let served_addr = match serve {
        Some(addr) => {
            let limit = (serve_max_requests > 0).then_some(serve_max_requests);
            let server = coop_telemetry::serve_with_limit(Arc::clone(&hub), addr, limit)
                .map_err(|e| CliError::failure(format!("cannot serve on '{addr}': {e}")))?;
            let bound = server.addr();
            eprintln!(
                "serving telemetry on http://{bound} \
                 (/metrics /healthz /trace/recent /summary /tenants /slo){}",
                match limit {
                    Some(n) => format!(", exiting after {n} request(s)"),
                    None => ", ctrl-c to stop".to_string(),
                }
            );
            server.join();
            Some(bound.to_string())
        }
        None => None,
    };

    if format == OutputFormat::Prom {
        return Ok(hub.registry().to_prometheus());
    }
    if format == OutputFormat::Json {
        let summary = json::parse(&hub.summary_json())
            .map_err(|e| CliError::failure(format!("summary JSON: {e}")))?;
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
            "flight_dump": dump_path.as_ref().map(|p| p.display().to_string()),
            "served": served_addr,
            "tenants": json::parse(&ledger.to_json())
                .map_err(|e| CliError::failure(format!("ledger JSON: {e}")))?,
            "telemetry": summary,
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
    {
        let snap = ledger.snapshot();
        out.push_str(&format!(
            "tenants: {} accounted, jain {:.3}\n",
            snap.tenants.len(),
            snap.jain
        ));
    }
    match (trace_out, metrics) {
        (None, None) => out.push_str(
            "hint: use --trace-out <path> for a Perfetto/Chrome trace and\n\
             --metrics <path> for Prometheus or JSON metrics\n",
        ),
        _ => {
            if let Some(p) = trace_out {
                out.push_str(&format!("trace written to {p}\n"));
            }
            if let Some(p) = metrics {
                out.push_str(&format!("metrics written to {p}\n"));
            }
        }
    }
    if let Some(p) = &dump_path {
        out.push_str(&format!("flight recorder dumped to {}\n", p.display()));
    }
    if let Some(a) = &served_addr {
        out.push_str(&format!("served telemetry on http://{a}\n"));
    }
    Ok(out)
}

/// `top`: per-tenant accounting at a glance. Runs a short supervised
/// two-tenant memsim workload — optionally with `--outage` chaos edges
/// and fair-share reclamation — booking every decision tick into the
/// tenant ledger and burning each tenant's error budget in the SLO
/// engine, then prints the ledger. `--format json` emits exactly the
/// `/tenants` document; `--serve` exposes the hub over HTTP afterwards
/// so the same bytes can be fetched from the endpoint.
fn top_cmd(
    machine: &str,
    duration_s: f64,
    decision_period_s: f64,
    outages: &[String],
    (serve, serve_max_requests): (Option<&str>, u64),
    format: OutputFormat,
) -> Result<String> {
    use std::sync::Arc;

    let m = resolve_machine(machine)?;
    if !(duration_s > 0.0 && decision_period_s > 0.0) {
        return Err(CliError::usage(
            "top needs positive --duration and --decision-period",
        ));
    }
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
        duration_s,
        effects: memsim::EffectModel::ideal(),
        seed: 7,
    };
    let mut parsed = Vec::new();
    for spec in outages {
        parsed.push(parse_outage("--outage", spec)?);
    }
    let chaos = (!parsed.is_empty()).then(|| memsim::ChaosPlan {
        outages: parsed,
        reclaim: true,
    });
    let config = memsim::SupervisorConfig {
        decision_period_s,
        duration_s,
        chaos,
        ..memsim::SupervisorConfig::default()
    };

    let hub = Arc::new(coop_telemetry::TelemetryHub::new());
    let ledger = Arc::new(coop_telemetry::TenantLedger::new());
    hub.install_tenant_ledger(Arc::clone(&ledger));
    // Each tenant is entitled to half the machine; a minimum-share floor
    // at half of that catches outages without tripping on jitter. Short
    // windows match the handful of decision ticks a CLI run makes.
    let slo_engine = Arc::new(coop_telemetry::SloEngine::new(
        scenario
            .apps
            .iter()
            .map(|a| coop_telemetry::SloSpec::min_share(a.name(), 0.25).with_windows(vec![2, 6]))
            .collect(),
    ));
    hub.install_slo_engine(Arc::clone(&slo_engine));

    memsim::run_supervised(&scenario, &config, Arc::clone(&hub))
        .map_err(|e| CliError::failure(format!("supervised run failed: {e}")))?;

    let served_addr = match serve {
        Some(addr) => {
            let limit = (serve_max_requests > 0).then_some(serve_max_requests);
            let server = coop_telemetry::serve_with_limit(Arc::clone(&hub), addr, limit)
                .map_err(|e| CliError::failure(format!("cannot serve on '{addr}': {e}")))?;
            let bound = server.addr();
            eprintln!(
                "serving telemetry on http://{bound} \
                 (/metrics /healthz /trace/recent /summary /tenants /slo){}",
                match limit {
                    Some(n) => format!(", exiting after {n} request(s)"),
                    None => ", ctrl-c to stop".to_string(),
                }
            );
            server.join();
            Some(bound.to_string())
        }
        None => None,
    };

    match format {
        // Byte-for-byte the `/tenants` document, so scripts can use the
        // CLI and the HTTP endpoint interchangeably.
        OutputFormat::Json => Ok(ledger.to_json()),
        OutputFormat::Prom => Ok(hub.registry().to_prometheus()),
        OutputFormat::Text => {
            let mut out = ledger.to_text();
            out.push_str(&slo_engine.to_text());
            if let Some(a) = &served_addr {
                out.push_str(&format!("served telemetry on http://{a}\n"));
            }
            Ok(out)
        }
    }
}

/// `trace`: reconstruct the causal span chain for a task — either from a
/// flight-recorder dump (`--from`) or from a fresh traced dependency-chain
/// run — and print each matching task's hop timeline, per-hop wall time,
/// cross-node attribution, and critical path.
fn trace_cmd(
    query: &str,
    from: Option<&str>,
    machine: &str,
    iterations: usize,
    format: OutputFormat,
) -> Result<String> {
    use coop_telemetry::TraceAssembler;
    use std::sync::Arc;

    let asm = match from {
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
            let m = resolve_machine(machine)?;
            let nodes = m.num_nodes();
            let hub = Arc::new(coop_telemetry::TelemetryHub::new());
            let rt = Runtime::start(
                RuntimeConfig::new("traced", m)
                    .with_telemetry(Arc::clone(&hub))
                    .with_task_tracing(),
            )
            .map_err(|e| CliError::failure(format!("cannot start runtime: {e}")))?;
            let n = iterations.max(1);
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

fn pareto_cmd(machine: &str, apps: &[AppArg], json: bool) -> Result<String> {
    let m = resolve_machine(machine)?;
    let specs = resolve_apps(&m, apps)?;
    let frontier = coop_alloc::pareto_frontier(&m, &specs, 2_000_000)
        .map_err(|e| CliError::failure(format!("pareto enumeration failed: {e}")))?;
    if json {
        let points: Vec<Value> = frontier
            .iter()
            .map(|p| {
                json_object! {
                    "total_gflops": p.total_gflops,
                    "min_app_gflops": p.min_app_gflops,
                    "assignment": p.assignment.matrix(),
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
    for (name, m) in [
        ("paper-model", presets::paper_model_machine()),
        ("paper-crossnode", presets::paper_crossnode_machine()),
        ("paper-skylake", presets::paper_skylake_machine()),
        ("dual-socket", presets::dual_socket()),
        ("knl", presets::knl_snc4()),
        ("tiny", presets::tiny()),
    ] {
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

fn detect(json: bool) -> Result<String> {
    let m = numa_topology::host::detect_host();
    if json {
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

fn solve_cmd(
    machine: &str,
    apps: &[AppArg],
    counts: &[usize],
    explain: bool,
    json: bool,
) -> Result<String> {
    let m = resolve_machine(machine)?;
    let specs = resolve_apps(&m, apps)?;
    let assignment = ThreadAssignment::uniform_per_node(&m, counts);
    let report = solve(&m, &specs, &assignment)
        .map_err(|e| CliError::failure(format!("solve failed: {e}")))?;
    if json {
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
    if explain {
        out.push('\n');
        out.push_str(&roofline_numa::explain::explain(&m, &report).to_string());
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn search_cmd(
    machine: &str,
    apps: &[AppArg],
    method: SearchMethod,
    keep_alive: bool,
    seed: u64,
    threads: usize,
    metrics: Option<&str>,
    json: bool,
) -> Result<String> {
    let m = resolve_machine(machine)?;
    let specs = resolve_apps(&m, apps)?;
    let objective = Objective::TotalGflops;
    let min_threads = usize::from(keep_alive);
    let fail = |e: coop_alloc::AllocError| CliError::failure(format!("search failed: {e}"));

    let oracle = search::ModelOracle::new(&m, &specs, &objective)
        .map_err(fail)?
        .with_min_threads(min_threads);
    let cache = std::sync::Arc::new(coop_alloc::ScoreCache::new(oracle.fingerprint()));
    let mut oracle = oracle
        .with_cache(std::sync::Arc::clone(&cache))
        .expect("a freshly keyed cache always matches its oracle");

    // `--threads N` races N derived seeds for the stochastic methods; the
    // merge is deterministic (best score, earliest seed on ties).
    let portfolio = search::Portfolio::new()
        .with_seeds((0..threads as u64).map(|i| seed.wrapping_add(i)).collect())
        .with_threads(threads)
        .with_min_threads(min_threads);

    let result = match method {
        SearchMethod::Greedy => search::GreedySearch::new().run_model(&m, &mut oracle),
        SearchMethod::Exhaustive if min_threads == 0 => search::ExhaustiveSearch::new()
            .with_threads(threads)
            .truncating()
            .run_cached(&m, &specs, &objective, Some(&cache)),
        SearchMethod::Exhaustive => {
            // keep-alive: penalty-aware thread-safe oracle sharing the same
            // cache (penalized candidates are never cached).
            let (m_ref, specs_ref, obj_ref, c) = (&m, &specs, &objective, &cache);
            let sync_oracle = move |a: &ThreadAssignment| -> coop_alloc::Result<f64> {
                let starved = (0..specs_ref.len())
                    .filter(|&i| a.app_total(i) < min_threads)
                    .count();
                if starved > 0 {
                    return Ok(-(starved as f64) * 1e12);
                }
                if let Some(s) = c.lookup(a) {
                    return Ok(s);
                }
                let s = coop_alloc::score(m_ref, specs_ref, a, obj_ref)?;
                c.insert(a, s);
                Ok(s)
            };
            search::ExhaustiveSearch::new()
                .with_threads(threads)
                .truncating()
                .run_with_sync_oracle(&m, specs.len(), &sync_oracle)
        }
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
    let cache_stats = cache.stats();
    if let Some(path) = metrics {
        let method_label = match method {
            SearchMethod::Greedy => "greedy",
            SearchMethod::Exhaustive => "exhaustive",
            SearchMethod::Hill => "hill",
            SearchMethod::Anneal => "anneal",
        };
        let hub = coop_telemetry::TelemetryHub::new();
        let reg = hub.registry();
        reg.set_help(
            "coop_search_evaluations_total",
            "Model evaluations performed by the allocation search",
        );
        reg.set_help("coop_search_best_gflops", "Best machine-wide GFLOPS found");
        reg.set_help(
            "coop_search_full_solves_total",
            "Full model solves performed by the allocation search",
        );
        reg.set_help(
            "coop_search_delta_solves_total",
            "Incremental (delta) model solves performed by the allocation search",
        );
        let labels = &[("method", method_label)];
        reg.counter("coop_search_evaluations_total", labels)
            .add(result.evaluations as u64);
        reg.gauge("coop_search_best_gflops", labels)
            .set(report.total_gflops());
        reg.counter("coop_search_full_solves_total", labels)
            .add(result.counters.full_solves);
        reg.counter("coop_search_delta_solves_total", labels)
            .add(result.counters.delta_solves);
        // Replays the cache's hit/miss/insert history onto the registry as
        // coop_score_cache_*_total{context=...} counters.
        cache.attach_metrics(reg, method_label);
        write_metrics_file(path, &hub)?;
    }
    if json {
        return Ok(json_doc(&json_object! {
            "score_gflops": report.total_gflops(),
            "evaluations": result.evaluations,
            "full_solves": result.counters.full_solves,
            "delta_solves": result.counters.delta_solves,
            "cache_hits": result.counters.cache_hits.max(cache_stats.hits),
            "truncated": result.truncated,
            "assignment": result.assignment.matrix(),
            "report": report,
        }));
    }

    let mut out = format!(
        "best allocation: {:.2} GFLOPS ({} model evaluations; {} full / {} delta solves, {} cache hits)\n",
        report.total_gflops(),
        result.evaluations,
        result.counters.full_solves,
        result.counters.delta_solves,
        result.counters.cache_hits.max(cache_stats.hits),
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

fn sweep_cmd(machine: &str, app: &AppArg, json: bool) -> Result<String> {
    let m = resolve_machine(machine)?;
    let specs = resolve_apps(&m, std::slice::from_ref(app))?;
    let curve = sweep::thread_sweep(&m, &specs, 0, &[0])
        .map_err(|e| CliError::failure(format!("sweep failed: {e}")))?;
    if json {
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
        assert!(cli.json);
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

        // The default stays on the slice engine and says so.
        let out = crate::run(&[
            "simulate".into(),
            "--scenario".into(),
            path.to_str().unwrap().to_string(),
        ])
        .unwrap();
        assert!(out.contains("engine: slice"), "output:\n{out}");
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
    fn simulate_sim_threads_flag_is_echoed_and_matches_single_threaded() {
        let template = crate::run(&["simulate".into(), "--write-template".into()]).unwrap();
        let dir = std::env::temp_dir().join(format!("coop-cli-simthr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        std::fs::write(&path, &template).unwrap();

        let out = crate::run(&[
            "simulate".into(),
            "--scenario".into(),
            path.to_str().unwrap().to_string(),
            "--engine".into(),
            "event".into(),
            "--sim-threads".into(),
            "2".into(),
        ])
        .unwrap();
        assert!(out.contains("sim-threads: 2"), "output:\n{out}");

        // The parallel run's JSON is identical to the single-threaded one
        // apart from the echoed thread count.
        let run_json = |threads: &str| {
            crate::run(&[
                "simulate".into(),
                "--scenario".into(),
                path.to_str().unwrap().to_string(),
                "--engine".into(),
                "event".into(),
                "--sim-threads".into(),
                threads.into(),
                "--json".into(),
            ])
            .unwrap()
        };
        let mut v1 = coop_telemetry::json::parse(&run_json("1")).unwrap();
        let mut v2 = coop_telemetry::json::parse(&run_json("2")).unwrap();
        assert_eq!(v1["sim_threads"], 1);
        assert_eq!(v2["sim_threads"], 2);
        v1.insert("sim_threads", coop_telemetry::json::Value::Null);
        v2.insert("sim_threads", coop_telemetry::json::Value::Null);
        assert_eq!(v1, v2, "parallel event engine must be bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drift_sim_threads_flag_reaches_the_supervisor() {
        let json_out = crate::run(&[
            "drift".into(),
            "--duration".into(),
            "0.1".into(),
            "--engine".into(),
            "event".into(),
            "--sim-threads".into(),
            "2".into(),
            "--json".into(),
        ])
        .unwrap();
        let v = coop_telemetry::json::parse(&json_out).unwrap();
        assert_eq!(v["engine"], "event", "json:\n{json_out}");
        assert_eq!(v["sim_threads"], 2, "json:\n{json_out}");
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
