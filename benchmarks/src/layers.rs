//! The per-layer table: every layer crate measured from outside, by timing
//! calls into its public functions and reading the counters its public API
//! returns. The probes take their inputs from the seed and do the same work
//! whichever workload is being traced, so the table is comparable across
//! workloads and commits; exact values (counts, simulated results) must
//! repeat bit for bit.

use crate::gen::Rng;
use crate::measure::{median, per_call_s, pin_to_one_cpu, quantile, timed};
use crate::report::{self, Metric};
use crate::trace::{Depth, Tracer};
use crate::workloads::ctl_chaos::{self, CtlChaos};
use crate::workloads::ctl_paper::{self, CtlPaper};
use crate::workloads::fleet::{self, Fleet, Scale};
use crate::workloads::live_squeeze::{self, Dag, LiveSqueeze, Squeeze, TASK_WORK};
use crate::workloads::{search_oracle, Meter, Workload, OBJECTIVE};
use coop_alloc::search::{ExhaustiveSearch, GreedySearch, HillClimb, Portfolio};
use coop_alloc::SearchCounters;
use coop_runtime::{Runtime, RuntimeConfig, ThreadCommand};
use coop_telemetry::{
    ArgValue, EventKind, FlightRecorder, TelemetryHub, TenantLedger, TenantSample, TimelineEvent,
};
use coop_workloads::apps::skylake_bad_mix;
use coop_workloads::graphs::IterativeGraph;
use memsim::{EngineKind, Simulation};
use numa_topology::presets::{paper_model_machine, paper_skylake_machine};
use numa_topology::NodeId;
use roofline_numa::{solve, AppSpec, DeltaSolver, ThreadAssignment};
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// What the suite hands back: the table, and one line per failed check.
pub struct Table {
    pub metrics: Vec<Metric>,
    pub failures: Vec<String>,
}

impl Table {
    /// A host-time measurement.
    fn timed(&mut self, name: &str, value: f64, unit: &str) {
        debug_assert!(!report::EXACT.contains(&name), "{name} is listed as exact");
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// A simulated or counted value, listed in [`report::EXACT`].
    fn exact(&mut self, name: &str, value: f64, unit: &str) {
        debug_assert!(
            report::EXACT.contains(&name),
            "{name} is not listed as exact"
        );
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }
}

/// Median seconds of `(seconds, result)` runs.
fn median_s<T>(runs: &[(f64, T)]) -> f64 {
    median(&runs.iter().map(|(s, _)| *s).collect::<Vec<_>>())
}

/// Repetition counts; `--smoke` runs each probe once or twice.
struct Reps {
    smoke: bool,
}

impl Reps {
    fn of(&self, full: usize) -> usize {
        if self.smoke {
            full.min(2)
        } else {
            full
        }
    }
}

pub fn suite(seed: u64, smoke: bool) -> Table {
    let reps = Reps { smoke };
    let mut table = Table {
        metrics: Vec::new(),
        failures: Vec::new(),
    };
    topology(&mut table, &reps);
    roofline_and_core(&mut table, &reps, seed);
    runtime_and_workloads(&mut table, &reps, seed, smoke);
    memsim(&mut table, &reps, seed, smoke);
    telemetry(&mut table, &reps);
    distsim(&mut table, &reps, seed);
    // Last, because it confines the process to one CPU for good: the probes
    // above that run threads side by side need all of them.
    agent(&mut table, &reps, seed, smoke);
    table
}

fn topology(table: &mut Table, reps: &Reps) {
    let s = per_call_s(reps.of(20), 1, || {
        black_box(fleet::machine(Scale::FLEET));
    });
    table.timed("topology.build_us", s * 1e6, "us");
}

/// The search problem the probes share: `ctl_chaos`'s eight seeded
/// applications on the paper's model machine.
fn roofline_and_core(table: &mut Table, reps: &Reps, seed: u64) {
    let machine = paper_model_machine();
    let specs = CtlChaos::specs(&mut Rng::stream(seed, 0));
    let found = ctl_chaos::research(&machine, &specs, None);

    let s = per_call_s(reps.of(15), 2000, || {
        black_box(solve(&machine, &specs, &found).expect("a found assignment solves"));
    });
    table.timed("roofline.solve_full_ns", s * 1e9, "ns");

    let mut delta = DeltaSolver::new(&machine, &specs).expect("stub specs are valid");
    delta.rebase(&found).expect("a found assignment solves");
    let mut candidate = found.clone();
    let mut i = 0usize;
    let s = per_call_s(reps.of(15), 2000, || {
        let (app, node) = (
            i % specs.len(),
            NodeId(i / specs.len() % machine.num_nodes()),
        );
        let had = found.get(app, node);
        candidate.set(app, node, had.saturating_sub(1));
        black_box(delta.probe(&candidate, &[node]).expect("probe solves"));
        candidate.set(app, node, had);
        i += 1;
    });
    table.timed("roofline.solve_delta_ns", s * 1e9, "ns");

    // Exhaustive search over the uniform space: 12 870 candidates.
    let exhaustive = || {
        ExhaustiveSearch::new()
            .run(&machine, &specs, &OBJECTIVE)
            .expect("the uniform space is under the limit")
    };
    let runs: Vec<(f64, _)> = (0..reps.of(5)).map(|_| timed(exhaustive)).collect();
    let exh_s = median_s(&runs);
    let best = &runs[0].1;
    table.timed("core.exhaustive_ms", exh_s * 1e3, "ms");
    table.timed(
        "core.exhaustive_cand_per_s",
        best.evaluations as f64 / exh_s,
        "1/s",
    );
    let par: Vec<(f64, _)> = (0..reps.of(5))
        .map(|_| {
            timed(|| {
                ExhaustiveSearch::new()
                    .with_threads(2)
                    .run(&machine, &specs, &OBJECTIVE)
                    .expect("the uniform space is under the limit")
            })
        })
        .collect();
    let par_s = median_s(&par);
    table.timed("core.par2_speedup", exh_s / par_s, "x");
    table.check(
        par[0].1.assignment == best.assignment && par[0].1.score.to_bits() == best.score.to_bits(),
        || "exhaustive search differs between 1 and 2 threads".to_string(),
    );

    // Cold hill climb, four seeds, no thread floor: comparable with the
    // exhaustive optimum above.
    let portfolio = Portfolio::new().with_seeds(vec![1, 2, 3, 4]);
    let climb = || {
        HillClimb::new()
            .run_portfolio(&machine, &specs, &OBJECTIVE, &portfolio, None)
            .expect("hill climb over valid specs succeeds")
    };
    let climbs: Vec<(f64, _)> = (0..reps.of(7)).map(|_| timed(climb)).collect();
    let climbed = &climbs[0].1;
    table.timed("core.hillclimb_ms", median_s(&climbs) * 1e3, "ms");
    table.exact("core.hillclimb_evals", climbed.evaluations as f64, "count");
    table.exact(
        "core.hillclimb_regret_pct",
        100.0 * (best.score - climbed.score) / best.score,
        "%",
    );

    // The agent's two searches: warm from the incumbent with a hot cache,
    // and cold after the live set (and with it the fingerprint) changed.
    let (mut oracle, _) = search_oracle(&machine, &specs);
    let mut incumbent = found.clone();
    let warm_s = per_call_s(reps.of(20), 1, || {
        incumbent = HillClimb::new()
            .with_iterations(1500)
            .with_start(incumbent.clone())
            .run_model(&machine, &mut oracle)
            .expect("warm re-search succeeds")
            .assignment;
    });
    table.timed("core.warm_research_us", warm_s * 1e6, "us");
    let mut dropped = 0usize;
    let cold_s = per_call_s(reps.of(20), 1, || {
        let mut survivors = specs.clone();
        survivors.remove(dropped % specs.len());
        dropped += 1;
        let (mut oracle, _) = search_oracle(&machine, &survivors);
        black_box(
            GreedySearch::new()
                .run_model(&machine, &mut oracle)
                .expect("cold search succeeds"),
        );
    });
    table.timed("core.cold_research_us", cold_s * 1e6, "us");

    // Score-cache use. With every application NUMA-local (both `ctl_*`
    // workloads) a search never asks the cache, a column probe being cheaper
    // than the hash; one NUMA-bad application makes it the only shortcut.
    let machine = paper_skylake_machine();
    let bad_mix = skylake_bad_mix(NodeId(0));
    let (mut oracle, cache) = search_oracle(&machine, &bad_mix);
    let mut incumbent = coop_alloc::strategies::fair_share(&machine, bad_mix.len())
        .expect("a fair share of the preset machine exists");
    for tick in 0..reps.of(20) as u64 {
        incumbent = HillClimb::new()
            .with_iterations(600)
            .with_seed(0xc0de ^ tick)
            .with_start(incumbent)
            .run_model(&machine, &mut oracle)
            .expect("warm re-search succeeds")
            .assignment;
    }
    let stats = cache.stats();
    table.exact("core.cache_hits", stats.hits as f64, "count");
    table.exact("core.cache_misses", stats.misses as f64, "count");
    table.exact(
        "core.cache_hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );
}

/// Agent ticks over stub handles, the reference `ctl_chaos` episodes behind
/// the exact agent counters and decision-quality numbers, and the solver
/// work those episodes' searches did.
fn agent(table: &mut Table, reps: &Reps, seed: u64, smoke: bool) {
    // As in `ctl_chaos`: the agent and its couriers take turns on one CPU.
    pin_to_one_cpu();
    let machine = paper_model_machine();
    let steady_ticks = if smoke { 40 } else { 200 };
    for (stubs, want_p99) in [(2usize, false), (8, true), (32, false)] {
        let mut rng = Rng::stream(seed, stubs as u64);
        let specs: Vec<AppSpec> = (0..stubs)
            .map(|i| AppSpec::numa_local(&format!("app{i}"), rng.log_uniform(1.0 / 32.0, 32.0)))
            .collect();
        let ep = ctl_chaos::run_episode(
            &machine,
            specs,
            Vec::new(),
            steady_ticks,
            &mut Tracer::new(Depth::Off),
            None,
        );
        table.check(ep.violations == 0, || {
            format!(
                "steady agent over {stubs} stubs: {} violations",
                ep.violations
            )
        });
        // The first ticks hold the cold search and courier start-up.
        let steady = &ep.tick_us[steady_ticks as usize / 4..];
        table.timed(&format!("agent.tick_us_p50.r{stubs}"), median(steady), "us");
        if want_p99 {
            table.timed("agent.tick_us_p99.r8", quantile(steady, 0.99), "us");
        }
    }

    let chaos = CtlChaos::new(seed, smoke);
    let mut counters = SearchCounters::default();
    let (mut commands, mut poll_errors, mut evictions, mut readmissions) = (0, 0, 0, 0);
    let (mut gflops, mut regret, mut reaction, mut reclaim) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in 0..reps.of(4) as u64 {
        let ep = chaos.episode(r, &mut Tracer::new(Depth::Off), None);
        table.check(ep.violations == 0, || {
            format!(
                "reference ctl_chaos episode {r}: {} violations",
                ep.violations
            )
        });
        for search in &ep.policy.searches {
            counters.merge(search.counters);
        }
        commands += ep.commands_issued;
        poll_errors += ep.poll_errors;
        evictions += ep.evictions;
        readmissions += ep.readmissions;
        let q = ctl_chaos::quality(chaos.machine(), &ep);
        table.check(q.oracle_beaten == 0, || {
            format!(
                "ctl_chaos episode {r}: the agent beat the oracle {} times",
                q.oracle_beaten
            )
        });
        gflops.push(q.sim_gflops);
        regret.extend(q.regret_pct);
        reaction.extend(q.reaction_ticks);
        reclaim.extend(q.evict_to_reclaim_ticks);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    table.exact("roofline.full_solves", counters.full_solves as f64, "count");
    table.exact(
        "roofline.delta_solves",
        counters.delta_solves as f64,
        "count",
    );
    table.exact("agent.commands_issued", commands as f64, "count");
    table.exact("agent.poll_errors", poll_errors as f64, "count");
    table.exact("agent.evictions", evictions as f64, "count");
    table.exact("agent.readmissions", readmissions as f64, "count");
    table.exact("agent.evict_to_reclaim_ticks", mean(&reclaim), "ticks");
    table.exact("ctl_chaos.sim_gflops", mean(&gflops), "GFLOP/s");
    table.exact("ctl_chaos.regret_pct", mean(&regret), "%");
    table.exact("ctl_chaos.reaction_ticks", mean(&reaction), "ticks");
}

/// Per-round change of a hub counter family.
fn counter_delta(hub: &TelemetryHub, name: &str, last: &mut u64) -> f64 {
    let now = hub.registry().counter_total(name);
    let delta = now - *last;
    *last = now;
    delta as f64
}

fn runtime_and_workloads(table: &mut Table, reps: &Reps, seed: u64, smoke: bool) {
    let starts: Vec<f64> = (0..reps.of(5))
        .map(|_| {
            let (s, rt) = timed(|| {
                Runtime::start(RuntimeConfig::new("probe", live_squeeze::machine()))
                    .expect("runtime starts")
            });
            rt.shutdown();
            s
        })
        .collect();
    table.timed("runtime.start_ms", median(&starts) * 1e3, "ms");

    // Reference rounds of the workload itself, for the scheduler counters.
    // Steal and park counts depend on thread timing: medians, not exact.
    let mut squeeze = LiveSqueeze::new(seed, smoke);
    let hub = Arc::clone(&squeeze.hub);
    let mut meter = Meter::default();
    let mut tracer = Tracer::new(Depth::Off);
    let (mut steals, mut pops, mut parks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut last_steals, mut last_pops, mut last_parks) = (0, 0, 0);
    for r in 0..reps.of(24) as u64 {
        squeeze.round(r, &mut meter, &mut tracer);
        steals.push(counter_delta(&hub, "coop_steals_total", &mut last_steals));
        pops.push(counter_delta(
            &hub,
            "coop_sched_local_pops_total",
            &mut last_pops,
        ));
        parks.push(counter_delta(
            &hub,
            "coop_sched_parks_total",
            &mut last_parks,
        ));
    }
    table.check(meter.failed == 0, || {
        format!("reference live_squeeze rounds: {:?}", meter.notes)
    });
    let (all_steals, all_pops) = (steals.iter().sum::<f64>(), pops.iter().sum::<f64>());
    table.timed("runtime.steals", median(&steals), "count");
    table.timed("runtime.local_pops", median(&pops), "count");
    table.timed(
        "runtime.steal_ratio",
        all_steals / (all_steals + all_pops).max(1.0),
        "ratio",
    );
    table.timed("runtime.parks", median(&parks), "count");
    table.timed(
        "runtime.backstop_wakeups",
        hub.registry()
            .counter_total("coop_sched_backstop_wakeups_total") as f64,
        "count",
    );
    let hinted = squeeze.ran.hinted.load(Ordering::SeqCst) as f64;
    table.timed(
        "runtime.local_task_ratio",
        squeeze.ran.hinted_local.load(Ordering::SeqCst) as f64 / hinted.max(1.0),
        "ratio",
    );

    let ticks: Vec<f64> = (0..reps.of(200))
        .map(|_| {
            let (s, result) = timed(|| squeeze.tick_agent());
            table.check(result.is_ok(), || "live agent tick failed".to_string());
            s * 1e6
        })
        .collect();
    table.timed("agent.live_tick_us_p50", median(&ticks), "us");

    // From here on runtime `a` alone, `b` idle.
    let machine = squeeze.machine().clone();
    let [a, _] = squeeze.runtimes().clone();
    let workers = machine.total_cores();
    let poll_s = per_call_s(reps.of(15), 200, || {
        black_box(a.stats());
    });
    table.timed("runtime.stats_poll_ns", poll_s * 1e9, "ns");

    let ran = Arc::clone(&squeeze.ran);
    table.check(
        live_squeeze::settle(&a, ThreadCommand::Unrestricted, workers),
        || "runtime did not settle unrestricted".to_string(),
    );
    let fan = Dag {
        levels: if smoke { 4 } else { 16 },
        chain: 0,
        affinity_every: 4,
    };
    let (mut spawn_ns, mut exec_rate) = (Vec::new(), Vec::new());
    for _ in 0..reps.of(10) {
        let (spawn_s, gate) = timed(|| live_squeeze::spawn_gated(&a, fan, &ran));
        let gate = gate.expect("spawn succeeds");
        let (exec_s, drained) = timed(|| a.satisfy(&gate).is_ok() && a.wait_quiescent().is_ok());
        table.check(drained, || "fan-out DAG did not drain".to_string());
        spawn_ns.push(spawn_s * 1e9 / fan.tasks() as f64);
        exec_rate.push(fan.tasks() as f64 / exec_s);
    }
    table.timed("runtime.spawn_ns", median(&spawn_ns), "ns");
    table.timed("runtime.exec_tasks_per_s", median(&exec_rate), "1/s");

    let chain = Dag {
        levels: 0,
        chain: if smoke { 200 } else { 2000 },
        affinity_every: 4,
    };
    let chain_ns: Vec<f64> = (0..reps.of(5))
        .map(|_| {
            let gate = live_squeeze::spawn_gated(&a, chain, &ran).expect("spawn succeeds");
            let (s, drained) = timed(|| a.satisfy(&gate).is_ok() && a.wait_quiescent().is_ok());
            table.check(drained, || "chain DAG did not drain".to_string());
            s * 1e9 / chain.chain as f64
        })
        .collect();
    table.timed("runtime.chain_task_ns", median(&chain_ns), "ns");

    // Settle time per blocking option: apply on an unrestricted, idle
    // runtime until the running-worker count has converged.
    let c = machine.node(NodeId(0)).num_cores();
    let mut all = Vec::new();
    for (option, label) in [
        (Squeeze::TotalThreads, "total"),
        (Squeeze::BlockCores, "blockcores"),
        (Squeeze::PerNode, "pernode"),
    ] {
        let samples: Vec<f64> = (0..reps.of(400))
            .map(|_| {
                let (s, settled) =
                    timed(|| live_squeeze::settle(&a, option.command(&machine, 0), c));
                let released = live_squeeze::settle(&a, ThreadCommand::Unrestricted, workers);
                table.check(settled && released, || format!("{label} did not settle"));
                s * 1e6
            })
            .collect();
        table.timed(
            &format!("runtime.settle_us_p50.{label}"),
            median(&samples),
            "us",
        );
        all.extend(samples);
    }
    table.timed("runtime.settle_us_p99", quantile(&all, 0.99), "us");

    // The workloads crate's own fan-out shape, spawned while every worker
    // is blocked.
    let graph = IterativeGraph::new(8, live_squeeze::FAN_WIDTH, TASK_WORK);
    let graph_us: Vec<f64> = (0..reps.of(5))
        .map(|_| {
            let blocked = live_squeeze::settle(&a, ThreadCommand::TotalThreads(0), 0);
            let (s, spawned) = timed(|| graph.spawn(&a));
            let drained = live_squeeze::settle(&a, ThreadCommand::Unrestricted, workers)
                && a.wait_quiescent().is_ok();
            table.check(blocked && spawned.is_ok() && drained, || {
                "iterative graph did not spawn and drain".to_string()
            });
            s * 1e6 / graph.iterations as f64
        })
        .collect();
    table.timed("workloads.graph_spawn_us", median(&graph_us), "us");

    let panicked: u64 = squeeze
        .runtimes()
        .iter()
        .map(|rt| rt.stats().tasks_panicked)
        .sum();
    table.exact("runtime.tasks_panicked", panicked as f64, "count");
    let mut meter = Meter::default();
    Box::new(squeeze).finish(&mut meter);
    table.check(meter.failed == 0, || {
        format!("runtimes did not reconcile at shutdown: {:?}", meter.notes)
    });
}

fn memsim(table: &mut Table, reps: &Reps, seed: u64, smoke: bool) {
    // Event engine on the fleet, one and two simulator threads.
    let diurnal = Fleet::diurnal(seed, smoke);
    let run = |threads: usize| {
        let runs: Vec<(f64, fleet::FleetOut)> = (0..reps.of(5))
            .map(|_| {
                let (s, out) = timed(|| diurnal.run_variant(0, threads));
                (s, out.expect("the fleet round simulates"))
            })
            .collect();
        let s = median_s(&runs);
        (s, runs[0].1)
    };
    let (seq_s, seq) = run(1);
    let (par_s, par) = run(2);
    table.exact("memsim.events", seq.ops as f64, "count");
    table.exact("memsim.segments", seq.segments as f64, "count");
    table.timed("memsim.segment_us", seq_s * 1e6 / seq.segments as f64, "us");
    table.timed("memsim.events_per_s", seq.ops as f64 / seq_s, "1/s");
    table.timed("memsim.segments_per_s", seq.segments as f64 / seq_s, "1/s");
    table.timed("memsim.par2_speedup", seq_s / par_s, "x");
    let identical = seq.gflops.to_bits() == par.gflops.to_bits() && seq.ops == par.ops;
    table.exact(
        "memsim.par2_identical",
        f64::from(u8::from(identical)),
        "bool",
    );
    table.check(identical, || {
        "event engine differs between 1 and 2 simulator threads".to_string()
    });
    table.exact("fleet_diurnal.sim_gflops", seq.gflops, "GFLOP/s");
    let outages = Fleet::outages(seed, smoke);
    let out = outages
        .run_variant(0, 1)
        .expect("the outage round simulates");
    let out2 = outages
        .run_variant(0, 2)
        .expect("the outage round simulates");
    table.check(out.gflops.to_bits() == out2.gflops.to_bits(), || {
        "outage run differs between 1 and 2 simulator threads".to_string()
    });
    table.exact("fleet_outages.sim_gflops", out.gflops, "GFLOP/s");

    // The slice engine as agreement oracle, on a fleet it can still step.
    let small = Scale::SMALL;
    let machine = fleet::machine(small);
    let apps = fleet::tenants(small, &mut Rng::stream(seed, 0), true);
    let schedule = [(0.0, ThreadAssignment::from_matrix(fleet::striped(small)))];
    let slice_runs: Vec<(f64, f64)> =
        (0..reps.of(3))
            .map(|_| {
                let (s, result) =
                    timed(|| {
                        Simulation::new(fleet::sim_config(&machine, EngineKind::Slice, 1))
                            .run_dynamic(&apps, &schedule, small.duration_s)
                    });
                (
                    s,
                    result.expect("the slice engine simulates").total_gflops(),
                )
            })
            .collect();
    let (event, _) = fleet::run_diurnal(&machine, &apps, &schedule, small.duration_s, 1)
        .expect("the event engine simulates");
    let slice_gflops = slice_runs[0].1;
    let rel_err = (slice_gflops - event.total_gflops()).abs() / slice_gflops.abs().max(1.0);
    table.timed("memsim.slice_ms.100x8", median_s(&slice_runs) * 1e3, "ms");
    table.exact("memsim.slice_event_rel_err", rel_err, "ratio");
    table.check(rel_err <= 1e-9, || {
        format!("slice and event engines disagree by {rel_err:e} on the 100x8 fleet")
    });

    // The supervised loop with the search off and on, and the quality of
    // the reference `ctl_paper` rounds.
    let paper = CtlPaper::new(seed, smoke);
    let ticks = paper.ticks() as f64;
    for (reoptimize, label) in [(false, "fixed"), (true, "reopt")] {
        let s = per_call_s(reps.of(3), 1, || {
            black_box(
                paper
                    .run(0, reoptimize)
                    .expect("the supervised run succeeds"),
            );
        });
        table.timed(
            &format!("memsim.supervised_tick_us.{label}"),
            s * 1e6 / ticks,
            "us",
        );
    }
    let (mut gflops, mut err, mut alarms) = (0.0, 0.0, 0usize);
    let rounds = reps.of(3) as u64;
    for r in 0..rounds {
        let result = paper.run(r, true).expect("the supervised run succeeds");
        let (bad, quality) = paper.check(&result);
        table.check(bad == 0, || {
            format!("reference ctl_paper round {r}: {bad} bad ticks")
        });
        if let Some(q) = quality {
            gflops += q.sim_gflops;
            err += q.model_err_pct;
            alarms += q.alarms;
            if r == 0 {
                let again = paper.run(0, true).expect("the supervised run succeeds");
                let repeat = paper.check(&again).1.map(|q| q.sim_gflops.to_bits());
                table.check(repeat == Some(q.sim_gflops.to_bits()), || {
                    "ctl_paper round 0 does not repeat bit for bit".to_string()
                });
            }
        }
    }
    table.exact("memsim.alarms", alarms as f64, "count");
    table.exact("ctl_paper.sim_gflops", gflops / rounds as f64, "GFLOP/s");
    table.exact("ctl_paper.model_err_pct", err / rounds as f64, "%");
}

fn telemetry(table: &mut Table, reps: &Reps) {
    const TENANTS: usize = 32;
    let hub = TelemetryHub::new();
    let registry = hub.registry();
    let counter = registry.counter("coopbench_probe_total", &[("probe", "counter")]);
    let s = per_call_s(reps.of(15), 100_000, || counter.inc());
    table.timed("telemetry.counter_inc_ns", s * 1e9, "ns");
    let histogram = registry.histogram("coopbench_probe_us", &[("probe", "histogram")]);
    let mut v = 0u64;
    let s = per_call_s(reps.of(15), 100_000, || {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        histogram.observe(v >> 44);
    });
    table.timed("telemetry.histogram_observe_ns", s * 1e9, "ns");
    let track = hub.register_track("coopbench");
    let s = per_call_s(reps.of(15), 10_000, || {
        hub.record_instant(0, track, 0, "probe", "emit", Vec::new());
    });
    table.timed("telemetry.timeline_emit_ns", s * 1e9, "ns");
    let recorder = FlightRecorder::new(4096);
    let event = TimelineEvent {
        track,
        lane: 0,
        cat: "probe".to_string(),
        name: "push".to_string(),
        ts_us: 1,
        kind: EventKind::Instant,
        args: vec![("runtime".to_string(), ArgValue::Str("app0".to_string()))],
    };
    let s = per_call_s(reps.of(15), 10_000, || recorder.log(&event));
    table.timed("telemetry.recorder_push_ns", s * 1e9, "ns");

    // One accounting window over 32 tenants with advancing counters.
    let ledger = TenantLedger::new();
    let names: Vec<String> = (0..TENANTS).map(|i| format!("tenant{i}")).collect();
    for name in &names {
        ledger.open_epoch(&hub, name, "managed", 0);
        ledger.set_entitlement(name, 1.0 / TENANTS as f64);
    }
    let mut window = 0u64;
    let s = per_call_s(reps.of(15), 20, || {
        window += 1;
        let samples: Vec<TenantSample> = names
            .iter()
            .enumerate()
            .map(|(i, name)| TenantSample {
                tenant: name.clone(),
                tasks_executed: window * (100 + i as u64),
                uptime_us: window * 10_000,
                per_node_tasks: vec![window * (50 + i as u64), window * 50],
                running_per_node: vec![1, 1],
                local_pops: window * 90,
                remote_steals: window * 10,
                ..TenantSample::default()
            })
            .collect();
        ledger.tick(&hub, window * 10_000, &samples);
    });
    table.timed("telemetry.ledger_tick_us.t32", s * 1e6, "us");

    let (scenario, _) = CtlPaper::new(0, true).inputs(0, false);
    let records = 200;
    let s = per_call_s(reps.of(7), 1, || {
        ctl_paper::replay_provenance(&scenario, records)
    });
    table.timed(
        "telemetry.provenance_open_close_us",
        s * 1e6 / records as f64,
        "us",
    );

    // Scrape cost with 32 tenants' worth of series in the registry.
    for name in &names {
        registry
            .counter("coop_tasks_completed_total", &[("runtime", name)])
            .add(7);
        registry
            .histogram("coop_task_latency_us", &[("runtime", name)])
            .observe(42);
        registry
            .gauge("coop_agent_runtime_health", &[("runtime", name)])
            .set(0.0);
    }
    let s = per_call_s(reps.of(15), 5, || {
        black_box(registry.to_prometheus());
    });
    table.timed("telemetry.prom_export_ms.t32", s * 1e3, "ms");
}

fn distsim(table: &mut Table, reps: &Reps, seed: u64) {
    use ::distsim::{simulate, Cluster, Distribution, Workload as DistWorkload};
    let cluster = Cluster::uniform(64, 100.0);
    for (dist, label) in [
        (Distribution::Static, "static"),
        (Distribution::Dynamic, "dynamic"),
    ] {
        let workload = DistWorkload::new(4096, 1.0)
            .iterations(4)
            .distribution(dist)
            .unit_variability(0.2);
        let t = Instant::now();
        let report = simulate(&cluster, &workload, seed);
        table.check(
            report.makespan_s.is_finite() && report.makespan_s > 0.0,
            || format!("distsim {label}: makespan {}", report.makespan_s),
        );
        let first = t.elapsed().as_secs_f64();
        let s = if reps.smoke {
            first
        } else {
            per_call_s(5, 1, || {
                black_box(simulate(&cluster, &workload, seed));
            })
        };
        table.timed(&format!("distsim.simulate_us.{label}"), s * 1e6, "us");
    }
}
