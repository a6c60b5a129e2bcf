//! Scheduler throughput: the work-stealing scheduler (per-worker deques,
//! event-counted parking, sharded task graph) on three graph shapes. The
//! shared-injector scheduler it was once measured against is gone; its
//! final A/B is the "Shared injector: final A/B" table in
//! docs/performance.md.
//!
//! Three graph shapes stress different scheduler paths:
//!
//! * **fan-out/fan-in** — rounds of `W` independent tasks joined by a
//!   latch; contention on the ready queues.
//! * **chain** — a linear dependency chain; pure wakeup latency, one
//!   ready task at a time.
//! * **random DAG** — tasks depending on up to two of the last 64 finish
//!   events (seeded); mixed subscription/fast-path traffic on
//!   the sharded graph.
//!
//! Each shape runs on 1, 4 and 16 workers, each cell on a fresh runtime,
//! timed with `Instant`; the median tasks/sec of the repeats goes to
//! `BENCH_runtime_sched.json` (override the path via the
//! `BENCH_RUNTIME_SCHED_JSON` environment variable). The JSON is also
//! produced under `cargo bench -- --test` with shrunk sizes so CI can
//! archive it from a smoke run.
//!
//! A second sweep is the **tracing overhead gate**: the fan-out shape
//! (densest per-task event traffic) under three telemetry modes — no hub
//! at all, hub attached with per-task tracing off (the production
//! default, byte-identical to the pre-tracing hub configuration), and
//! hub attached with causal tracing on. Tracing is a runtime flag
//! checked once per instrumentation site, so `tracing_off_tasks_per_sec`
//! must track the archived value from earlier runs — the cost of the
//! tracing feature when disabled is the flag check and nothing else; all
//! per-hop event recording shows up only in the `tracing_on` column.

use coop_alloc::rng::StdRng;
use coop_bench::report::{median, write_bench_json};
use coop_runtime::{Runtime, RuntimeConfig, TelemetryHub};
use coop_telemetry::json::Value;
use coop_telemetry::json_object;
use numa_topology::{Machine, MachineBuilder};
use std::sync::Arc;
use std::time::Instant;

fn machine(nodes: usize, cores_per_node: usize) -> Machine {
    MachineBuilder::new()
        .symmetric_nodes(nodes, cores_per_node)
        .core_peak_gflops(1.0)
        .node_bandwidth_gbs(10.0)
        .uniform_link_gbs(5.0)
        .build()
        .expect("symmetric bench machine")
}

/// The three machine sizes of the sweep: (label, machine). Worker count
/// equals total cores.
fn sweep_machines() -> Vec<(&'static str, Machine)> {
    vec![
        ("1", machine(1, 1)),
        ("4", machine(2, 2)),
        ("16", machine(2, 8)),
    ]
}

/// Telemetry attachment modes for the tracing overhead gate.
#[derive(Clone, Copy)]
enum Tracing {
    /// No telemetry hub at all — the historical baseline column.
    Baseline,
    /// Hub attached, per-task tracing off: the production default.
    Off,
    /// Hub attached with causal task tracing enabled.
    On,
}

impl Tracing {
    fn label(self) -> &'static str {
        match self {
            Tracing::Baseline => "baseline",
            Tracing::Off => "tracing_off",
            Tracing::On => "tracing_on",
        }
    }

    fn configure(self, cfg: RuntimeConfig) -> RuntimeConfig {
        match self {
            Tracing::Baseline => cfg,
            Tracing::Off => cfg.with_telemetry(Arc::new(TelemetryHub::new())),
            Tracing::On => cfg
                .with_telemetry(Arc::new(TelemetryHub::new()))
                .with_task_tracing(),
        }
    }
}

/// Rounds of `width` no-op tasks, each round gated on the previous
/// round's latch. Returns the task count.
fn run_fanout(rt: &Runtime, rounds: usize, width: usize) -> u64 {
    let mut gate: Option<coop_runtime::Event> = None;
    for r in 0..rounds {
        let joined = rt.new_latch_event(width as u64);
        for i in 0..width {
            let mut b = rt.task(&format!("f{r}-{i}")).body({
                let joined = joined.clone();
                move |ctx| ctx.satisfy(&joined)
            });
            if let Some(g) = &gate {
                b = b.depends_on(g);
            }
            b.spawn().expect("spawn fan-out task");
        }
        gate = Some(joined);
    }
    rt.wait_quiescent().expect("fan-out drains");
    (rounds * width) as u64
}

/// A linear chain of `len` tasks linked by finish events.
fn run_chain(rt: &Runtime, len: usize) -> u64 {
    let mut prev: Option<coop_runtime::Event> = None;
    for i in 0..len {
        let mut b = rt.task(&format!("c{i}")).body(|_| {});
        if let Some(p) = &prev {
            b = b.depends_on(p);
        }
        let (_, finish) = b.spawn_with_finish().expect("spawn chain task");
        prev = Some(finish);
    }
    rt.wait_quiescent().expect("chain drains");
    len as u64
}

/// `count` tasks, each depending on up to two of the last 64 finish
/// events, with occasional affinity hints and high priorities.
fn run_random_dag(rt: &Runtime, count: usize, nodes: usize) -> u64 {
    const RING: usize = 64;
    let mut rng = StdRng::seed_from_u64(0x0da6_0da6_0da6_0da6);
    let mut recent: Vec<coop_runtime::Event> = Vec::with_capacity(RING);
    for i in 0..count {
        let r = rng.next_u64() >> 11;
        let mut b = rt.task(&format!("d{i}")).body(|_| {});
        if r.is_multiple_of(3) {
            b = b.affinity(numa_topology::NodeId((r as usize >> 3) % nodes));
        }
        if r.is_multiple_of(13) {
            b = b.high_priority();
        }
        for pick in 0..(r % 3) {
            if !recent.is_empty() {
                let idx = ((r >> (8 + 8 * pick)) as usize) % recent.len();
                b = b.depends_on(&recent[idx]);
            }
        }
        let (_, finish) = b.spawn_with_finish().expect("spawn dag task");
        if recent.len() < RING {
            recent.push(finish);
        } else {
            recent[i % RING] = finish;
        }
    }
    rt.wait_quiescent().expect("dag drains");
    count as u64
}

/// Wall-clocks one workload (spawn + drain) on a fresh runtime built by
/// `config(repeat)`; the median tasks/sec of `repeats` runs.
fn measure(
    repeats: usize,
    config: impl Fn(usize) -> RuntimeConfig,
    run: impl Fn(&Runtime) -> u64,
) -> f64 {
    let mut rates: Vec<f64> = (0..repeats.max(1))
        .map(|rep| {
            let rt = Runtime::start(config(rep)).expect("runtime starts");
            let t0 = Instant::now();
            let tasks = run(&rt);
            let rate = tasks as f64 / t0.elapsed().as_secs_f64();
            rt.shutdown();
            rate
        })
        .collect();
    median(&mut rates)
}

/// The tracing overhead gate: fan-out/fan-in (densest per-task event
/// traffic) on the work-stealing scheduler under the three telemetry
/// modes. The column that matters is `tracing_off_tasks_per_sec`: hub
/// attached, tracing off is byte-identical to the pre-tracing hub
/// configuration, so it must hold steady across archived runs. The
/// overhead-pct columns attribute the remaining deltas: off-vs-baseline
/// is the hub's own (pre-existing) per-task accounting, on-vs-baseline
/// is what causal tracing actually buys into.
fn tracing_overhead_report(smoke: bool) -> Value {
    let (rounds, width, repeats) = if smoke { (10, 50, 1) } else { (50, 400, 3) };
    let mut cells = Vec::new();
    for (workers, m) in sweep_machines() {
        let rate = |mode: Tracing| {
            measure(
                repeats,
                |rep| {
                    let name = format!("trace-{}-{workers}w-{rep}", mode.label());
                    mode.configure(RuntimeConfig::new(&name, m.clone()))
                },
                |rt| run_fanout(rt, rounds, width),
            )
        };
        let baseline = rate(Tracing::Baseline);
        let off = rate(Tracing::Off);
        let on = rate(Tracing::On);
        let off_overhead_pct = (baseline / off.max(1e-9) - 1.0) * 100.0;
        let on_overhead_pct = (baseline / on.max(1e-9) - 1.0) * 100.0;
        println!(
            "  tracing gate @ {workers:>2} workers: baseline {baseline:>12.0} t/s, \
             off {off:>12.0} t/s ({off_overhead_pct:+.1}%), \
             on {on:>12.0} t/s ({on_overhead_pct:+.1}%)"
        );
        cells.push(json_object! {
            "workers": workers.parse::<u64>().expect("numeric label"),
            "baseline_tasks_per_sec": baseline,
            "tracing_off_tasks_per_sec": off,
            "tracing_on_tasks_per_sec": on,
            "tracing_off_overhead_pct": off_overhead_pct,
            "tracing_on_overhead_pct": on_overhead_pct,
        });
    }
    json_object! {
        "shape": "fanout_fanin",
        "scheduler": "work_stealing",
        "workloads": json_object! {"rounds": rounds, "width": width},
        "cells": cells,
    }
}

/// The fuel-budget overhead gate: fan-out/fan-in on the work-stealing
/// scheduler with budgets disabled (no fuel accounting anywhere on the
/// hot path) against every task carrying a 128-unit budget. Fuel is
/// decremented only at safe points (spawn and yield checkpoints), so the
/// `budget_overhead_pct` column is the whole price of the preemption
/// machinery for compliant tenants — the acceptance gate keeps it under
/// a couple of percent.
fn budget_overhead_report(smoke: bool) -> Value {
    let (rounds, width, repeats) = if smoke { (10, 50, 1) } else { (50, 400, 3) };
    let mut cells = Vec::new();
    for (workers, m) in sweep_machines() {
        let rate = |fuel: Option<u64>| {
            measure(
                repeats,
                |rep| {
                    let cfg = RuntimeConfig::new(&format!("budget-{workers}w-{rep}"), m.clone());
                    match fuel {
                        Some(units) => cfg.with_task_fuel(units),
                        None => cfg,
                    }
                },
                |rt| run_fanout(rt, rounds, width),
            )
        };
        let off = rate(None);
        let on = rate(Some(128));
        let budget_overhead_pct = (off / on.max(1e-9) - 1.0) * 100.0;
        println!(
            "   budget gate @ {workers:>2} workers: off {off:>12.0} t/s, \
             on {on:>12.0} t/s ({budget_overhead_pct:+.1}%)"
        );
        cells.push(json_object! {
            "workers": workers.parse::<u64>().expect("numeric label"),
            "budgets_off_tasks_per_sec": off,
            "budgets_on_tasks_per_sec": on,
            "budget_overhead_pct": budget_overhead_pct,
        });
    }
    json_object! {
        "shape": "fanout_fanin",
        "scheduler": "work_stealing",
        "task_fuel": 128,
        "workloads": json_object! {"rounds": rounds, "width": width},
        "cells": cells,
    }
}

fn scheduler_report(smoke: bool) -> Value {
    let (rounds, width, chain_len, dag_tasks, repeats) = if smoke {
        (10, 50, 500, 2_000, 1)
    } else {
        (50, 400, 4_000, 40_000, 3)
    };
    let mut cells = Vec::new();
    for (workers, m) in sweep_machines() {
        let nodes = m.num_nodes();
        type Shape = Box<dyn Fn(&Runtime) -> u64>;
        let shapes: Vec<(&str, Shape)> = vec![
            (
                "fanout_fanin",
                Box::new(move |rt: &Runtime| run_fanout(rt, rounds, width)),
            ),
            (
                "chain",
                Box::new(move |rt: &Runtime| run_chain(rt, chain_len)),
            ),
            (
                "random_dag",
                Box::new(move |rt: &Runtime| run_random_dag(rt, dag_tasks, nodes)),
            ),
        ];
        for (shape, run) in shapes {
            let rate = measure(
                repeats,
                |rep| RuntimeConfig::new(&format!("ws-{shape}-{workers}w-{rep}"), m.clone()),
                &run,
            );
            println!("{shape:>13} @ {workers:>2} workers: {rate:>12.0} t/s");
            cells.push(json_object! {
                "shape": shape,
                "workers": workers.parse::<u64>().expect("numeric label"),
                "work_stealing_tasks_per_sec": rate,
            });
        }
    }
    json_object! {
        "bench": "runtime_sched",
        "smoke": smoke,
        "workloads": json_object! {
            "fanout_fanin": json_object! {"rounds": rounds, "width": width},
            "chain": json_object! {"len": chain_len},
            "random_dag": json_object! {"tasks": dag_tasks},
        },
        "cells": cells,
        "tracing": tracing_overhead_report(smoke),
        "budget": budget_overhead_report(smoke),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    write_bench_json(
        "BENCH_RUNTIME_SCHED_JSON",
        "BENCH_runtime_sched.json",
        scheduler_report(smoke),
    );
}
