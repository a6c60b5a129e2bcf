//! Fleet bench: the slice-vs-event scenario sweep (tenant churn, diurnal
//! load, correlated outages at fleet scales), writing `BENCH_fleet.json`
//! (override the path via the `BENCH_FLEET_JSON` environment variable).
//! Restrict the sweep with `FLEET_SCALES` (e.g. `100x8,1000x64`) and
//! `FLEET_SCENARIOS` (e.g. `churn,outages`). Under `--test` (the CI smoke
//! run) the 5k×256 cell is skipped and each cell runs once instead of
//! best-of-2.
//!
//! `--sim-threads N` caps which parallel event-engine columns are measured
//! (the sweep tries 2 and 8 worker shards). The default cap is the host's
//! available parallelism: on a 2-core runner the 8-shard column is skipped
//! — and printed as skipped, so a thin report is never mistaken for a
//! complete one.

use coop_bench::experiments::fleet;
use coop_bench::report::write_bench_json;
use coop_telemetry::json_object;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--test");
    let repeats = if smoke { 1 } else { 2 };
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sim_threads_cap = args
        .iter()
        .position(|a| a == "--sim-threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(host_parallelism);
    let scales = fleet::scales_from_env(smoke);
    let scenarios = fleet::scenarios_from_env();

    let skipped: Vec<usize> = fleet::PAR_THREADS
        .into_iter()
        .filter(|&t| t > sim_threads_cap)
        .collect();
    if !skipped.is_empty() {
        println!(
            "parallel columns skipped at shard counts {skipped:?} \
             (cap {sim_threads_cap}, host parallelism {host_parallelism})"
        );
    }

    let mut cells = Vec::new();
    for scenario in &scenarios {
        for scale in &scales {
            let cell = fleet::run_cell(*scenario, scale, repeats, sim_threads_cap);
            let par = |ms: Option<f64>, speedup: Option<f64>| match (ms, speedup) {
                (Some(ms), Some(s)) => format!("{ms:>8.2} ms ({s:>4.2}x)"),
                _ => "skipped".to_string(),
            };
            println!(
                "{:<8} {:>5} runtimes x {:>3} nodes over {:>3.1}s: \
                 slice {:>9.2} ms, event {:>8.2} ms, speedup {:>7.1}x, \
                 par2 {}, par8 {}, \
                 {:>6} events ({:>5} segments), gflops rel err {:.2e}",
                cell.scenario,
                cell.runtimes,
                cell.nodes,
                cell.duration_s,
                cell.slice_ms,
                cell.event_ms,
                cell.speedup,
                par(cell.par2_ms, cell.par2_speedup),
                par(cell.par8_ms, cell.par8_speedup),
                cell.events,
                cell.segments,
                cell.gflops_rel_err,
            );
            cells.push(cell);
        }
    }

    let report = json_object! {
        "bench": "fleet",
        "smoke": smoke,
        "quantum_s": 1e-3,
        "sim_threads_cap": sim_threads_cap,
        "skipped_par_threads": skipped,
        "cells": cells,
    };
    write_bench_json("BENCH_FLEET_JSON", "BENCH_fleet.json", report);
}
