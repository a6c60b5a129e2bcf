//! A-search: the allocation-search ablation from DESIGN.md — exhaustive
//! vs greedy vs hill-climbing on the paper's machine, now with the
//! parallel/memoized machinery of docs/performance.md. Everything is timed
//! with `Instant`, median of N: per-strategy cost, the parallel fan-out and
//! the delta+cache oracle against their sequential/full-solve baselines.
//! The figures go to `BENCH_alloc_search.json` (override the path via the
//! `BENCH_ALLOC_SEARCH_JSON` environment variable), also under
//! `cargo bench -- --test`, with shrunk problem sizes, so CI can archive it
//! from a smoke run.

use coop_alloc::{search, Objective, ScoreCache};
use coop_bench::report::{time_median, write_bench_json};
use coop_telemetry::json::Value;
use coop_telemetry::json_object;
use coop_workloads::apps::model_mix;
use numa_topology::presets::paper_model_machine;
use numa_topology::Machine;
use roofline_numa::AppSpec;
use std::sync::Arc;

/// Twelve apps spanning memory-bound to compute-bound: the uniform space
/// on the paper machine is C(8+12, 12) = 125 970 candidates, big enough
/// that each exhaustive worker gets real chunks to chew on.
fn wide_mix() -> Vec<AppSpec> {
    let mut apps = model_mix();
    for (i, ai) in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        .into_iter()
        .enumerate()
    {
        apps.push(AppSpec::numa_local(&format!("x{i}"), ai));
    }
    apps
}

/// Median wall time per strategy on the paper machine and mix, plus the
/// quality each one reaches.
fn strategy_report(machine: &Machine, apps: &[AppSpec], smoke: bool) -> Value {
    let objective = Objective::TotalGflops;
    let samples = if smoke { 3 } else { 20 };
    let mut rows = Vec::new();
    let mut time = |name: &str, run: &mut dyn FnMut() -> search::SearchResult| {
        let (seconds, result) = time_median(samples, run);
        println!(
            "{name:<32} {:>10.3} ms  {:>7.1} GFLOPS  {:>7} evaluations",
            seconds * 1e3,
            result.score,
            result.evaluations
        );
        rows.push(json_object! {
            "strategy": name,
            "median_ms": seconds * 1e3,
            "gflops": result.score,
            "evaluations": result.evaluations,
        });
    };
    time("exhaustive_uniform", &mut || {
        search::ExhaustiveSearch::new()
            .run(machine, apps, &objective)
            .expect("exhaustive search")
    });
    if !smoke {
        let wide = wide_mix();
        for threads in [2usize, 8] {
            time(&format!("exhaustive_wide_{threads}t"), &mut || {
                search::ExhaustiveSearch::new()
                    .with_threads(threads)
                    .run(machine, &wide, &objective)
                    .expect("wide exhaustive search")
            });
        }
    }
    time("greedy", &mut || {
        search::GreedySearch::new()
            .run(machine, apps, &objective)
            .expect("greedy search")
    });
    time("hill_climb_1000", &mut || {
        search::HillClimb::new()
            .with_iterations(1000)
            .run(machine, apps, &objective)
            .expect("hill climb")
    });
    // The pre-delta baseline: every proposal pays a full solve through
    // a closure scorer.
    time("hill_climb_1000_legacy_oracle", &mut || {
        let mut oracle =
            |a: &roofline_numa::ThreadAssignment| coop_alloc::score(machine, apps, a, &objective);
        search::HillClimb::new()
            .with_iterations(1000)
            .run_with(machine, apps.len(), &mut oracle)
            .expect("legacy-oracle hill climb")
    });
    Value::Array(rows)
}

/// Times the parallel exhaustive fan-out against the sequential scan of
/// the same candidate space and checks bit-identical results across
/// thread counts; also times a warm-cache rescan.
fn exhaustive_report(machine: &Machine, smoke: bool) -> Value {
    let apps = wide_mix();
    let objective = Objective::TotalGflops;
    let repeats = if smoke { 1 } else { 3 };
    let run = |threads: usize| {
        search::ExhaustiveSearch::new()
            .with_threads(threads)
            .run(machine, &apps, &objective)
            .expect("exhaustive search over the wide mix")
    };
    let (seq_s, seq) = time_median(repeats, || run(1));
    let (par2_s, par2) = time_median(repeats, || run(2));
    let (par8_s, par8) = time_median(repeats, || run(8));
    let deterministic = seq.score == par2.score
        && seq.score == par8.score
        && seq.assignment == par2.assignment
        && seq.assignment == par8.assignment;
    assert!(
        deterministic,
        "parallel exhaustive must be bit-identical to sequential"
    );
    // A warm shared cache turns the rescan into pure lookups.
    let fingerprint = search::ModelOracle::new(machine, &apps, &objective)
        .expect("model oracle")
        .fingerprint();
    let cache = Arc::new(ScoreCache::new(fingerprint));
    let rescan = |threads: usize| {
        search::ExhaustiveSearch::new()
            .with_threads(threads)
            .run_with(machine, apps.len(), || {
                search::ModelOracle::new(machine, &apps, &objective)?.with_cache(Arc::clone(&cache))
            })
            .expect("cached exhaustive search")
    };
    let (_, cold) = time_median(1, || rescan(1));
    let (cached_s, warm) = time_median(repeats, || rescan(1));
    assert_eq!(cold.assignment, warm.assignment);
    json_object! {
        "candidates": seq.evaluations,
        "seq_ms": seq_s * 1e3,
        "par2_ms": par2_s * 1e3,
        "par8_ms": par8_s * 1e3,
        "cached_rescan_ms": cached_s * 1e3,
        "speedup_2_threads": seq_s / par2_s,
        "speedup_8_threads": seq_s / par8_s,
        "speedup_cached_rescan": seq_s / cached_s,
        "cache_hits_on_rescan": warm.counters.cache_hits,
        "deterministic_across_thread_counts": deterministic,
        "best_gflops": seq.score,
    }
}

/// Measures the full-solve reduction that the delta+cache oracle buys a
/// local search against a closure scorer (one full solve per proposal).
fn local_search_report(
    machine: &Machine,
    apps: &[AppSpec],
    iterations: usize,
    anneal: bool,
) -> Value {
    let objective = Objective::TotalGflops;
    let legacy = {
        let mut oracle =
            |a: &roofline_numa::ThreadAssignment| coop_alloc::score(machine, apps, a, &objective);
        if anneal {
            search::SimulatedAnnealing::new()
                .with_iterations(iterations)
                .with_seed(7)
                .run_with(machine, apps.len(), &mut oracle)
        } else {
            search::HillClimb::new()
                .with_iterations(iterations)
                .with_seed(7)
                .run_with(machine, apps.len(), &mut oracle)
        }
        .expect("legacy-oracle local search")
    };
    let (model_s, model) = time_median(1, || {
        let base = search::ModelOracle::new(machine, apps, &objective).expect("model oracle");
        let cache = Arc::new(ScoreCache::new(base.fingerprint()));
        let mut oracle = base
            .with_cache(cache)
            .expect("a freshly keyed cache always matches its oracle");
        if anneal {
            search::SimulatedAnnealing::new()
                .with_iterations(iterations)
                .with_seed(7)
                .run_with(machine, apps.len(), &mut oracle)
        } else {
            search::HillClimb::new()
                .with_iterations(iterations)
                .with_seed(7)
                .run_model(machine, &mut oracle)
        }
        .expect("model-oracle local search")
    });
    // The legacy path answers every evaluation with a full solve; the
    // model oracle answers them with deltas and cache hits.
    let baseline_full = legacy.evaluations as u64;
    let reduction = baseline_full as f64 / model.counters.full_solves.max(1) as f64;
    json_object! {
        "iterations": iterations,
        "seconds": model_s,
        "baseline_full_solves": baseline_full,
        "full_solves": model.counters.full_solves,
        "delta_solves": model.counters.delta_solves,
        "cache_hits": model.counters.cache_hits,
        "full_solve_reduction": reduction,
        "legacy_gflops": legacy.score,
        "model_gflops": model.score,
    }
}

/// Races a multi-seed portfolio across threads as a cost/quality anchor.
fn portfolio_report(machine: &Machine, apps: &[AppSpec], iterations: usize) -> Value {
    let objective = Objective::TotalGflops;
    let portfolio = search::Portfolio::new()
        .with_seeds((0..8u64).collect())
        .with_threads(8);
    let cache = Arc::new(ScoreCache::new(
        search::ModelOracle::new(machine, apps, &objective)
            .expect("model oracle")
            .fingerprint(),
    ));
    let (secs, result) = time_median(1, || {
        search::HillClimb::new()
            .with_iterations(iterations)
            .run_portfolio(machine, apps, &objective, &portfolio, Some(&cache))
            .expect("portfolio hill climb")
    });
    let stats = cache.stats();
    json_object! {
        "seeds": 8,
        "threads": 8,
        "iterations_per_seed": iterations,
        "seconds": secs,
        "best_gflops": result.score,
        "evaluations": result.evaluations,
        "cache_hits": stats.hits,
        "cache_inserts": stats.inserts,
    }
}

fn write_report(smoke: bool) {
    let machine = paper_model_machine();
    let apps = model_mix();
    let iterations = if smoke { 300 } else { 3000 };
    let report = json_object! {
        "bench": "alloc_search",
        "smoke": smoke,
        "strategies": strategy_report(&machine, &apps, smoke),
        "exhaustive": exhaustive_report(&machine, smoke),
        "hill_climb": local_search_report(&machine, &apps, iterations, false),
        "annealing": local_search_report(&machine, &apps, iterations, true),
        "portfolio": portfolio_report(&machine, &apps, iterations),
    };
    write_bench_json("BENCH_ALLOC_SEARCH_JSON", "BENCH_alloc_search.json", report);
}

fn main() {
    write_report(std::env::args().any(|a| a == "--test"));
}
