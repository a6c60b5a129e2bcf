//! Determinism guarantees of the parallel search machinery: the exhaustive
//! fan-out and the multi-seed portfolio must return bit-identical results
//! at any thread count (see docs/performance.md).

use coop_alloc::{score, search, AllocError, Objective, ScoreCache};
use numa_topology::presets::paper_model_machine;
use numa_topology::MachineBuilder;
use roofline_numa::{AppSpec, ThreadAssignment};
use std::sync::Arc;

fn small_machine() -> numa_topology::Machine {
    MachineBuilder::new()
        .symmetric_nodes(2, 4)
        .core_peak_gflops(10.0)
        .node_bandwidth_gbs(32.0)
        .uniform_link_gbs(10.0)
        .build()
        .unwrap()
}

fn paper_apps() -> Vec<AppSpec> {
    vec![
        AppSpec::numa_local("mem1", 0.5),
        AppSpec::numa_local("mem2", 0.5),
        AppSpec::numa_local("mem3", 0.5),
        AppSpec::numa_local("comp", 10.0),
    ]
}

#[test]
fn parallel_exhaustive_uniform_is_bit_identical_to_sequential() {
    let m = paper_model_machine();
    let apps = paper_apps();
    let objective = Objective::TotalGflops;
    let seq = search::ExhaustiveSearch::new()
        .run(&m, &apps, &objective)
        .unwrap();
    for threads in [2usize, 8] {
        let par = search::ExhaustiveSearch::new()
            .with_threads(threads)
            .run(&m, &apps, &objective)
            .unwrap();
        assert_eq!(
            seq.score.to_bits(),
            par.score.to_bits(),
            "{threads} threads"
        );
        assert_eq!(seq.assignment, par.assignment, "{threads} threads");
        assert_eq!(seq.evaluations, par.evaluations, "{threads} threads");
        assert!(!par.truncated);
    }
}

#[test]
fn parallel_exhaustive_full_space_is_bit_identical_to_sequential() {
    let m = small_machine();
    let apps = vec![AppSpec::numa_local("a", 0.5), AppSpec::numa_local("b", 4.0)];
    let objective = Objective::MinAppGflops;
    let seq = search::ExhaustiveSearch::new()
        .full_space()
        .run(&m, &apps, &objective)
        .unwrap();
    for threads in [2usize, 8] {
        let par = search::ExhaustiveSearch::new()
            .full_space()
            .with_threads(threads)
            .run(&m, &apps, &objective)
            .unwrap();
        assert_eq!(
            seq.score.to_bits(),
            par.score.to_bits(),
            "{threads} threads"
        );
        assert_eq!(seq.assignment, par.assignment, "{threads} threads");
        assert_eq!(seq.evaluations, par.evaluations, "{threads} threads");
    }
}

#[test]
fn equal_scores_break_ties_toward_the_lowest_canonical_assignment() {
    // A constant oracle makes every candidate tie; every thread count must
    // then agree on the first assignment in enumeration order.
    let m = small_machine();
    let constant = || Ok(|_: &ThreadAssignment| -> coop_alloc::Result<f64> { Ok(1.0) });
    let seq = search::ExhaustiveSearch::new()
        .run_with(&m, 2, constant)
        .unwrap();
    for threads in [2usize, 8] {
        let par = search::ExhaustiveSearch::new()
            .with_threads(threads)
            .run_with(&m, 2, constant)
            .unwrap();
        assert_eq!(seq.assignment, par.assignment, "{threads} threads");
    }
    // And that first assignment really is the enumeration head.
    let head = coop_alloc::enumerate::uniform_assignments(&m, 2)
        .next()
        .unwrap();
    assert_eq!(seq.assignment, head);
}

#[test]
fn truncation_is_reported_instead_of_erroring() {
    let m = paper_model_machine();
    let apps = paper_apps();
    let objective = Objective::TotalGflops;
    let strict = search::ExhaustiveSearch::new()
        .with_limit(10)
        .run(&m, &apps, &objective);
    assert!(matches!(
        strict,
        Err(AllocError::SearchSpaceTooLarge { .. })
    ));
    let truncated = search::ExhaustiveSearch::new()
        .with_limit(10)
        .truncating()
        .run(&m, &apps, &objective)
        .unwrap();
    assert!(truncated.truncated);
    assert_eq!(truncated.evaluations, 10);
    // Truncated scans are deterministic across thread counts too.
    for threads in [2usize, 8] {
        let par = search::ExhaustiveSearch::new()
            .with_limit(10)
            .truncating()
            .with_threads(threads)
            .run(&m, &apps, &objective)
            .unwrap();
        assert_eq!(truncated.assignment, par.assignment);
        assert_eq!(truncated.score.to_bits(), par.score.to_bits());
    }
}

#[test]
fn shared_cache_turns_a_repeat_scan_into_pure_hits() {
    let m = small_machine();
    let apps = paper_apps();
    let objective = Objective::TotalGflops;
    let fp = search::ModelOracle::new(&m, &apps, &objective)
        .unwrap()
        .fingerprint();
    let cache = Arc::new(ScoreCache::new(fp));
    let cached = || search::ModelOracle::new(&m, &apps, &objective)?.with_cache(Arc::clone(&cache));
    let first = search::ExhaustiveSearch::new()
        .run_with(&m, apps.len(), cached)
        .unwrap();
    let after_first = cache.stats();
    assert_eq!(after_first.inserts as usize, first.evaluations);
    assert_eq!(after_first.hits, 0);
    let second = search::ExhaustiveSearch::new()
        .with_threads(4)
        .run_with(&m, apps.len(), cached)
        .unwrap();
    let after_second = cache.stats();
    assert_eq!(after_second.inserts, after_first.inserts, "no re-inserts");
    assert_eq!(after_second.hits as usize, second.evaluations);
    assert_eq!(first.assignment, second.assignment);
    assert_eq!(first.score.to_bits(), second.score.to_bits());
    assert_eq!(second.counters.cache_hits as usize, second.evaluations);
}

#[test]
fn portfolio_results_do_not_depend_on_the_thread_count() {
    let m = paper_model_machine();
    let apps = paper_apps();
    let objective = Objective::TotalGflops;
    let seeds: Vec<u64> = (0..6).collect();
    let run = |threads: usize, anneal: bool| {
        let portfolio = search::Portfolio::new()
            .with_seeds(seeds.clone())
            .with_threads(threads);
        if anneal {
            search::SimulatedAnnealing::new()
                .with_iterations(400)
                .run_portfolio(&m, &apps, &objective, &portfolio, None)
        } else {
            search::HillClimb::new()
                .with_iterations(400)
                .run_portfolio(&m, &apps, &objective, &portfolio, None)
        }
        .unwrap()
    };
    for anneal in [false, true] {
        let one = run(1, anneal);
        for threads in [2usize, 8] {
            let par = run(threads, anneal);
            assert_eq!(one.score.to_bits(), par.score.to_bits(), "anneal={anneal}");
            assert_eq!(one.assignment, par.assignment, "anneal={anneal}");
            assert_eq!(one.evaluations, par.evaluations, "anneal={anneal}");
        }
        // The merged winner is never worse than any single seed run alone.
        let single = if anneal {
            search::SimulatedAnnealing::new()
                .with_iterations(400)
                .with_seed(seeds[0])
                .run(&m, &apps, &objective)
                .unwrap()
        } else {
            search::HillClimb::new()
                .with_iterations(400)
                .with_seed(seeds[0])
                .run(&m, &apps, &objective)
                .unwrap()
        };
        assert!(one.score >= single.score - 1e-9, "anneal={anneal}");
    }
}

#[test]
fn parallel_closure_scan_matches_the_sequential_one() {
    let m = small_machine();
    let apps = paper_apps();
    let objective = Objective::TotalGflops;
    let (m, apps, objective) = (&m, &apps, &objective);
    let closure = || Ok(move |a: &ThreadAssignment| score(m, apps, a, objective));
    let seq = search::ExhaustiveSearch::new()
        .run_with(m, apps.len(), closure)
        .unwrap();
    let par = search::ExhaustiveSearch::new()
        .with_threads(8)
        .run_with(m, apps.len(), closure)
        .unwrap();
    assert_eq!(seq.score.to_bits(), par.score.to_bits());
    assert_eq!(seq.assignment, par.assignment);
    assert_eq!(seq.evaluations, par.evaluations);
}
