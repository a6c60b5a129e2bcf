//! The heuristic searches on coupled mixes, against the exhaustive
//! optimum: mixes with one or two applications whose data sits on one node
//! or is spread over several, on machines small enough to scan, under the
//! agent's objective and thread floor. Runs on the seeded case runner.
//!
//! `cargo test --release -p coop-alloc --test coupled_search -- --ignored
//! --nocapture` prints the regret table over 500 draws.

use coop_alloc::cases::{check, Gen};
use coop_alloc::search::{
    ExhaustiveSearch, GreedySearch, HillClimb, ModelOracle, Portfolio, SimulatedAnnealing,
};
use coop_alloc::{enumerate, Objective, Scorer};
use numa_topology::{Machine, MachineBuilder, NodeId};
use roofline_numa::{AppSpec, ThreadAssignment};

/// The agent's thread floor and warm climb (`ModelGuided`'s
/// `MIN_THREADS_PER_APP` and `WARM_ITERATIONS`).
const FLOOR: usize = 1;
const WARM_ITERATIONS: usize = 1500;

/// The strategies, in the order [`decide`] returns their assignments.
const STRATEGIES: [&str; 5] = [
    "greedy",
    "greedy + 1 500-step climb",
    "annealing",
    "4-seed annealing",
    "4-seed climb from the fair share",
];

/// A coupled mix whose full space is at most 20 000 assignments and whose
/// floor every application can meet: 2–4 nodes of 1–4 cores, each node its
/// own bandwidth; 2–4 applications, the first one or two with their data
/// on one node or spread over all nodes, the rest NUMA-local.
fn coupled_case(g: &mut Gen) -> (Machine, Vec<AppSpec>) {
    loop {
        let nodes = g.range(2..5usize);
        let machine = (0..nodes)
            .fold(MachineBuilder::new(), |b, _| {
                b.add_node(g.range(1..5usize), g.range(4.0..64.0), 16.0)
            })
            .core_peak_gflops(g.range(1.0..16.0))
            .uniform_link_gbs(10.0)
            .build()
            .unwrap();
        let (count, coupled) = (g.range(2..5usize), g.range(1..3usize));
        let apps: Vec<AppSpec> = (0..count)
            .map(|i| {
                let (name, ai) = (format!("a{i}"), g.range(0.02..32.0));
                if i >= coupled {
                    AppSpec::numa_local(&name, ai)
                } else if g.bool(0.5) {
                    AppSpec::numa_bad(&name, ai, NodeId(g.range(0..nodes)))
                } else {
                    let weights: Vec<f64> = (0..nodes).map(|_| g.range(0.05..1.0)).collect();
                    let sum: f64 = weights.iter().sum();
                    AppSpec::spread(&name, ai, weights.iter().map(|w| w / sum).collect())
                }
            })
            .collect();
        if count <= machine.total_cores() && enumerate::count_assignments(&machine, count) <= 20_000
        {
            return (machine, apps);
        }
    }
}

fn oracle<'a>(m: &'a Machine, apps: &'a [AppSpec]) -> ModelOracle<'a> {
    ModelOracle::new(m, apps, &Objective::TotalGflops)
        .unwrap()
        .with_min_threads(FLOOR)
}

/// Each strategy's assignment for the mix, in [`STRATEGIES`] order.
fn decide(m: &Machine, apps: &[AppSpec]) -> [ThreadAssignment; 5] {
    let objective = Objective::TotalGflops;
    let portfolio = Portfolio::new()
        .with_seeds((0..4).collect())
        .with_min_threads(FLOOR);
    let greedy = GreedySearch::new()
        .run_model(m, &mut oracle(m, apps))
        .unwrap()
        .assignment;
    let climbed = HillClimb::new()
        .with_iterations(WARM_ITERATIONS)
        .with_start(greedy.clone())
        .run_model(m, &mut oracle(m, apps))
        .unwrap();
    let annealed = SimulatedAnnealing::new()
        .run_with(m, apps.len(), &mut oracle(m, apps))
        .unwrap();
    let annealed4 = SimulatedAnnealing::new()
        .run_portfolio(m, apps, &objective, &portfolio, None)
        .unwrap();
    let climbed4 = HillClimb::new()
        .run_portfolio(m, apps, &objective, &portfolio, None)
        .unwrap();
    [
        greedy,
        climbed.assignment,
        annealed.assignment,
        annealed4.assignment,
        climbed4.assignment,
    ]
}

/// Each strategy's regret against `ExhaustiveSearch::full_space`'s optimum,
/// relative to it, after checking that its assignment fits the machine and
/// does not score above the optimum.
fn regrets(m: &Machine, apps: &[AppSpec]) -> [f64; 5] {
    let best = ExhaustiveSearch::new()
        .full_space()
        .run_with(m, apps.len(), || Ok(oracle(m, apps)))
        .unwrap();
    let mut scorer = oracle(m, apps);
    let mut regret = [0.0; 5];
    for ((found, regret), name) in decide(m, apps).iter().zip(&mut regret).zip(STRATEGIES) {
        assert!(found.validate(m).is_ok(), "{name}: {found:?} does not fit");
        let score = scorer.score(found).unwrap();
        assert!(
            score <= best.score + 1e-9 * best.score.abs(),
            "{name}: {score} above the optimum {} ({found:?} vs {:?})",
            best.score,
            best.assignment
        );
        *regret = ((best.score - score) / best.score).max(0.0);
    }
    regret
}

/// Every strategy returns an assignment that fits the machine and never
/// scores above the exhaustive optimum.
#[test]
fn every_strategy_fits_and_stays_at_or_below_the_optimum() {
    check(25, 64, |g| {
        let (m, apps) = coupled_case(g);
        regrets(&m, &apps);
    });
}

/// The regret table: per strategy, the mean regret and how many of 500
/// draws it decides at the optimum (within 1e-9); then how often annealing
/// does better or worse than greedy + climb, and every draw that some
/// strategy misses by more than 10 %.
#[test]
#[ignore = "prints the regret table; run in release"]
fn regret_table_over_500_draws() {
    let draws = std::sync::Mutex::new(Vec::new());
    check(2505, 500, |g| {
        let (m, apps) = coupled_case(g);
        let regret = regrets(&m, &apps);
        draws.lock().unwrap().push((m, apps, regret));
    });
    let draws = draws.into_inner().unwrap();
    println!(
        "| strategy | mean regret | draws at the optimum (of {}) |",
        draws.len()
    );
    println!("|---|---|---|");
    for (s, name) in STRATEGIES.iter().enumerate() {
        let mean = draws.iter().map(|d| d.2[s]).sum::<f64>() / draws.len() as f64;
        let exact = draws.iter().filter(|d| d.2[s] <= 1e-9).count();
        println!("| {name} | {:.2} % | {exact} |", 100.0 * mean);
    }
    let beats = |a: usize, b: usize| draws.iter().filter(|d| d.2[a] + 1e-9 < d.2[b]).count();
    println!(
        "annealing beats greedy + climb on {} draws and loses on {}",
        beats(2, 1),
        beats(1, 2)
    );
    for (m, apps, regret) in draws.iter().filter(|d| d.2.iter().any(|&r| r > 0.1)) {
        let cores: Vec<usize> = m.node_ids().map(|n| m.node(n).num_cores()).collect();
        let placements: Vec<_> = apps.iter().map(|a| &a.placement).collect();
        println!("cores {cores:?}, placements {placements:?}, regret {regret:.3?}");
    }
}
