//! Quickstart: model a NUMA machine, describe cooperating applications,
//! score allocation strategies with the paper's model, and let the search
//! find a better one.
//!
//! Run with: `cargo run --example quickstart`

use numa_coop::alloc::search::{ExhaustiveSearch, GreedySearch, ModelOracle};
use numa_coop::prelude::*;
use numa_coop::topology::presets::paper_model_machine;

fn main() {
    // The machine from the paper's worked examples: 4 NUMA nodes x 8
    // cores, 10 GFLOPS per core, 32 GB/s of memory bandwidth per node.
    let machine = paper_model_machine();
    println!(
        "machine: {} ({} nodes x {} cores, {:.0} GFLOPS peak)\n",
        machine.name(),
        machine.num_nodes(),
        machine.node(NodeId(0)).num_cores(),
        machine.peak_machine_gflops()
    );

    // Four cooperating applications: three memory-bound (AI = 0.5 FLOP per
    // byte), one compute-bound (AI = 10).
    let apps = vec![
        AppSpec::numa_local("mem1", 0.5),
        AppSpec::numa_local("mem2", 0.5),
        AppSpec::numa_local("mem3", 0.5),
        AppSpec::numa_local("comp", 10.0),
    ];

    // Score the strategies the paper discusses.
    println!("{:<28} {:>12}", "allocation", "GFLOPS");
    for (label, assignment) in [
        (
            "uneven (1,1,1,5) [Table I]",
            ThreadAssignment::uniform_per_node(&machine, &[1, 1, 1, 5]),
        ),
        (
            "even (2,2,2,2) [Table II]",
            ThreadAssignment::uniform_per_node(&machine, &[2, 2, 2, 2]),
        ),
        (
            "one node per app [Fig 2c]",
            ThreadAssignment::node_per_app(&machine, 4).unwrap(),
        ),
        ("fair share", strategies::fair_share(&machine, 4).unwrap()),
    ] {
        let report = solve(&machine, &apps, &assignment).unwrap();
        println!("{label:<28} {:>12.1}", report.total_gflops());
    }

    // Ask the searches for the best allocation. Unconstrained, the
    // machine-throughput optimum starves the memory-bound apps entirely;
    // with a keep-everyone-alive floor it recovers the paper's (1,1,1,5).
    let best = ExhaustiveSearch::new()
        .run(&machine, &apps, &Objective::TotalGflops)
        .unwrap();
    println!(
        "\nexhaustive optimum (unconstrained): {:.1} GFLOPS in {} evaluations",
        best.score, best.evaluations
    );

    let mut oracle = ModelOracle::new(&machine, &apps, &Objective::TotalGflops)
        .unwrap()
        .with_min_threads(1);
    let fair_best = GreedySearch::new()
        .run_model(&machine, &mut oracle)
        .unwrap();
    println!(
        "greedy optimum (every app kept alive): {:.1} GFLOPS",
        fair_best.score
    );
    print!("  per-app totals:");
    for (i, app) in apps.iter().enumerate() {
        print!(" {}={}", app.name, fair_best.assignment.app_total(i));
    }
    println!();

    // Per-application breakdown of the chosen allocation.
    let report = solve(&machine, &apps, &fair_best.assignment).unwrap();
    println!(
        "\n{:<8} {:>8} {:>12} {:>12}",
        "app", "threads", "GB/s", "GFLOPS"
    );
    for a in &report.apps {
        println!(
            "{:<8} {:>8} {:>12.1} {:>12.1}",
            a.name, a.threads, a.bandwidth_gbs, a.gflops
        );
    }
}
