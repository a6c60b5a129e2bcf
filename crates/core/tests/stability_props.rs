//! Property tests for the stability planner and switching cost, on the
//! seeded case runner.

use coop_alloc::cases::{check, Gen};
use coop_alloc::{switching_cost, Objective, ReallocPlanner, ThreadAssignment};
use numa_topology::MachineBuilder;
use roofline_numa::AppSpec;

const CASES: usize = 48;

fn machine(nodes: usize, cores: usize) -> numa_topology::Machine {
    MachineBuilder::new()
        .symmetric_nodes(nodes, cores)
        .core_peak_gflops(10.0)
        .node_bandwidth_gbs(32.0)
        .uniform_link_gbs(8.0)
        .build()
        .unwrap()
}

fn arb_assignment(g: &mut Gen, nodes: usize, cores: usize, apps: usize) -> Vec<Vec<usize>> {
    let mut m: Vec<Vec<usize>> = (0..apps)
        .map(|_| (0..nodes).map(|_| g.range(0..=cores)).collect())
        .collect();
    // Clamp per-node totals to capacity.
    for node in 0..nodes {
        loop {
            let total: usize = m.iter().map(|r| r[node]).sum();
            if total <= cores {
                break;
            }
            let idx = (0..m.len()).max_by_key(|&a| m[a][node]).unwrap();
            m[idx][node] -= 1;
        }
    }
    m
}

/// Switching cost is a quasi-metric: zero iff equal shape+counts,
/// symmetric for equal-total assignments, and satisfies the triangle
/// inequality.
#[test]
fn switching_cost_is_sane() {
    check(1, CASES, |g| {
        let a = arb_assignment(g, 3, 4, 2);
        let b = arb_assignment(g, 3, 4, 2);
        let c = arb_assignment(g, 3, 4, 2);
        let ta = ThreadAssignment::from_matrix(a);
        let tb = ThreadAssignment::from_matrix(b);
        let tc = ThreadAssignment::from_matrix(c);
        assert_eq!(switching_cost(&ta, &ta), 0);
        // Triangle inequality: going a->c directly never costs more than
        // a->b->c (arrivals compose).
        assert!(
            switching_cost(&ta, &tc) <= switching_cost(&ta, &tb) + switching_cost(&tb, &tc),
            "triangle violated"
        );
        // Cost counts arrivals only: bounded by the target's total.
        assert!(switching_cost(&ta, &tb) <= tb.total());
    });
}

/// The planner never proposes a raw-objective regression, and its
/// penalized gain is always non-negative (staying put is a candidate).
#[test]
fn planner_never_regresses() {
    check(2, CASES, |g| {
        let start = arb_assignment(g, 2, 4, 2);
        let (ai1, ai2) = (g.range(0.05..16.0), g.range(0.05..16.0));
        let penalty = g.range(0.0..5.0);
        let m = machine(2, 4);
        let apps = vec![AppSpec::numa_local("a", ai1), AppSpec::numa_local("b", ai2)];
        let current = ThreadAssignment::from_matrix(start);
        assert!(
            current.validate(&m).is_ok(),
            "arb_assignment clamps to capacity"
        );
        let plan = ReallocPlanner::new(Objective::TotalGflops, penalty)
            .plan(&m, &apps, &current)
            .unwrap();
        assert!(
            plan.objective_value >= plan.current_value - 1e-9,
            "raw objective regressed: {} -> {}",
            plan.current_value,
            plan.objective_value
        );
        // Penalized improvement is what the planner maximized; the chosen
        // plan must beat (or tie) staying put under the penalty.
        let penalized_gain = plan.gain() - penalty * plan.moved_threads as f64;
        assert!(penalized_gain >= -1e-9, "penalized gain {penalized_gain}");
        assert!(plan.assignment.validate(&m).is_ok());
    });
}
