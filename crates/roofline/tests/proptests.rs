//! Property tests for the bandwidth-arbitration solver, on the seeded case
//! runner.

use coop_alloc::cases::{check, Gen};
use numa_topology::{MachineBuilder, NodeId};
use roofline_numa::{solve, AppSpec, DataPlacement, LocalColumn, ThreadAssignment};

const CASES: usize = 256;

#[derive(Debug, Clone)]
struct Scenario {
    nodes: usize,
    cores: usize,
    gflops: f64,
    bw: f64,
    link: f64,
    apps: Vec<(f64, usize)>, // (ai, placement_code)
    counts: Vec<Vec<usize>>, // [app][node]
}

fn arb_scenario(g: &mut Gen) -> Scenario {
    let (nodes, cores, num_apps) = (g.range(2..5usize), g.range(1..9usize), g.range(1..5usize));
    Scenario {
        nodes,
        cores,
        gflops: g.range(0.1..50.0),
        bw: g.range(1.0..200.0),
        link: g.range(0.0..50.0),
        apps: (0..num_apps)
            .map(|_| (g.range(0.01..64.0), g.range(0..3usize)))
            .collect(),
        counts: (0..num_apps)
            .map(|_| (0..nodes).map(|_| g.range(0..=cores)).collect())
            .collect(),
    }
}

fn build(s: &Scenario) -> Option<(numa_topology::Machine, Vec<AppSpec>, ThreadAssignment)> {
    let machine = MachineBuilder::new()
        .symmetric_nodes(s.nodes, s.cores)
        .core_peak_gflops(s.gflops)
        .node_bandwidth_gbs(s.bw)
        .uniform_link_gbs(s.link)
        .build()
        .ok()?;
    let apps: Vec<AppSpec> = s
        .apps
        .iter()
        .enumerate()
        .map(|(i, &(ai, code))| {
            let placement = match code {
                0 => DataPlacement::Local,
                1 => DataPlacement::SingleNode(NodeId(i % s.nodes)),
                _ => {
                    // An uneven but valid spread.
                    let mut fr = vec![1.0 / s.nodes as f64; s.nodes];
                    let shift = fr[0] / 2.0;
                    fr[0] -= shift;
                    fr[s.nodes - 1] += shift;
                    DataPlacement::Spread(fr)
                }
            };
            AppSpec {
                name: format!("app{i}"),
                ai,
                placement,
            }
        })
        .collect();

    // Clamp the random counts so no node is over-subscribed.
    let mut counts = s.counts.clone();
    for node in 0..s.nodes {
        loop {
            let total: usize = counts.iter().map(|row| row[node]).sum();
            if total <= s.cores {
                break;
            }
            // Reduce the largest contributor.
            let max_app = (0..counts.len()).max_by_key(|&a| counts[a][node]).unwrap();
            counts[max_app][node] -= 1;
        }
    }
    let assignment = ThreadAssignment::from_matrix(counts);
    assignment.validate(&machine).ok()?;
    Some((machine, apps, assignment))
}

/// No node's memory ever serves more bandwidth than its capacity, no
/// thread is granted more than it asked for, and every thread gets at
/// least `min(demand, baseline)`.
#[test]
fn conservation_and_baseline_guarantee() {
    check(1, CASES, |g| {
        let s = arb_scenario(g);
        let Some((machine, apps, assignment)) = build(&s) else {
            return;
        };
        let r = solve(&machine, &apps, &assignment).unwrap();

        for n in &r.nodes {
            assert!(
                n.served_remote_gbs + n.served_local_gbs <= n.capacity_gbs * (1.0 + 1e-9),
                "node {:?}: {} + {} > {}",
                n.node,
                n.served_remote_gbs,
                n.served_local_gbs,
                n.capacity_gbs
            );
            assert!(n.served_remote_gbs >= -1e-12);
            assert!(n.served_local_gbs >= -1e-12);
        }
        for g in &r.groups {
            assert!(g.granted_gbs <= g.demand_gbs * (1.0 + 1e-9) + 1e-9);
            assert!(g.granted_gbs >= -1e-12);
            assert!(g.gflops <= machine.core_peak_gflops() * (1.0 + 1e-9));
            // Baseline guarantee applies to the *local* component.
            let local_demand = g.demand_gbs
                * match &apps[g.app].placement {
                    DataPlacement::Local => 1.0,
                    DataPlacement::SingleNode(n) => {
                        if *n == g.home {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    DataPlacement::Spread(fr) => fr[g.home.0],
                };
            let baseline = r.nodes[g.home.0].baseline_gbs;
            let guaranteed = local_demand.min(baseline);
            assert!(
                g.granted_by_target[g.home.0] >= guaranteed - 1e-9,
                "local grant {} below guarantee {}",
                g.granted_by_target[g.home.0],
                guaranteed
            );
        }
    });
}

/// The sum of per-group grants equals the per-node served totals, and
/// the app rollups equal the group rollups (internal consistency).
#[test]
fn rollups_are_consistent() {
    check(2, CASES, |g| {
        let s = arb_scenario(g);
        let Some((machine, apps, assignment)) = build(&s) else {
            return;
        };
        let r = solve(&machine, &apps, &assignment).unwrap();

        for node in machine.node_ids() {
            let served: f64 = r
                .groups
                .iter()
                .map(|g| g.count as f64 * g.granted_by_target[node.0])
                .sum();
            let reported = r.nodes[node.0].served_remote_gbs + r.nodes[node.0].served_local_gbs;
            assert!(
                (served - reported).abs() < 1e-6,
                "node {node:?}: groups sum {served} vs report {reported}"
            );
        }
        for (a, app) in r.apps.iter().enumerate() {
            let from_groups: f64 = r
                .groups
                .iter()
                .filter(|g| g.app == a)
                .map(|g| g.group_gflops())
                .sum();
            assert!((from_groups - app.gflops).abs() < 1e-6);
        }
        let node_total: f64 = r.nodes.iter().map(|n| n.gflops).sum();
        assert!((node_total - r.total_gflops()).abs() < 1e-6);
    });
}

/// Scaling the machine's bandwidths and the per-core peak by a common
/// factor scales every achieved GFLOPS by the same factor.
#[test]
fn scale_invariance() {
    check(3, CASES, |g| {
        let s = arb_scenario(g);
        let k = g.range(0.5..4.0);
        let Some((machine, apps, assignment)) = build(&s) else {
            return;
        };
        let r1 = solve(&machine, &apps, &assignment).unwrap();

        let scaled = MachineBuilder::new()
            .symmetric_nodes(s.nodes, s.cores)
            .core_peak_gflops(s.gflops * k)
            .node_bandwidth_gbs(machine.node(NodeId(0)).bandwidth_gbs * k)
            .uniform_link_gbs(s.link * k)
            .build()
            .unwrap();
        let r2 = solve(&scaled, &apps, &assignment).unwrap();
        assert!(
            (r2.total_gflops() - k * r1.total_gflops()).abs()
                <= 1e-6 * (1.0 + r1.total_gflops().abs() * k),
            "{} vs {}",
            r2.total_gflops(),
            k * r1.total_gflops()
        );
    });
}

/// Raising a node's bandwidth never lowers total performance
/// (capacity monotonicity).
#[test]
fn capacity_monotonicity() {
    check(4, CASES, |g| {
        let s = arb_scenario(g);
        let extra = g.range(1.0..100.0);
        let Some((machine, apps, assignment)) = build(&s) else {
            return;
        };
        let r1 = solve(&machine, &apps, &assignment).unwrap();

        let bigger = MachineBuilder::new()
            .symmetric_nodes(s.nodes, s.cores)
            .core_peak_gflops(s.gflops)
            .node_bandwidth_gbs(machine.node(NodeId(0)).bandwidth_gbs + extra)
            .uniform_link_gbs(s.link)
            .build()
            .unwrap();
        let r2 = solve(&bigger, &apps, &assignment).unwrap();
        assert!(
            r2.total_gflops() >= r1.total_gflops() - 1e-6,
            "raising capacity lowered GFLOPS: {} -> {}",
            r1.total_gflops(),
            r2.total_gflops()
        );
    });
}

/// With purely NUMA-local applications, links are irrelevant.
#[test]
fn local_apps_ignore_links() {
    check(5, CASES, |g| {
        let (nodes, cores) = (g.range(2..5usize), g.range(1..9usize));
        let ai = g.range(0.01..64.0);
        let count = g.range(1..4usize);
        let (link_a, link_b) = (g.range(0.0..50.0), g.range(0.0..50.0));
        let count = count.min(cores);
        let mk = |link: f64| {
            MachineBuilder::new()
                .symmetric_nodes(nodes, cores)
                .core_peak_gflops(10.0)
                .node_bandwidth_gbs(32.0)
                .uniform_link_gbs(link)
                .build()
                .unwrap()
        };
        let apps = vec![AppSpec::numa_local("a", ai)];
        let m1 = mk(link_a);
        let a1 = ThreadAssignment::uniform_per_node(&m1, &[count]);
        let r1 = solve(&m1, &apps, &a1).unwrap();
        let m2 = mk(link_b);
        let r2 = solve(&m2, &apps, &a1).unwrap();
        assert!((r1.total_gflops() - r2.total_gflops()).abs() < 1e-9);
    });
}

/// `LocalColumn`'s closed form is the solver's local stage: on random
/// asymmetric machines (core counts and bandwidths per node) with
/// NUMA-local mixes, each node's column score — the four sums of `terms`
/// over the column, closed by `gflops` — equals `solve`'s node GFLOPS within
/// 1e-12 relative. A non-local application has no closed form.
#[test]
fn local_column_score_is_the_solvers_node_gflops() {
    check(11, CASES, |g| {
        let nodes = g.range(1..5usize);
        let machine = (0..nodes)
            .fold(MachineBuilder::new(), |b, _| {
                b.add_node(g.range(1..13usize), g.range(1.0..200.0), 16.0)
            })
            .core_peak_gflops(g.range(0.1..50.0))
            .uniform_link_gbs(g.range(0.0..50.0))
            .build()
            .unwrap();
        let apps: Vec<AppSpec> = (0..g.range(1..6usize))
            .map(|i| AppSpec::numa_local(&format!("a{i}"), g.range(0.01..64.0)))
            .collect();
        let counts: Vec<Vec<usize>> = (machine.nodes())
            .map(|n| {
                let mut left = n.num_cores();
                (apps.iter())
                    .map(|_| {
                        let t = g.range(0..=left);
                        left -= t;
                        t
                    })
                    .collect()
            })
            .collect();
        let rows = (0..apps.len())
            .map(|a| counts.iter().map(|column| column[a]).collect())
            .collect();
        let report = solve(&machine, &apps, &ThreadAssignment::from_matrix(rows)).unwrap();
        for (n, column) in counts.iter().enumerate() {
            let local = LocalColumn::new(&machine, NodeId(n), &apps).unwrap();
            let mut sums = [0.0; 4];
            for (a, &t) in column.iter().enumerate() {
                for (sum, term) in sums.iter_mut().zip(local.terms(a)) {
                    *sum += t as f64 * term;
                }
            }
            let (score, want) = (local.gflops(sums), report.nodes[n].gflops);
            assert!(
                (score - want).abs() <= 1e-12 * want.abs(),
                "node {n}, column {column:?}: {score} vs {want}"
            );
        }
        let mut coupled = apps.clone();
        coupled[0].placement = DataPlacement::SingleNode(NodeId(g.range(0..nodes)));
        assert_eq!(LocalColumn::new(&machine, NodeId(0), &coupled), None);
    });
}
