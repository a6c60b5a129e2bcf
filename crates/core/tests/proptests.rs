//! Property tests for allocation strategies and searches, on the seeded
//! case runner.

use coop_alloc::cases::check;
use coop_alloc::{enumerate, score, search, strategies, Objective, Scorer};
use numa_topology::presets::paper_model_machine;
use numa_topology::{MachineBuilder, NodeId};
use roofline_numa::{AppSpec, ThreadAssignment};

const CASES: usize = 256;

fn machine(nodes: usize, cores: usize) -> numa_topology::Machine {
    MachineBuilder::new()
        .symmetric_nodes(nodes, cores)
        .core_peak_gflops(10.0)
        .node_bandwidth_gbs(32.0)
        .uniform_link_gbs(10.0)
        .build()
        .unwrap()
}

/// One node of `cores` cores per entry of `sizes`.
fn unequal_machine(sizes: &[usize]) -> numa_topology::Machine {
    sizes
        .iter()
        .fold(MachineBuilder::new(), |b, &cores| {
            b.add_node(cores, 32.0, 16.0)
        })
        .core_peak_gflops(10.0)
        .uniform_link_gbs(10.0)
        .build()
        .unwrap()
}

/// Fair share always allocates every core of every node exactly once
/// when apps <= cores, and never over-subscribes.
#[test]
fn fair_share_uses_all_cores() {
    check(1, CASES, |g| {
        let (nodes, cores, apps) = (g.range(1..5usize), g.range(1..17usize), g.range(1..6usize));
        let m = machine(nodes, cores);
        let a = strategies::fair_share(&m, apps).unwrap();
        assert!(a.validate(&m).is_ok());
        for node in m.node_ids() {
            assert_eq!(a.node_total(node), cores);
        }
        // No app is more than one remainder-round ahead of another per node.
        for node in m.node_ids() {
            let counts: Vec<usize> = (0..apps).map(|x| a.get(x, node)).collect();
            let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
            assert!(spread <= 1);
        }
    });
}

/// One cell of `fair_share` written as a formula: node `node`'s remainder
/// handed out from where the remainders of the nodes before it stopped.
/// The strategy writes only the cells it fills; kept here as the oracle,
/// it must return exactly this.
fn fair_share_cell(sizes: &[usize], num_apps: usize, node: usize, app: usize) -> usize {
    let first = sizes[..node].iter().map(|&c| c % num_apps).sum::<usize>() % num_apps;
    let (base, extra) = (sizes[node] / num_apps, sizes[node] % num_apps);
    base + usize::from((app + num_apps - first) % num_apps < extra)
}

/// On machines with nodes of unequal size and up to 300 applications
/// (more than any node has cores), `fair_share` is the per-cell formula,
/// hands out every core of every node and validates.
#[test]
fn fair_share_is_the_per_cell_formula() {
    check(8, CASES, |g| {
        let sizes = g.vec(1..17, |g| g.range(1..65usize));
        let apps = g.range(1..=300usize);
        let m = unequal_machine(&sizes);
        let a = strategies::fair_share(&m, apps).unwrap();
        assert_eq!((a.num_apps(), a.num_nodes()), (apps, sizes.len()));
        assert!(a.validate(&m).is_ok());
        for (node, &cores) in sizes.iter().enumerate() {
            assert_eq!(a.node_total(NodeId(node)), cores, "node {node}");
            for app in 0..apps {
                assert_eq!(
                    a.get(app, NodeId(node)),
                    fair_share_cell(&sizes, apps, node, app),
                    "app {app} of {apps} on node {node} ({cores} cores)"
                );
            }
        }
    });
    // Table II's even allocation, and nothing to share between nobody.
    let paper = paper_model_machine();
    assert_eq!(
        strategies::fair_share(&paper, 4).unwrap(),
        ThreadAssignment::uniform_per_node(&paper, &[2, 2, 2, 2])
    );
    assert_eq!(
        strategies::fair_share(&paper, 0),
        Err(coop_alloc::AllocError::NoApps)
    );
}

/// `fair_share` is a floor: on random machines (equal nodes or not) and
/// application counts, every node hands out exactly its cores, per-app
/// totals differ by at most one when the nodes are equal, and no
/// application gets nothing while the machine has a core for each.
#[test]
fn fair_share_gives_everybody_a_core_when_there_are_enough() {
    check(11, CASES, |g| {
        let equal = g.bool(0.5);
        let nodes = g.range(1..17usize);
        let sizes = if equal {
            vec![g.range(1..65usize); nodes]
        } else {
            g.vec(nodes..nodes + 1, |g| g.range(1..65usize))
        };
        let total: usize = sizes.iter().sum();
        let apps = g.range(1..=2 * total);
        let a = strategies::fair_share(&unequal_machine(&sizes), apps).unwrap();
        for (node, &cores) in sizes.iter().enumerate() {
            assert_eq!(a.node_total(NodeId(node)), cores, "node {node}");
        }
        let totals: Vec<usize> = (0..apps).map(|app| a.app_total(app)).collect();
        let (lo, hi) = (totals.iter().min().unwrap(), totals.iter().max().unwrap());
        if equal {
            assert!(hi - lo <= 1, "{apps} apps on {sizes:?}: totals {lo}..={hi}");
        }
        if total >= apps {
            assert!(*lo > 0, "{apps} apps on {sizes:?}: an app got no core");
        }
    });
    // Table II's even allocation is unchanged.
    let paper = paper_model_machine();
    assert_eq!(
        strategies::fair_share(&paper, 4).unwrap(),
        ThreadAssignment::uniform_per_node(&paper, &[2, 2, 2, 2])
    );
}

/// On random machines and random live masks, `fair_share_among` zeroes
/// the dead rows and gives the live ones `fair_share`'s rows over the
/// survivors, in application order; nobody alive is `NoApps`.
#[test]
fn fair_share_among_is_fair_share_over_the_survivors() {
    check(9, CASES, |g| {
        let sizes = g.vec(1..17, |g| g.range(1..65usize));
        let m = unequal_machine(&sizes);
        let live_odds = g.range(0.0..1.0);
        let live = g.vec(1..300, |g| g.range(0.0..1.0) < live_odds);
        let live_count = live.iter().filter(|&&l| l).count();
        let got = strategies::fair_share_among(&m, &live);
        if live_count == 0 {
            assert_eq!(got, Err(coop_alloc::AllocError::NoApps));
            return;
        }
        let got = got.unwrap();
        let shared = strategies::fair_share(&m, live_count).unwrap();
        assert_eq!((got.num_apps(), got.num_nodes()), (live.len(), sizes.len()));
        let mut survivors = (0..live_count).map(|pos| shared.row(pos));
        for (app, &alive) in live.iter().enumerate() {
            if alive {
                assert_eq!(got.row(app), survivors.next().unwrap(), "live app {app}");
            } else {
                assert!(got.row(app).iter().all(|&c| c == 0), "dead app {app}");
            }
        }
        assert!(survivors.next().is_none());
    });
    let paper = paper_model_machine();
    assert_eq!(
        strategies::fair_share_among(&paper, &[false; 3]),
        Err(coop_alloc::AllocError::NoApps)
    );
    assert_eq!(
        strategies::fair_share_among(&paper, &[]),
        Err(coop_alloc::AllocError::NoApps)
    );
}

/// On unequal machines of up to 16 nodes of up to 64 cores and up to 300
/// applications, under live masks that are all dead, all live, a single
/// survivor or random, `fair_split` over the survivors — each position read
/// as its survivor — gives exactly the non-zero cells of `fair_share_among`
/// and of the per-cell formula, in row order. The cases include nodes with
/// a share for everybody and left-over windows that wrap round the
/// survivors.
#[test]
fn fair_split_is_the_non_zero_cells_of_fair_share() {
    let (shared, wrapped) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    check(14, CASES, |g| {
        let sizes = g.vec(1..17, |g| g.range(1..65usize));
        let m = unequal_machine(&sizes);
        let apps = g.range(1..=300usize);
        let live: Vec<bool> = match g.range(0..4usize) {
            0 => vec![false; apps],
            1 => vec![true; apps],
            2 => {
                let survivor = g.range(0..apps);
                (0..apps).map(|app| app == survivor).collect()
            }
            _ => {
                let odds = g.range(0.0..1.0);
                (0..apps).map(|_| g.range(0.0..1.0) < odds).collect()
            }
        };
        let survivors: Vec<usize> = (0..apps).filter(|&app| live[app]).collect();
        let sharers = survivors.len();
        let mut cells = Vec::new();
        let split = strategies::fair_split(&m, sharers, |pos, node, count| {
            cells.push((survivors[pos], node.0, count))
        });
        let among = strategies::fair_share_among(&m, &live);
        if sharers == 0 {
            assert_eq!(split, Err(coop_alloc::AllocError::NoApps));
            assert_eq!(among, Err(coop_alloc::AllocError::NoApps));
            return;
        }
        split.unwrap();
        let among = among.unwrap();
        let nodes = 0..sizes.len();
        let non_zero = |&(_, _, count): &(usize, usize, usize)| count > 0;
        let dense: Vec<_> = (0..apps)
            .flat_map(|app| nodes.clone().map(move |node| (app, node)))
            .map(|(app, node)| (app, node, among.get(app, NodeId(node))))
            .filter(non_zero)
            .collect();
        assert_eq!(cells, dense, "{sharers} of {apps} on {sizes:?}");
        let formula: Vec<_> = (survivors.iter().enumerate())
            .flat_map(|(pos, &app)| nodes.clone().map(move |node| (pos, app, node)))
            .map(|(pos, app, node)| (app, node, fair_share_cell(&sizes, sharers, node, pos)))
            .filter(non_zero)
            .collect();
        assert_eq!(cells, formula, "{sharers} of {apps} on {sizes:?}");
        shared.set(shared.get() + usize::from(sizes.iter().any(|&c| c >= sharers)));
        let mut first = 0;
        for &cores in &sizes {
            wrapped.set(wrapped.get() + usize::from(first + cores % sharers > sharers));
            first = (first + cores % sharers) % sharers;
        }
    });
    assert!(shared.get() > 0 && wrapped.get() > 0);
}

/// On random machines, live masks and held rows, `contain` against the
/// survivors' fair row never raises a cell, never goes below
/// `min(held, fair)` and is idempotent, and a feasible assignment with one
/// live row contained stays feasible.
#[test]
fn contain_takes_only_the_surplus_above_the_fair_row() {
    check(10, CASES, |g| {
        let sizes = g.vec(1..9, |g| g.range(1..33usize));
        let m = unequal_machine(&sizes);
        let live = g.vec(1..12, |g| g.bool(0.7));
        let live_apps: Vec<usize> = (0..live.len()).filter(|&app| live[app]).collect();
        if live_apps.is_empty() {
            return;
        }
        let fair = strategies::fair_share_among(&m, &live).unwrap();
        // A feasible assignment: each node's cores dealt out at random,
        // first rows first, so the early rows tend to over-hold.
        let mut held = ThreadAssignment::zero(&m, live.len());
        for (node, &cores) in sizes.iter().enumerate() {
            let mut free = cores;
            for app in 0..live.len() {
                let t = g.range(0..=free);
                held.set(app, NodeId(node), t);
                free -= t;
            }
        }
        let app = *g.pick(&live_apps);
        let (was, fair_row) = (held.row(app), fair.row(app));
        let mut row = was.to_vec();
        strategies::contain(&mut row, fair_row);
        for (n, ((&out, &held_n), &fair_n)) in row.iter().zip(was).zip(fair_row).enumerate() {
            assert!(out <= held_n, "node {n} raised: {held_n} -> {out}");
            assert!(
                out >= held_n.min(fair_n),
                "node {n} below min({held_n}, {fair_n}): {out}"
            );
        }
        let mut again = row.clone();
        strategies::contain(&mut again, fair_row);
        assert_eq!(again, row, "contain is idempotent");
        held.row_mut(app).copy_from_slice(&row);
        assert!(
            held.validate(&m).is_ok(),
            "a contained row oversubscribed a node"
        );
    });
    // Below its fair share on a node, the offender keeps what it holds: the
    // clamp frees cores, it never hands any out.
    let mut row = [0, 5, 2];
    strategies::contain(&mut row, &[2, 2, 2]);
    assert_eq!(row, [0, 2, 2]);
}

/// Proportional apportionment hands out every core and respects
/// monotonicity in weights per node.
#[test]
fn proportional_is_complete_and_ordered() {
    check(2, CASES, |g| {
        let (nodes, cores) = (g.range(1..4usize), g.range(1..17usize));
        let w = g.vec(2..5, |g| g.range(0.01..10.0));
        let m = machine(nodes, cores);
        let a = strategies::proportional(&m, &w).unwrap();
        assert!(a.validate(&m).is_ok());
        for node in m.node_ids() {
            assert_eq!(a.node_total(node), cores);
        }
        // If weight[i] >= weight[j], app i's machine-wide total is at least
        // app j's minus the rounding slack (one core per node).
        for i in 0..w.len() {
            for j in 0..w.len() {
                if w[i] >= w[j] {
                    assert!(
                        a.app_total(i) + nodes >= a.app_total(j),
                        "weights {:?} totals {:?}",
                        &w,
                        (0..w.len()).map(|x| a.app_total(x)).collect::<Vec<_>>()
                    );
                }
            }
        }
    });
}

/// Greedy never produces an invalid assignment and never scores below
/// the empty assignment.
#[test]
fn greedy_is_sound() {
    check(3, CASES, |g| {
        let (nodes, cores) = (g.range(1..4usize), g.range(1..7usize));
        let ais = g.vec(1..4, |g| g.range(0.05..32.0));
        let m = machine(nodes, cores);
        let apps: Vec<AppSpec> = ais
            .iter()
            .enumerate()
            .map(|(i, &ai)| AppSpec::numa_local(&format!("a{i}"), ai))
            .collect();
        let g = search::GreedySearch::new()
            .run(&m, &apps, &Objective::TotalGflops)
            .unwrap();
        assert!(g.assignment.validate(&m).is_ok());
        assert!(g.score >= 0.0);
    });
}

/// Exhaustive uniform search is at least as good as any named strategy
/// that produces a uniform allocation.
#[test]
fn exhaustive_uniform_dominates_named_uniform_strategies() {
    check(4, CASES, |g| {
        let cores = g.range(1..9usize);
        let (ai1, ai2) = (g.range(0.05..32.0), g.range(0.05..32.0));
        let m = machine(2, cores);
        let apps = vec![AppSpec::numa_local("a", ai1), AppSpec::numa_local("b", ai2)];
        let best = search::ExhaustiveSearch::new()
            .run(&m, &apps, &Objective::TotalGflops)
            .unwrap();
        let k = cores / 2;
        if k > 0 {
            let even = strategies::uniform_per_node(&m, &[k, k]).unwrap();
            let s = score(&m, &apps, &even, &Objective::TotalGflops).unwrap();
            assert!(best.score >= s - 1e-9);
        }
    });
}

/// Hill climbing never returns something worse than its fair-share
/// starting point.
#[test]
fn hill_climb_never_regresses() {
    check(5, CASES, |g| {
        let seed = g.range(0..1000u64);
        let (ai1, ai2) = (g.range(0.05..32.0), g.range(0.05..32.0));
        let m = machine(2, 4);
        let apps = vec![AppSpec::numa_local("a", ai1), AppSpec::numa_local("b", ai2)];
        let start = strategies::fair_share(&m, 2).unwrap();
        let s0 = score(&m, &apps, &start, &Objective::TotalGflops).unwrap();
        let h = search::HillClimb::new()
            .with_iterations(200)
            .with_seed(seed)
            .run(&m, &apps, &Objective::TotalGflops)
            .unwrap();
        assert!(h.score >= s0 - 1e-9);
        assert!(h.assignment.validate(&m).is_ok());
    });
}

/// A delta-scored local move agrees with a from-scratch solve of the
/// moved-to assignment, for random separable (all-local) contexts.
#[test]
fn delta_move_scores_match_full_solves() {
    check(6, CASES, |g| {
        let cores = g.range(2..7usize);
        let ais = g.vec(2..4, |g| g.range(0.05..32.0));
        let seed = g.range(0..1000u64);
        let m = machine(2, cores);
        let apps: Vec<AppSpec> = ais
            .iter()
            .enumerate()
            .map(|(i, &ai)| AppSpec::numa_local(&format!("a{i}"), ai))
            .collect();
        let objective = Objective::TotalGflops;
        let mut oracle = search::ModelOracle::new(&m, &apps, &objective).unwrap();
        let base = strategies::fair_share(&m, apps.len()).unwrap();
        oracle.set_base(&base).unwrap();

        let nodes: Vec<_> = m.node_ids().collect();
        let node = nodes[(seed as usize / 7) % nodes.len()];
        // Fair share fills every node, so some app has a thread to give up.
        let app = (0..apps.len())
            .map(|i| (i + seed as usize) % apps.len())
            .find(|&i| base.get(i, node) > 0)
            .unwrap();
        let mut candidate = base.clone();
        candidate.set(app, node, base.get(app, node) - 1);

        let delta = oracle.score_move(&candidate, &[node]).unwrap();
        let full = score(&m, &apps, &candidate, &objective).unwrap();
        assert!(
            (delta - full).abs() <= 1e-9 * full.abs().max(1.0),
            "delta {delta} vs full {full}"
        );
        assert!(oracle.take_counters().delta_solves >= 1);

        // After accepting, a move touching two node columns at once must
        // also match a from-scratch solve.
        let other = nodes[((seed as usize / 7) + 1) % nodes.len()];
        let app2 = (0..apps.len())
            .map(|i| (i + seed as usize / 3) % apps.len())
            .find(|&i| candidate.get(i, other) > 0)
            .unwrap();
        let mut second = candidate.clone();
        second.set(app2, other, candidate.get(app2, other) - 1);
        if candidate.get(app, node) > 0 {
            second.set(app, node, candidate.get(app, node) - 1);
        }
        oracle.accept(&candidate, &[node]).unwrap();
        let delta2 = oracle.score_move(&second, &[node, other]).unwrap();
        let full2 = score(&m, &apps, &second, &objective).unwrap();
        assert!(
            (delta2 - full2).abs() <= 1e-9 * full2.abs().max(1.0),
            "two-column delta {delta2} vs full {full2}"
        );
    });
}

/// Enumeration counts match the actual number of yielded items.
#[test]
fn enumeration_counts_are_exact() {
    check(7, CASES, |g| {
        let (cores, apps) = (g.range(1..5usize), g.range(1..4usize));
        let m = machine(2, cores);
        let n_full = enumerate::count_assignments(&m, apps);
        let actual = enumerate::assignments(&m, apps).count();
        assert_eq!(n_full, actual as u128);
        let n_uni = enumerate::count_uniform_assignments(&m, apps);
        let actual_uni = enumerate::uniform_assignments(&m, apps).count();
        assert_eq!(n_uni, actual_uni as u128);
    });
}

/// A random NUMA-local mix on a random small machine whose full space is
/// small enough to scan: 2–5 nodes of 1–4 cores, each node its own
/// bandwidth, 1–4 applications.
fn small_local_case(g: &mut coop_alloc::cases::Gen) -> (numa_topology::Machine, Vec<AppSpec>) {
    loop {
        let nodes = g.range(2..6usize);
        let machine = (0..nodes)
            .fold(MachineBuilder::new(), |b, _| {
                b.add_node(g.range(1..5usize), g.range(4.0..64.0), 16.0)
            })
            .core_peak_gflops(g.range(1.0..16.0))
            .uniform_link_gbs(10.0)
            .build()
            .unwrap();
        let apps: Vec<AppSpec> = (0..g.range(1..5usize))
            .map(|i| AppSpec::numa_local(&format!("a{i}"), g.range(0.02..32.0)))
            .collect();
        if enumerate::count_assignments(&machine, apps.len()) <= 20_000 {
            return (machine, apps);
        }
    }
}

/// The exact decision is the optimum: on random small machines with
/// asymmetric core counts and bandwidths and NUMA-local mixes, every
/// application keeping at least one thread, the DP's assignment rescored by
/// `ModelOracle` is within 1e-9 relative of `ExhaustiveSearch::full_space`'s
/// best and never above it, under `TotalGflops`; it declines exactly when
/// there are more applications than cores. A live subset decided from the
/// full set's table is the subset's own decision.
#[test]
fn separable_decision_is_the_full_space_optimum() {
    use coop_alloc::search::{ExhaustiveSearch, ModelOracle};
    use coop_alloc::ColumnTable;
    check(12, 64, |g| {
        let (m, apps) = small_local_case(g);
        let objective = Objective::TotalGflops;
        let oracle = || ModelOracle::new(&m, &apps, &objective).map(|o| o.with_min_threads(1));
        let Some(found) = ColumnTable::search(&m, &apps, &objective) else {
            assert!(
                apps.len() > m.total_cores(),
                "declined a feasible local mix"
            );
            return;
        };
        let best = ExhaustiveSearch::new()
            .full_space()
            .run_with(&m, apps.len(), oracle)
            .unwrap();
        let rescored = oracle().unwrap().score(&found.assignment).unwrap();
        assert!(
            rescored <= best.score,
            "{rescored} above the optimum {}",
            best.score
        );
        assert!(
            best.score - rescored <= 1e-9 * best.score.abs(),
            "{rescored} vs the optimum {} ({:?} vs {:?})",
            best.score,
            found.assignment,
            best.assignment
        );
        assert!((found.score - rescored).abs() <= 1e-9 * rescored.abs());

        let table = ColumnTable::build(&m, &apps, &objective).unwrap();
        let live: Vec<usize> = (0..apps.len()).filter(|_| g.bool(0.6)).collect();
        let subset: Vec<AppSpec> = live.iter().map(|&a| apps[a].clone()).collect();
        let own = ColumnTable::search(&m, &subset, &objective);
        let reused = table.decide(&live);
        assert_eq!(
            reused.as_ref().map(|r| (&r.assignment, r.score.to_bits())),
            own.as_ref().map(|r| (&r.assignment, r.score.to_bits())),
            "live {live:?}"
        );
    });
}

/// Outside its exact path the DP returns nothing, so the caller searches
/// otherwise: a mix with one non-local application, more than `MAX_APPS`
/// applications, an objective other than `TotalGflops`, or a live set it
/// cannot decide. A node of any size is built.
#[test]
fn separable_decision_declines_coupled_and_oversized_mixes() {
    use coop_alloc::separable::MAX_APPS;
    use coop_alloc::ColumnTable;
    use roofline_numa::DataPlacement;
    check(13, CASES, |g| {
        let (m, mut apps) = small_local_case(g);
        let total = Objective::TotalGflops;
        let weighted = Objective::WeightedGflops(vec![1.0; apps.len()]);
        assert!(ColumnTable::build(&m, &apps, &Objective::MinAppGflops).is_none());
        assert!(ColumnTable::build(&m, &apps, &weighted).is_none());
        let table = ColumnTable::build(&m, &apps, &total).unwrap();
        assert!(table.decide(&[]).is_none());
        assert!(table.decide(&[apps.len()]).is_none());
        if apps.len() > 1 {
            assert!(table.decide(&[0, 0]).is_none());
        }
        let nodes = m.num_nodes();
        let coupled = g.range(0..apps.len());
        apps[coupled].placement = if g.bool(0.5) {
            DataPlacement::SingleNode(NodeId(g.range(0..nodes)))
        } else {
            DataPlacement::Spread(vec![1.0 / nodes as f64; nodes])
        };
        assert!(ColumnTable::build(&m, &apps, &total).is_none());
    });
    let total = Objective::TotalGflops;
    let many: Vec<AppSpec> = (0..=MAX_APPS)
        .map(|i| AppSpec::numa_local(&format!("a{i}"), 0.5 + i as f64))
        .collect();
    assert!(ColumnTable::build(&machine(2, 1), &many, &total).is_none());
    assert!(ColumnTable::build(&machine(2, 1), &many[..MAX_APPS], &total).is_some());
    let wide = unequal_machine(&[2, 4096]);
    assert!(ColumnTable::build(&wide, &many[..MAX_APPS], &total).is_some());
}
