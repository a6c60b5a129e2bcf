//! Property tests (seeded case runner) for agent policies, driven by synthetic stat
//! streams (no live runtimes — policies are pure over their inputs).

use coop_agent::control::{check_commands, row_of};
use coop_agent::policies::{ModelGuided, ProducerConsumerThrottle};
use coop_agent::{Policy, RuntimeStats, ThreadCommand};
use coop_alloc::cases::check;
use coop_alloc::search::{GreedySearch, HillClimb, ModelOracle};
use coop_alloc::{ColumnTable, Objective};
use numa_topology::{MachineBuilder, NodeId};
use roofline_numa::{AppSpec, DataPlacement, ThreadAssignment};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

const CASES: usize = 256;

fn stats_pair(produced: u64, consumed: u64) -> Vec<RuntimeStats> {
    let mk = |name: &str, key: &str, v: u64| RuntimeStats {
        name: name.into(),
        tasks_executed: 0,
        tasks_panicked: 0,
        tasks_spawned: 0,
        tasks_ready: 0,
        tasks_pending: 0,
        running_workers: 0,
        blocked_workers: 0,
        external_threads: 0,
        per_node: vec![],
        user_counters: HashMap::from([(key.to_string(), v)]),
        uptime_us: 0,
        tasks_preempted: 0,
        tasks_runaway: 0,
        overbudget_cpu_us: 0,
    };
    vec![
        mk("prod", "produced", produced),
        mk("cons", "consumed", consumed),
    ]
}

/// The throttle's target always stays within its configured bounds,
/// moves by at most one per tick, and issues a command exactly when
/// the target changes, to one of the two runtimes it is shown.
#[test]
fn throttle_is_bounded_and_incremental() {
    check(1, CASES, |g| {
        let lead_seq = g.vec(1..60, |g| (g.range(0..40u64), g.range(0..40u64)));
        let (low, span) = (g.range(1..4u64), g.range(1..6u64));
        let (min_threads, extra) = (g.range(1..3usize), g.range(1..14usize));
        let high = low + span;
        let max_threads = min_threads + extra;
        let mut p = ProducerConsumerThrottle::new(0, 1, low, high, min_threads, max_threads);
        let mut prev = p.current_target();
        assert!(prev <= max_threads);
        for (produced_raw, consumed_raw) in lead_seq {
            // Counters are monotone in reality, but the policy must be
            // robust to arbitrary snapshots too.
            let cmds = p.tick(&stats_pair(produced_raw.max(consumed_raw), consumed_raw), 0);
            let issued = cmds
                .iter()
                .enumerate()
                .filter_map(|(i, cmd)| Some((i, row_of(cmd.as_ref()?))));
            let violations = check_commands(None, &[true, true], &[], issued);
            assert!(violations.is_empty(), "{violations:?}");
            let cur = p.current_target();
            assert!(
                cur >= min_threads && cur <= max_threads,
                "target {cur} outside [{min_threads}, {max_threads}]"
            );
            assert!(
                cur.abs_diff(prev) <= 1,
                "moved by more than one: {prev} -> {cur}"
            );
            match &cmds[0] {
                Some(ThreadCommand::TotalThreads(n)) => {
                    assert_eq!(*n, cur);
                    assert!(cur != prev, "command issued without a change");
                }
                Some(other) => panic!("unexpected command {other:?}"),
                None => assert_eq!(cur, prev, "change without a command"),
            }
            assert!(cmds[1].is_none(), "consumer must never be commanded");
            prev = cur;
        }
    });
}

/// Sustained high lead drives the target to the floor; sustained low
/// lead drives it to the ceiling (convergence, not oscillation).
#[test]
fn throttle_converges_under_steady_pressure() {
    check(2, CASES, |g| {
        let (low, span) = (g.range(1..4u64), g.range(1..6u64));
        let max_threads = g.range(4..16usize);
        let high = low + span;
        let mut p = ProducerConsumerThrottle::new(0, 1, low, high, 1, max_threads);
        for _ in 0..max_threads + 2 {
            p.tick(&stats_pair(1000 + high + 10, 1000), 0); // lead far above high
        }
        assert_eq!(p.current_target(), 1);
        for _ in 0..max_threads + 2 {
            p.tick(&stats_pair(1000, 1000), 0); // lead 0 < low
        }
        assert_eq!(p.current_target(), max_threads);
    });
}

/// A warm search `ModelGuided` skips — over the live set of its last one,
/// from an incumbent that one returned unchanged or decided exactly — would
/// have returned that incumbent. On random machines, local and NUMA-bad
/// mixes and live-set sequences the policy holds, tick by tick, what its
/// searches give run every time from scratch: on a new live set the exact
/// decision (`ColumnTable::search` over that set alone) when every live
/// application is NUMA-local and the policy's one table over its local
/// applications is within the limits, else the cold greedy; then, for a
/// coupled set, the 1 500-proposal climb from the incumbent every `period`
/// ticks. So on every skipped tick that climb ends on the incumbent, an
/// exact decision is never searched again while its set holds, and a skip
/// changes no decision and records no solver work.
#[test]
fn a_skipped_warm_search_would_return_its_incumbent() {
    // Climb skips (each checked against a real climb), climbs that moved,
    // exact decisions, and due ticks an exact decision settled.
    let [skipped, moved, exact, settled] = [(); 4].map(|_| AtomicUsize::new(0));
    check(3, 64, |g| {
        let nodes = g.range(1..5usize);
        let machine = (0..nodes)
            .fold(MachineBuilder::new(), |b, _| {
                b.add_node(g.range(2..33usize), g.range(8.0..64.0), 16.0)
            })
            .core_peak_gflops(g.range(2.0..16.0))
            .uniform_link_gbs(g.range(4.0..32.0))
            .build()
            .unwrap();
        let specs: Vec<AppSpec> = (0..g.range(1..6usize))
            .map(|i| {
                let (name, ai) = (format!("a{i}"), g.range(0.02..16.0));
                if g.bool(0.4) {
                    AppSpec::numa_bad(&name, ai, NodeId(g.range(0..nodes)))
                } else {
                    AppSpec::numa_local(&name, ai)
                }
            })
            .collect();
        let objective = Objective::TotalGflops;
        let is_local = |a: &AppSpec| matches!(a.placement, DataPlacement::Local);
        let local: Vec<AppSpec> = specs.iter().filter(|a| is_local(a)).cloned().collect();
        let tabled = ColumnTable::build(&machine, &local, &objective).is_some();
        let mut policy = ModelGuided::new(machine.clone(), specs.clone());
        policy.period = g.range(1..4u64);
        let mut live: Vec<usize> = (0..specs.len()).collect();
        // The reference: the live set searched last, its answer, and
        // whether that answer was exact.
        let mut reference: Option<(Vec<usize>, ThreadAssignment, bool)> = None;
        for tick in 0..g.range(10..40u64) {
            if g.bool(0.1) {
                live = (0..specs.len()).filter(|_| g.bool(0.7)).collect();
            }
            let stats: Vec<RuntimeStats> = (live.iter())
                .map(|&i| RuntimeStats {
                    name: specs[i].name.clone(),
                    ..RuntimeStats::default()
                })
                .collect();
            let commands = policy.tick(&stats, tick);
            if live.is_empty() {
                assert!(commands.is_empty());
                continue;
            }
            let apps: Vec<AppSpec> = live.iter().map(|&i| specs[i].clone()).collect();
            let mut oracle = ModelOracle::new(&machine, &apps, &objective)
                .unwrap()
                .with_min_threads(1);
            let warm = reference
                .take()
                .filter(|(searched, _, _)| *searched == live);
            let due = tick.is_multiple_of(policy.period);
            let (found, decided) = match warm {
                Some((_, incumbent, true)) => {
                    if due {
                        settled.fetch_add(1, Ordering::Relaxed);
                        assert_eq!(policy.search_inputs()[2].1, 0.0, "tick {tick}");
                        assert_eq!(policy.last_search_counters(), Default::default());
                    }
                    (incumbent, true)
                }
                Some((_, incumbent, false)) if !due => (incumbent, false),
                Some((_, incumbent, false)) => {
                    let climbed = HillClimb::new()
                        .with_iterations(1500)
                        .with_start(incumbent.clone())
                        .run_model(&machine, &mut oracle)
                        .unwrap()
                        .assignment;
                    if policy.search_inputs()[2].1 == 0.0 {
                        skipped.fetch_add(1, Ordering::Relaxed);
                        assert_eq!(climbed, incumbent, "tick {tick}, live {live:?}");
                        assert_eq!(policy.last_search_counters(), Default::default());
                    } else if climbed != incumbent {
                        moved.fetch_add(1, Ordering::Relaxed);
                    }
                    (climbed, false)
                }
                None => {
                    let best = (tabled && apps.iter().all(is_local))
                        .then(|| ColumnTable::search(&machine, &apps, &objective))
                        .flatten();
                    match best {
                        Some(best) => {
                            exact.fetch_add(1, Ordering::Relaxed);
                            (best.assignment, true)
                        }
                        None => {
                            let greedy = GreedySearch::new().run_model(&machine, &mut oracle);
                            (greedy.unwrap().assignment, false)
                        }
                    }
                }
            };
            assert_eq!(policy.last_assignment(), Some(&found), "tick {tick}");
            reference = Some((live.clone(), found, decided));
        }
    });
    println!(
        "{skipped:?} skipped climbs, {moved:?} climbs that moved, \
         {exact:?} exact decisions, {settled:?} due ticks settled by one"
    );
    assert!(skipped.into_inner() > 50 && moved.into_inner() > 0);
    assert!(exact.into_inner() > 0 && settled.into_inner() > 0);
}
