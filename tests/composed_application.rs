//! The paper's end vision, §II: "one might view the whole composed
//! application as one enormous task graph that spans multiple processes
//! ... each code would use its own runtime system ... The coordination of
//! the individual runtime systems and schedulers would happen on the level
//! of resource arbitration."
//!
//! This test composes three components, each on its own runtime, each
//! running an iterative BSP-style graph, coordinated first by consensus
//! (startup partition) and then by a chained agent policy (fair baseline +
//! library-burst override), with the solver's telemetry hub verifying where
//! work actually ran.

use numa_coop::agent::consensus::{ConsensusGroup, DemandProfile};
use numa_coop::agent::policies::{Chain, FairShare, LibraryBurst};
use numa_coop::agent::Agent;
use numa_coop::prelude::*;
use numa_coop::telemetry::ArgValue;
use numa_coop::topology::presets::paper_model_machine;
use numa_coop::workloads::graphs::{GraphPlacement, IterativeGraph};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn three_component_composition_end_to_end() {
    let machine = paper_model_machine();
    let names = ["solver", "analytics", "io"];
    // The solver runs on a hub: task spans and command instants land there.
    let hub = Arc::new(TelemetryHub::new());
    let runtimes: Vec<Arc<Runtime>> = names
        .iter()
        .map(|n| {
            let mut cfg = RuntimeConfig::new(n, machine.clone());
            if *n == "solver" {
                cfg = cfg.with_telemetry(Arc::clone(&hub));
            }
            Arc::new(Runtime::start(cfg).unwrap())
        })
        .collect();

    // --- Phase 1: startup partition by consensus (no agent). -------------
    let group = ConsensusGroup::new(machine.clone());
    let participants: Vec<_> = vec![
        group.join(
            "solver",
            DemandProfile::new(AppSpec::numa_local("solver", 4.0), 2.0),
            runtimes[0].control(),
        ),
        group.join(
            "analytics",
            DemandProfile::new(AppSpec::numa_local("analytics", 0.5), 1.0),
            runtimes[1].control(),
        ),
        group.join(
            "io",
            DemandProfile::new(AppSpec::numa_local("io", 1.0), 1.0),
            runtimes[2].control(),
        ),
    ];
    let agreed = std::thread::scope(|s| {
        let handles: Vec<_> = participants
            .iter()
            .map(|p| s.spawn(move || p.agree(Duration::from_secs(5)).unwrap()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert!(agreed.windows(2).all(|w| w[0] == w[1]));
    // The machine is fully partitioned, no over-subscription.
    let allocation = &agreed[0];
    for node in machine.node_ids() {
        assert_eq!(allocation.node_total(node), 8);
    }

    // --- Phase 2: run composed work under a chained agent policy. --------
    let mut agent = Agent::new(Box::new(Chain::new(vec![
        Box::new(FairShare::new(machine.clone())),
        Box::new(LibraryBurst::new(0, 2, machine.total_cores())),
    ])));
    for rt in &runtimes {
        agent.manage(Box::new(Arc::clone(rt)));
    }
    let agent = agent.spawn(Duration::from_millis(1)).unwrap();

    // Solver: the big steady component.
    let solver_graph = IterativeGraph::new(6, 12, 20_000);
    // Analytics: a rotating-wavefront component.
    let analytics_graph =
        IterativeGraph::new(4, 8, 10_000).with_placement(GraphPlacement::RoundRobin);
    // IO component bursts occasionally (drives the LibraryBurst override).
    let io_graph = IterativeGraph::new(2, 4, 5_000);

    std::thread::scope(|s| {
        let r0 = &runtimes[0];
        let r1 = &runtimes[1];
        let r2 = &runtimes[2];
        s.spawn(move || solver_graph.run(r0).unwrap());
        s.spawn(move || analytics_graph.run(r1).unwrap());
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            io_graph.run(r2).unwrap()
        });
    });

    let log = agent.stop();
    let events = hub.events();

    // Everything ran to completion.
    assert_eq!(Runtime::stats(&runtimes[0]).tasks_executed, 6 * 12 + 6);
    assert_eq!(Runtime::stats(&runtimes[1]).tasks_executed, 4 * 8 + 4);
    assert_eq!(Runtime::stats(&runtimes[2]).tasks_executed, 2 * 4 + 2);
    // The solver's hub captured its tasks, one lane per worker grouped by
    // node, and the thread commands that moved them.
    let tasks: Vec<_> = events.iter().filter(|e| e.cat == "task").collect();
    assert_eq!(tasks.len(), (6 * 12 + 6) as usize);
    assert!(tasks.iter().all(|e| e.lane >= 1
        && e.args.iter().any(|(k, v)| k == "node"
            && matches!(v, ArgValue::U64(n) if (*n as usize) < machine.num_nodes()))));
    assert!(events.iter().any(|e| e.cat == "control"));
    let perfetto = hub.to_perfetto_json();
    assert!(
        perfetto.contains("worker-0 (node 0)"),
        "lanes are named per node"
    );
    // The agent issued at least the fair-share round.
    assert!(
        log.decisions.len() >= 3,
        "decisions: {:?}",
        log.decisions.len()
    );
    // No runtime is left over-subscribed after the dust settles.
    std::thread::sleep(Duration::from_millis(20));
    for node in machine.node_ids() {
        let total: usize = runtimes
            .iter()
            .map(|rt| Runtime::stats(rt).per_node[node.0].running_workers)
            .sum();
        assert!(
            total <= 8 + 8,
            "node {node:?} badly over-subscribed: {total}"
        );
    }

    for rt in &runtimes {
        rt.shutdown();
    }
}
