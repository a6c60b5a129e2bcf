//! Property-based tests for the iterative-graph builder: any shape runs
//! to completion with exactly the expected task counts, under arbitrary
//! placement policies.

use coop_alloc::cases::check;
use coop_runtime::{Runtime, RuntimeConfig};
use coop_workloads::graphs::{GraphPlacement, IterativeGraph};
use numa_topology::presets::tiny;
use numa_topology::NodeId;

const CASES: usize = 16;

#[test]
fn any_shape_completes_exactly() {
    check(1, CASES, |g| {
        let (iterations, width) = (g.range(0..6usize), g.range(1..7usize));
        let placement = g.range(0..3u8);
        let machine = tiny();
        let rt = Runtime::start(RuntimeConfig::new("prop-graph", machine)).unwrap();
        let g = IterativeGraph::new(iterations, width, 200).with_placement(match placement {
            0 => GraphPlacement::Unpinned,
            1 => GraphPlacement::RoundRobin,
            _ => GraphPlacement::SingleNode(NodeId(placement as usize % 2)),
        });
        let stats = g.run(&rt).unwrap();
        assert_eq!(stats.tasks_run, (iterations * width) as u64);
        assert_eq!(stats.rounds_done, iterations as u64);
        // Worker tasks + one join task per round.
        assert_eq!(
            rt.stats().tasks_executed,
            (iterations * width + iterations) as u64
        );
        rt.shutdown();
    });
}

/// Running two graphs concurrently on one runtime interleaves safely.
#[test]
fn concurrent_graphs_share_a_runtime() {
    check(2, CASES, |g| {
        let (w1, w2) = (g.range(1..5usize), g.range(1..5usize));
        let rt = Runtime::start(RuntimeConfig::new("dual", tiny())).unwrap();
        let g1 = IterativeGraph::new(3, w1, 200);
        let g2 = IterativeGraph::new(2, w2, 200).with_placement(GraphPlacement::RoundRobin);
        let (d1, t1, _) = g1.spawn(&rt).unwrap();
        let (d2, t2, _) = g2.spawn(&rt).unwrap();
        rt.wait_quiescent().unwrap();
        assert!(d1.is_satisfied());
        assert!(d2.is_satisfied());
        assert_eq!(
            t1.load(std::sync::atomic::Ordering::Relaxed),
            (3 * w1) as u64
        );
        assert_eq!(
            t2.load(std::sync::atomic::Ordering::Relaxed),
            (2 * w2) as u64
        );
        rt.shutdown();
    });
}
