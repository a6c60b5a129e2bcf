//! Execution tracing end to end: run an iterative task graph under
//! changing thread-control commands, export a Chrome/Perfetto trace, and
//! explain the model's view of the same allocation.
//!
//! Run with: `cargo run --release --example traced_execution`
//! Then open `target/trace.json` at <https://ui.perfetto.dev>.

use numa_coop::model::explain::explain;
use numa_coop::prelude::*;
use numa_coop::telemetry::ArgValue;
use numa_coop::topology::presets::paper_model_machine;
use numa_coop::workloads::graphs::{GraphPlacement, IterativeGraph};
use std::sync::Arc;

fn main() {
    let machine = paper_model_machine();
    let hub = Arc::new(TelemetryHub::new());
    let rt = Runtime::start(
        RuntimeConfig::new("traced", machine.clone()).with_telemetry(Arc::clone(&hub)),
    )
    .unwrap();

    // Phase 1: full machine, rotating placement.
    IterativeGraph::new(8, 16, 40_000)
        .with_placement(GraphPlacement::RoundRobin)
        .run(&rt)
        .unwrap();

    // Phase 2: an agent-style command shrinks the runtime to node 0 only,
    // and the same graph runs again — the trace shows the lanes collapse.
    rt.control()
        .apply(ThreadCommand::PerNode(vec![8, 0, 0, 0]))
        .unwrap();
    IterativeGraph::new(8, 16, 40_000).run(&rt).unwrap();

    // Every executed task is one `task` span carrying the node it ran on.
    let events = hub.events();
    let mut per_node = vec![0usize; machine.num_nodes()];
    for e in events.iter().filter(|e| e.cat == "task") {
        if let Some((_, ArgValue::U64(node))) = e.args.iter().find(|(k, _)| k == "node") {
            per_node[*node as usize] += 1;
        }
    }
    println!(
        "traced {} task events ({} dropped); tasks per node: {:?}",
        per_node.iter().sum::<usize>(),
        hub.dropped(),
        per_node
    );

    let path = "target/trace.json";
    std::fs::write(path, hub.to_perfetto_json()).expect("write trace");
    println!("wrote {path} — open it at https://ui.perfetto.dev");

    // The model's view of the two phases.
    let apps = vec![AppSpec::numa_local("graph", 8.0)];
    for (label, counts) in [("full machine", vec![8usize]), ("node 0 only", vec![8])] {
        let assignment = if label == "full machine" {
            ThreadAssignment::uniform_per_node(&machine, &counts)
        } else {
            let mut a = ThreadAssignment::zero(&machine, 1);
            a.set(0, NodeId(0), 8);
            a
        };
        let report = solve(&machine, &apps, &assignment).unwrap();
        println!(
            "\n== model view: {label} ({:.0} GFLOPS) ==",
            report.total_gflops()
        );
        print!("{}", explain(&machine, &report));
    }

    rt.shutdown();
}
