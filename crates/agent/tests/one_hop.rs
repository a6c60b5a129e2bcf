//! The agent reaches a runtime through at most one thread: a
//! `proto::connect` endpoint brings its own (`<name>-endpoint`) and the
//! agent adopts it; every other handle is called in place by the agent's
//! one `coop-runner`, however many there are. No handle gets a thread of
//! its own in front of it. Counted from the kernel's list of this
//! process's threads, which is why this file holds a single test.
#![cfg(target_os = "linux")]

use coop_agent::policies::FairShare;
use coop_agent::{proto, Agent};
use coop_runtime::{Runtime, RuntimeConfig};
use numa_topology::presets::tiny;
use std::sync::Arc;

/// Names of this process's threads ending in `suffix` (the kernel keeps 15
/// bytes of a name, so the runtimes below have short ones).
fn threads_named(suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|name| name.ends_with(suffix))
        .collect();
    names.sort();
    names
}

#[test]
fn a_managed_runtime_is_one_thread_away() {
    let start = |name: &str| Arc::new(Runtime::start(RuntimeConfig::new(name, tiny())).unwrap());
    let (a, b, c, d) = (
        start("hop-a"),
        start("hop-b"),
        start("hop-c"),
        start("hop-d"),
    );
    let (ep_a, _pump_a) = proto::connect(Arc::clone(&a)).unwrap();
    let (ep_b, _pump_b) = proto::connect(Arc::clone(&b)).unwrap();

    let mut agent = Agent::new(Box::new(FairShare::new(tiny())));
    agent.manage(Box::new(ep_a));
    agent.manage(Box::new(ep_b));
    agent.manage(Box::new(Arc::clone(&c)));
    agent.manage(Box::new(Arc::clone(&d)));
    for _ in 0..3 {
        agent.tick().unwrap();
    }
    let log = agent.log();
    assert!(log.errors.is_empty(), "{:?}", log.errors);
    assert_eq!(log.decisions.len(), 4, "every runtime was reached");

    let endpoints = threads_named("-endpoint");
    let runners = threads_named("coop-runner");
    println!("serving threads: {endpoints:?} {runners:?}");
    assert_eq!(endpoints, ["hop-a-endpoint", "hop-b-endpoint"]);
    assert_eq!(runners, ["coop-runner"], "one runner serves both in place");
    assert!(
        threads_named("-courier").is_empty(),
        "no handle has its own"
    );

    for rt in [a, b, c, d] {
        rt.shutdown();
    }
}
