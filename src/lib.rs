//! # numa-coop
//!
//! NUMA-aware CPU core allocation for cooperating dynamic applications —
//! a from-scratch Rust implementation of the system described in
//! J. Dokulil & S. Benkner, *"NUMA-aware CPU core allocation in
//! cooperating dynamic applications"* (2020), together with every
//! substrate its evaluation depends on.
//!
//! This crate is the facade: it re-exports the workspace's crates under
//! one roof and hosts the runnable examples and cross-crate integration
//! tests. The pieces:
//!
//! | module | crate | what it is |
//! |--------|-------|------------|
//! | [`topology`] | `numa-topology` | machine model: NUMA nodes, cores, bandwidths, links, cpusets |
//! | [`model`] | `roofline-numa` | the paper's analytic bandwidth-sharing model (§III.A) |
//! | [`alloc`] | `coop-alloc` | allocation strategies, enumeration, model-guided search |
//! | [`runtime`] | `coop-runtime` | OCR-Vx-style task runtime with the three thread-blocking options |
//! | [`agent`] | `coop-agent` | the Figure 1 arbitration agent and its policies |
//! | [`sim`] | `memsim` | execution-driven NUMA hardware simulator (the §III.B testbed substitute) |
//! | [`workloads`] | `coop-workloads` | kernels, paper scenario mixes, producer-consumer pipeline |
//! | [`dist`] | `distsim` | §V distributed-translation simulator |
//! | [`telemetry`] | `coop-telemetry` | shared metrics registry + unified timeline (Perfetto/Prometheus exporters) |
//!
//! ## Quickstart
//!
//! Score the paper's Table I scenario and ask the searcher for something
//! better:
//!
//! ```
//! use numa_coop::prelude::*;
//!
//! let machine = numa_coop::topology::presets::paper_model_machine();
//! let apps = vec![
//!     AppSpec::numa_local("mem1", 0.5),
//!     AppSpec::numa_local("mem2", 0.5),
//!     AppSpec::numa_local("mem3", 0.5),
//!     AppSpec::numa_local("comp", 10.0),
//! ];
//! let uneven = ThreadAssignment::uniform_per_node(&machine, &[1, 1, 1, 5]);
//! let report = solve(&machine, &apps, &uneven).unwrap();
//! assert!((report.total_gflops() - 254.0).abs() < 1e-9); // Table I
//! ```
//!
//! See `examples/` for end-to-end scenarios (runtime + agent pipelines,
//! model-guided partitioning, distributed translation) and the
//! `coop-bench` crate for the binaries that regenerate every table and
//! figure of the paper.

pub use coop_agent as agent;
pub use coop_alloc as alloc;
pub use coop_runtime as runtime;
pub use coop_telemetry as telemetry;
pub use coop_workloads as workloads;
pub use distsim as dist;
pub use memsim as sim;
pub use numa_topology as topology;
pub use roofline_numa as model;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use coop_agent::{Agent, Policy, RuntimeHandle, ThreadCommand};
    pub use coop_alloc::{score, strategies, Objective, ThreadAssignment};
    pub use coop_runtime::{Runtime, RuntimeConfig, RuntimeStats};
    pub use coop_telemetry::{SloEngine, SloSpec, TelemetryHub, TenantLedger};
    pub use memsim::{EffectModel, SimApp, SimConfig, Simulation};
    pub use numa_topology::{CoreId, CpuSet, Machine, MachineBuilder, NodeId};
    pub use roofline_numa::{solve, AppSpec, DataPlacement, SolveReport};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let machine = crate::topology::presets::tiny();
        let apps = vec![AppSpec::numa_local("a", 1.0)];
        let assignment = ThreadAssignment::uniform_per_node(&machine, &[1]);
        let report = solve(&machine, &apps, &assignment).unwrap();
        assert!(report.total_gflops() > 0.0);
    }
}
