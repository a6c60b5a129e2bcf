//! # numa-topology
//!
//! A model of a non-uniform memory access (NUMA) compute node, as used by the
//! core-allocation machinery of the `numa-coop` workspace.
//!
//! The paper this workspace reproduces ("NUMA-aware CPU core allocation in
//! cooperating dynamic applications", Dokulil & Benkner, 2020) reasons about
//! machines in terms of a small number of quantities: the set of NUMA nodes,
//! the CPU cores belonging to each node, the peak floating-point performance
//! of a core, the peak memory bandwidth of each node's local memory, and the
//! peak bandwidth of the interconnect link between each pair of nodes. This
//! crate provides exactly that vocabulary:
//!
//! * [`Machine`] — an immutable, validated machine description built via
//!   [`MachineBuilder`] or loaded from JSON ([`Machine::from_json`]).
//! * [`NodeId`] / [`CoreId`] — typed identifiers. Cores are numbered globally
//!   and contiguously, node by node, like Linux CPU numbering on a socket-
//!   ordered system.
//! * [`CpuSet`] — an affinity mask over the machine's cores with the usual
//!   set algebra, mirroring `cpu_set_t`.
//! * [`BindingKind`] — the three binding granularities the paper's runtime
//!   supports for worker threads: a specific core, any core of a NUMA node,
//!   or unbound.
//! * [`presets`] — ready-made machines, including the exact configurations
//!   needed to regenerate the paper's Tables I–III and Figures 2–3.
//!
//! The model deliberately stops at the level of detail the paper uses: cores
//! are homogeneous within a machine, caches are not modelled here (the
//! execution simulator in the `memsim` crate layers second-order effects on
//! top), and memory capacity is tracked only so that data-placement decisions
//! can be validated ("we assume that there is enough memory available on the
//! node", §I).
//!
//! ## Example
//!
//! ```
//! use numa_topology::{MachineBuilder, NodeId};
//!
//! // The machine used by the paper's worked examples (Tables I and II):
//! // 4 NUMA nodes x 8 cores, 10 GFLOPS per core, 32 GB/s per node.
//! let machine = MachineBuilder::new()
//!     .symmetric_nodes(4, 8)
//!     .core_peak_gflops(10.0)
//!     .node_bandwidth_gbs(32.0)
//!     .uniform_link_gbs(10.0)
//!     .build()
//!     .unwrap();
//!
//! assert_eq!(machine.num_nodes(), 4);
//! assert_eq!(machine.total_cores(), 32);
//! assert_eq!(machine.node(NodeId(2)).num_cores(), 8);
//! assert!((machine.peak_machine_gflops() - 320.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod affinity;
mod cpuset;
mod error;
pub mod host;
mod ids;
mod machine;
pub mod presets;

pub use affinity::BindingKind;
pub use cpuset::CpuSet;
pub use error::TopologyError;
pub use ids::{CoreId, NodeId};
pub use machine::{LinkMatrix, Machine, MachineBuilder, Node};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, TopologyError>;
