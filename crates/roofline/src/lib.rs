//! # roofline-numa
//!
//! The analytic performance model at the core of "NUMA-aware CPU core
//! allocation in cooperating dynamic applications" (Dokulil & Benkner,
//! 2020), §III.A.
//!
//! The model answers one question: *given a NUMA machine, a set of
//! applications characterised by their arithmetic intensity and data
//! placement, and an assignment of worker threads to NUMA nodes, how many
//! GFLOPS does each application achieve?* It is a roofline model extended
//! with an explicit arbitration rule for how the memory bandwidth of each
//! NUMA node is shared between the threads that access it.
//!
//! ## The model's assumptions (paper §III.A, normative)
//!
//! 1. a single CPU core has the same peak GFLOPS for each application;
//! 2. for computation, cores are completely independent (no DVFS);
//! 3. each thread tries to access memory at the bandwidth implied by its
//!    application's arithmetic intensity and the core's peak GFLOPS
//!    (a 10 GFLOPS core running AI=2 code attempts 5 GB/s);
//! 4. memory bandwidth is shared by all cores of the same NUMA node;
//! 5. the achieved bandwidth is split so that every thread is guaranteed
//!    its equal per-core share (the *baseline*), and the remainder is
//!    split proportionally to the demand above the baseline.
//!
//! The cross-node extension (used for "NUMA-bad" applications that keep all
//! their data on a single node) adds: a node's memory first serves requests
//! arriving from other NUMA nodes, up to the link bandwidth from each
//! remote node, and only then arbitrates the remaining bandwidth among
//! local threads as above.
//!
//! ## Entry points
//!
//! * [`AppSpec`] — an application: arithmetic intensity + data placement.
//! * [`ThreadAssignment`] — how many worker threads each application runs
//!   on each NUMA node (the paper's blocking option 3 vocabulary).
//! * [`solve`] — run the model, producing a [`SolveReport`] with per-thread
//!   bandwidth grants and per-application GFLOPS.
//! * [`trace::solve_traced`] — the same computation, additionally producing
//!   the step-by-step rows of the paper's Tables I and II.
//!
//! ## Example: Table I of the paper
//!
//! ```
//! use numa_topology::presets::paper_model_machine;
//! use roofline_numa::{solve, AppSpec, ThreadAssignment};
//!
//! let machine = paper_model_machine();
//! let apps = vec![
//!     AppSpec::numa_local("mem1", 0.5),
//!     AppSpec::numa_local("mem2", 0.5),
//!     AppSpec::numa_local("mem3", 0.5),
//!     AppSpec::numa_local("comp", 10.0),
//! ];
//! // 1 thread per node for each memory-bound app, 5 for the compute-bound.
//! let assignment = ThreadAssignment::uniform_per_node(&machine, &[1, 1, 1, 5]);
//! let report = solve(&machine, &apps, &assignment).unwrap();
//! assert!((report.total_gflops() - 254.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod app;
mod assignment;
mod delta;
mod error;
pub mod explain;
mod report;
mod solver;
pub mod sweep;
pub mod trace;

pub use app::{AppSpec, DataPlacement};
pub use assignment::ThreadAssignment;
pub use delta::DeltaSolver;
pub use error::ModelError;
pub use report::{AppReport, NodeReport, SolveReport, ThreadGrant};
pub use solver::{
    solve, solve_gflops, solve_with_options, BaselinePolicy, LocalColumn, SolveOptions,
    SolveScratch,
};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, ModelError>;
