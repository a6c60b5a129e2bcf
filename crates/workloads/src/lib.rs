//! # coop-workloads
//!
//! Workloads for the `numa-coop` reproduction: the synthetic kernels of the
//! paper's §III.B benchmark, the exact application mixes of its evaluation
//! scenarios, the producer-consumer pipeline of its Figure 1 / SBAC-PAD'18
//! experiment, and seeded random workload generators for the ablation
//! benches.
//!
//! * [`kernels`] — actually-executable micro-kernels (STREAM-like triad,
//!   FMA compute loop, dependent-load pointer chase) with measured GFLOPS
//!   and bandwidth, used by the examples to demonstrate the library on the
//!   host machine.
//! * [`apps`] — the paper's application mixes as reusable constructors, so
//!   benches, tests and examples all agree on what "the Table I apps" are.
//! * [`pipeline`] — a two-runtime producer-consumer pipeline whose
//!   intermediate-queue depth ("the producer is only ahead by a small
//!   number of iterations") is the quantity the paper's agent controls.
//! * [`graphs`] — structured iterative fork-join task graphs (the BSP
//!   shape the paper's applications have).
//! * [`generator`] — seeded random machines and application mixes for
//!   search/solver stress tests and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod apps;
pub mod generator;
pub mod graphs;
pub mod kernels;
pub mod pipeline;
