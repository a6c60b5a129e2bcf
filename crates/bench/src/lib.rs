//! # coop-bench
//!
//! The reproduction harness: one module (and one binary) per table and
//! figure of the paper, plus the extension experiments from `DESIGN.md`.
//! Each experiment returns a structured result whose `Display` prints the
//! same rows/series the paper reports, alongside the paper's published
//! values, so `cargo run -p coop-bench --bin repro_all` regenerates the
//! whole evaluation and `EXPERIMENTS.md` can be checked line by line.
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table I (uneven allocation, every intermediate row) |
//! | `table2` | Table II (even allocation, every intermediate row) |
//! | `fig2` | Figure 2 (three allocation scenarios: 254 / 140 / 128) |
//! | `fig3` | Figure 3 (NUMA-bad app: even 138.75 vs whole-node 150) |
//! | `table3` | Table III (model vs simulated hardware, 5 scenarios, incl. the paper's calibration procedure) |
//! | `fig1_pipeline` | Figure 1 architecture: producer-consumer with and without the agent |
//! | `oversub` | §II claim: over-subscription costs only a few percent |
//! | `sublinear` | §II claim: shifting cores away from a sub-linearly scaling app helps |
//! | `library_burst` | §II tight-integration "library application" scenario |
//! | `distributed` | §V: local-to-global speedup translation |
//! | `chaos_recovery` | partial failure: survivor throughput with reclaimed vs idle cores |
//! | `repro_all` | everything above, in order |

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod experiments;
pub mod report;
