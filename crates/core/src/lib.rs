//! # coop-alloc
//!
//! Core-allocation strategies and model-guided search for cooperating
//! dynamic applications.
//!
//! The paper argues that when several task-based applications share a NUMA
//! node, some entity (an agent process or a cooperative consensus among the
//! runtimes) must decide *how many threads each application runs on each
//! NUMA node*. This crate provides the decision-making layer:
//!
//! * [`strategies`] — the named allocations the paper discusses: fair
//!   share, even per-node splits, one whole NUMA node per application, and
//!   explicit uneven splits — plus [`strategies::contain`], the clamp to
//!   the fair-share row both supervision loops apply to a runaway tenant.
//! * [`Objective`] — what "best" means: total machine GFLOPS, the minimum
//!   application GFLOPS (egalitarian), or a weighted sum.
//! * [`enumerate`] — exhaustive enumeration of assignments for small
//!   configurations (with combinatorial counting so callers can bound the
//!   work before starting).
//! * [`search`] — optimizers over one oracle interface, [`Scorer`]:
//!   exhaustive (uniform or full, optionally fanned out across threads),
//!   greedy constructive, and seeded hill-climbing/annealing with
//!   multi-start portfolios. Each has one generic entry, `run_with`, over
//!   any scorer — [`ModelOracle`] for the `roofline-numa` model, or a
//!   closure — and `run` for the plain model. The paper leaves the "how to
//!   choose" question open as future work; these searches make the
//!   machinery concrete and are compared in the `alloc_search` ablation
//!   bench.
//! * [`separable`] — the exact decision for NUMA-local mixes under total
//!   GFLOPS: per-node column tables built once ([`ColumnTable`]), then a
//!   DP over nodes whose state is the set of applications served so far.
//! * [`cache`] — a memoized score store shared across strategies and agent
//!   ticks, keyed by the canonical assignment matrix and fingerprinted to
//!   one solving context. See `docs/performance.md` for the cost model.
//! * [`rng`] and [`cases`] — the workspace's one seeded random stream and
//!   the seeded case runner its property tests run on (std only; this is
//!   the lowest crate the search, both simulators and the workload
//!   generator share).
//!
//! ## Example: search beats the naive fair share
//!
//! ```
//! use numa_topology::presets::paper_model_machine;
//! use roofline_numa::AppSpec;
//! use coop_alloc::{search::GreedySearch, Objective, strategies};
//!
//! let machine = paper_model_machine();
//! let apps = vec![
//!     AppSpec::numa_local("mem1", 0.5),
//!     AppSpec::numa_local("mem2", 0.5),
//!     AppSpec::numa_local("mem3", 0.5),
//!     AppSpec::numa_local("comp", 10.0),
//! ];
//! let fair = strategies::fair_share(&machine, apps.len()).unwrap();
//! let fair_score = coop_alloc::score(&machine, &apps, &fair, &Objective::TotalGflops).unwrap();
//! let found = GreedySearch::new().run(&machine, &apps, &Objective::TotalGflops).unwrap();
//! assert!(found.score >= fair_score);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod cache;
pub mod cases;
pub mod enumerate;
mod error;
mod objective;
pub mod pareto;
pub mod rng;
pub mod search;
pub mod separable;
pub mod strategies;

pub use cache::{context_fingerprint, CacheStats, ScoreCache};
pub use error::AllocError;
pub use objective::{score, Objective};
pub use pareto::{pareto_frontier, ParetoPoint};
pub use search::{ModelOracle, Portfolio, Scorer, SearchCounters, SearchResult};
pub use separable::ColumnTable;

// Re-export the assignment type: it is the lingua franca between this
// crate, the model, the agent, and the simulator.
pub use roofline_numa::ThreadAssignment;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, AllocError>;
