//! Model-guided allocation search.
//!
//! The paper stops at "the runtime systems would agree on core allocation"
//! and leaves the choosing to future work; these optimizers make the step
//! concrete. Every search consults one oracle interface, [`Scorer`], through
//! one generic entry, `run_with`: [`ModelOracle`] scores with the
//! `roofline-numa` model, and any `FnMut(&ThreadAssignment) -> Result<f64>`
//! closure is a scorer too, so a measured oracle (e.g. `memsim` runs) is a
//! different closure at the call site. `run` is the plain-model shorthand.
//!
//! * [`ExhaustiveSearch`] — optimal, over the uniform space or (bounded)
//!   the full space. [`ExhaustiveSearch::with_threads`] fans the enumerated
//!   space out across OS threads in contiguous index chunks; results are
//!   bit-identical at any thread count thanks to a canonical tie-break
//!   (highest score wins; equal scores resolve toward the lexicographically
//!   smallest count matrix).
//! * [`GreedySearch`] — constructive: repeatedly adds the single thread
//!   whose addition improves the objective most. `O(cores * apps * nodes)`
//!   oracle calls.
//! * [`HillClimb`] — seeded stochastic local search over move/swap
//!   neighbourhoods, starting from a fair share (or any given start).
//! * [`SimulatedAnnealing`] — like the hill climb, but accepts worsening
//!   moves with a temperature-controlled probability, escaping the local
//!   optima that trap greedy/hill-climb on placement-sensitive mixes.
//! * [`ColumnTable`](crate::ColumnTable) (module [`separable`](crate::separable)) —
//!   exact, not a [`Scorer`] search: when every application is NUMA-local
//!   and the objective [`Objective::TotalGflops`], per-node column tables
//!   built once and a DP over served-application sets give the optimum with
//!   every application kept at one thread or more. It returns `None` for a
//!   coupled mix, another objective or past 10 applications, and the caller
//!   falls back to the searches above; the agent's `ModelGuided` does
//!   (greedy cold, warm hill climb).
//!
//! The local searches also offer a multi-start **portfolio** mode
//! ([`HillClimb::run_portfolio`], [`SimulatedAnnealing::run_portfolio`])
//! that races independent seeds — optionally in parallel — and keeps the
//! best result (earliest seed wins ties, so the outcome is independent of
//! thread count).
//!
//! Scoring cost is attacked on four fronts (see `docs/performance.md`):
//! [`ModelOracle`] reuses solver scratch space so the hot loop allocates
//! nothing, re-scores local moves incrementally via
//! [`roofline_numa::DeltaSolver`], can memoize full scores in a shared
//! [`ScoreCache`], and certifies a warm start that is a strict local
//! optimum ([`ModelOracle::certify_base`]) so that a re-search from an
//! unchanged incumbent proposes nothing. [`SearchCounters`] reports how
//! much real solver work a search performed versus how many candidates it
//! evaluated.
//!
//! The `alloc_search` bench compares cost and quality.

use crate::cache::ScoreCache;
use crate::rng::StdRng;
use crate::{enumerate, strategies, AllocError, Objective, Result};
use numa_topology::{Machine, NodeId};
use roofline_numa::{
    solve_gflops, AppSpec, DeltaSolver, SolveOptions, SolveScratch, ThreadAssignment,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Breakdown of the real solver work behind a search's evaluations.
///
/// `evaluations` in [`SearchResult`] counts *candidates scored*; these
/// counters say how each score was produced. Their sum can be below the
/// evaluation count when some candidates were answered without any solve at
/// all (e.g. the starvation penalty in [`ModelOracle::with_min_threads`]),
/// and above it by the probes that certified, or failed to certify, a warm
/// start ([`ModelOracle::certify_base`]): those are not proposals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchCounters {
    /// Candidates scored by a full model solve.
    pub full_solves: u64,
    /// Candidates scored by an incremental (per-node-column) delta solve.
    pub delta_solves: u64,
    /// Candidates answered from a [`ScoreCache`].
    pub cache_hits: u64,
}

impl SearchCounters {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: SearchCounters) {
        self.full_solves += other.full_solves;
        self.delta_solves += other.delta_solves;
        self.cache_hits += other.cache_hits;
    }
}

/// Outcome of a search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best assignment found.
    pub assignment: ThreadAssignment,
    /// Its objective value.
    pub score: f64,
    /// How many candidate assignments were scored. For exhaustive searches
    /// this is the enumerated space size regardless of thread count or cache
    /// hits; for local searches it counts the start plus the proposals that
    /// reached the oracle — 1 when a hill climb's warm start was certified.
    pub evaluations: usize,
    /// How the scores were produced (zero for a scorer that counts
    /// nothing, such as a closure).
    pub counters: SearchCounters,
    /// `true` if an exhaustive search stopped at its candidate limit instead
    /// of covering the whole space (see [`ExhaustiveSearch::truncating`]).
    pub truncated: bool,
}

/// What a search asks of whatever scores its candidates: the one oracle
/// interface of this module. Only `score` is required; the defaults
/// describe an opaque oracle, which scores every candidate from scratch,
/// keeps no base and counts nothing — what every
/// `FnMut(&ThreadAssignment) -> Result<f64>` closure is. [`ModelOracle`]
/// overrides them all. Each search loop is written once over this trait
/// and monomorphised per scorer, so the [`ModelOracle`] path has no
/// dynamic dispatch. A parallel exhaustive scan builds one scorer per
/// worker inside the worker ([`ExhaustiveSearch::run_with`]), so scorers
/// need neither `Send` nor `Sync`.
pub trait Scorer {
    /// Scores an assignment (higher is better).
    fn score(&mut self, assignment: &ThreadAssignment) -> Result<f64>;
    /// Scores `base` and makes it the incumbent of later `score_move`s.
    fn set_base(&mut self, base: &ThreadAssignment) -> Result<f64> {
        self.score(base)
    }
    /// Scores a candidate differing from the incumbent on `touched` only.
    fn score_move(&mut self, candidate: &ThreadAssignment, _touched: &[NodeId]) -> Result<f64> {
        self.score(candidate)
    }
    /// Adopts a candidate just scored by `score_move` as the incumbent.
    fn accept(&mut self, _candidate: &ThreadAssignment, _touched: &[NodeId]) -> Result<()> {
        Ok(())
    }
    /// `true` only if no neighbour of the incumbent can be accepted.
    fn certify_base(&mut self) -> bool {
        false
    }
    /// Returns and resets the solver-work counters.
    fn take_counters(&mut self) -> SearchCounters {
        SearchCounters::default()
    }
}

impl<F: FnMut(&ThreadAssignment) -> Result<f64>> Scorer for F {
    fn score(&mut self, assignment: &ThreadAssignment) -> Result<f64> {
        self(assignment)
    }
}

/// The analytic-model oracle, packaged with everything that makes repeated
/// scoring cheap: reusable solver scratch (no per-candidate allocation), an
/// incremental [`DeltaSolver`] for local moves, an optional shared
/// [`ScoreCache`], and an optional starvation penalty for cooperating
/// applications that must keep a minimum thread count.
///
/// Local searches drive it through [`set_base`](ModelOracle::set_base) /
/// [`score_move`](ModelOracle::score_move) /
/// [`accept`](ModelOracle::accept); exhaustive searches call
/// [`score`](ModelOracle::score) per candidate.
#[derive(Debug)]
pub struct ModelOracle<'a> {
    machine: &'a Machine,
    apps: &'a [AppSpec],
    objective: &'a Objective,
    min_threads: usize,
    context_fp: u64,
    cache: Option<Arc<ScoreCache>>,
    delta: DeltaSolver<'a>,
    scratch: SolveScratch,
    key_buf: Vec<u32>,
    counters: SearchCounters,
    /// What is known about the delta solver's committed base; `None` until
    /// [`set_base`](ModelOracle::set_base) has run, and whenever the base
    /// or the thread floor may have changed since.
    known_base: Option<KnownBase>,
}

#[derive(Debug, Clone, Copy)]
struct KnownBase {
    /// The base's score, penalty included.
    score: f64,
    /// The remembered answer of
    /// [`certify_base`](ModelOracle::certify_base), once asked.
    strict: Option<bool>,
}

impl<'a> ModelOracle<'a> {
    /// Creates an oracle over a fixed solving context.
    pub fn new(
        machine: &'a Machine,
        apps: &'a [AppSpec],
        objective: &'a Objective,
    ) -> Result<Self> {
        let delta = DeltaSolver::new(machine, apps)?;
        Ok(ModelOracle {
            machine,
            apps,
            objective,
            min_threads: 0,
            context_fp: crate::cache::context_fingerprint(machine, apps, objective),
            cache: None,
            delta,
            scratch: SolveScratch::new(),
            key_buf: Vec::new(),
            counters: SearchCounters::default(),
            known_base: None,
        })
    }

    /// Penalizes assignments that give any application fewer than
    /// `min_threads` threads machine-wide: such candidates score
    /// `-(starved_apps) * 1e12` without consulting the model. This is the
    /// cooperation constraint the paper motivates — starving a cooperating
    /// application is counterproductive even when it maximizes raw GFLOPS.
    ///
    /// Changes the context fingerprint; set it *before*
    /// [`with_cache`](ModelOracle::with_cache).
    pub fn with_min_threads(mut self, min_threads: usize) -> Self {
        self.min_threads = min_threads;
        // The floor is part of every score: what was known about the base
        // under the old floor no longer holds.
        self.known_base = None;
        self
    }

    /// Attaches a shared score cache. The cache's fingerprint must equal
    /// [`fingerprint`](ModelOracle::fingerprint), else
    /// [`AllocError::CacheMismatch`] — cached scores are only meaningful for
    /// the exact context they were computed under.
    pub fn with_cache(mut self, cache: Arc<ScoreCache>) -> Result<Self> {
        let expected = self.fingerprint();
        if cache.fingerprint() != expected {
            return Err(AllocError::CacheMismatch {
                expected,
                actual: cache.fingerprint(),
            });
        }
        self.cache = Some(cache);
        Ok(self)
    }

    /// Fingerprint of this oracle's scoring context: the machine/apps/
    /// objective fingerprint ([`crate::cache::context_fingerprint`]) mixed
    /// with the minimum-threads penalty parameter. Build [`ScoreCache`]s for
    /// this oracle from this value.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.context_fp.hash(&mut h);
        self.min_threads.hash(&mut h);
        h.finish()
    }

    /// Number of applications in the context.
    pub(crate) fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// The starvation penalty for `assignment`, if any.
    fn penalty(&self, assignment: &ThreadAssignment) -> Option<f64> {
        if self.min_threads == 0 {
            return None;
        }
        let starved = (0..self.apps.len())
            .filter(|&i| assignment.app_total(i) < self.min_threads)
            .count();
        if starved > 0 {
            Some(-(starved as f64) * 1e12)
        } else {
            None
        }
    }
}

/// The model's scorer: a local search's [`set_base`](Scorer::set_base),
/// [`score_move`](Scorer::score_move) and [`accept`](Scorer::accept) fold
/// into the [`DeltaSolver`], and [`take_counters`](Scorer::take_counters)
/// reports the solver work since construction or the last call.
impl Scorer for ModelOracle<'_> {
    /// Scores an arbitrary assignment: penalty check, then cache, then a
    /// full solve (inserted into the cache on the way out).
    fn score(&mut self, assignment: &ThreadAssignment) -> Result<f64> {
        if let Some(p) = self.penalty(assignment) {
            return Ok(p);
        }
        if let Some(cache) = &self.cache {
            ScoreCache::key_of(assignment, &mut self.key_buf);
            if let Some(s) = cache.lookup_key(&self.key_buf) {
                self.counters.cache_hits += 1;
                return Ok(s);
            }
        }
        let gflops = solve_gflops(
            self.machine,
            self.apps,
            assignment,
            SolveOptions::default(),
            &mut self.scratch,
        )?;
        self.counters.full_solves += 1;
        let s = self.objective.evaluate_gflops(gflops)?;
        if let Some(cache) = &self.cache {
            cache.insert_key(&self.key_buf, s);
        }
        Ok(s)
    }

    /// Full-solves `base` and makes it the incumbent for subsequent
    /// [`score_move`](ModelOracle::score_move) probes. Returns its score
    /// (penalty included, matching [`score`](ModelOracle::score)).
    ///
    /// Handed the assignment that already is the committed base, it solves
    /// nothing and returns the score it has: a supervisor that re-searches
    /// from an unchanged incumbent every tick pays for the base once.
    fn set_base(&mut self, base: &ThreadAssignment) -> Result<f64> {
        if let Some(known) = self.known_base {
            if self.delta.is_base(base) {
                return Ok(known.score);
            }
        }
        self.known_base = None;
        let penalty = self.penalty(base);
        let totals = self.delta.rebase(base)?;
        self.counters.full_solves += 1;
        let score = match penalty {
            Some(p) => p,
            None => self.objective.evaluate_gflops(totals)?,
        };
        self.known_base = Some(KnownBase {
            score,
            strict: None,
        });
        Ok(score)
    }

    /// `true` if the committed base is a **strict local optimum**: no
    /// feasible move/add/remove neighbour scores `>=` the base, which is
    /// [`HillClimb`]'s own acceptance test — so a climb from the base can
    /// accept nothing and returns it, whatever its seed and iteration
    /// count. The neighbourhood (at most `apps × (nodes² + nodes)`
    /// candidates) is probed through
    /// [`score_move`](ModelOracle::score_move) up to the first neighbour
    /// the climb would accept, and the answer is remembered until the base
    /// changes.
    ///
    /// Never certifies a base that scores the starvation penalty. Nor a
    /// context with a non-local application: a probe there is a full solve
    /// or a lookup in the shared score cache, and the attempt would change
    /// what that cache is asked and holds (`docs/performance.md`,
    /// "Certified optima", has the numbers).
    fn certify_base(&mut self) -> bool {
        let Some(KnownBase { score, strict }) = self.known_base else {
            return false;
        };
        if let Some(known) = strict {
            return known;
        }
        let verdict = self.delta.is_separable() && self.penalty(self.delta.base()).is_none() && {
            let machine = self.machine;
            let mut candidate = self.delta.base().clone();
            strict_local_optimum(machine, &mut candidate, score, &mut |c, touched| {
                self.score_move(c, touched)
            })
        };
        self.known_base = Some(KnownBase {
            score,
            strict: Some(verdict),
        });
        verdict
    }

    /// Scores a local move: `candidate` must differ from the incumbent base
    /// only on the `touched` nodes. On separable contexts (all apps
    /// NUMA-local) this re-solves only the touched node columns; otherwise
    /// it consults the cache and falls back to a full solve.
    fn score_move(&mut self, candidate: &ThreadAssignment, touched: &[NodeId]) -> Result<f64> {
        if let Some(p) = self.penalty(candidate) {
            return Ok(p);
        }
        if self.delta.is_separable() {
            // A column probe is cheaper than hashing the whole assignment,
            // so the cache is deliberately skipped on this path.
            let incremental = self.delta.has_base();
            let totals = self.delta.probe(candidate, touched)?;
            if incremental {
                self.counters.delta_solves += 1;
            } else {
                self.counters.full_solves += 1;
            }
            return self.objective.evaluate_gflops(totals);
        }
        if let Some(cache) = &self.cache {
            ScoreCache::key_of(candidate, &mut self.key_buf);
            if let Some(s) = cache.lookup_key(&self.key_buf) {
                self.counters.cache_hits += 1;
                return Ok(s);
            }
        }
        let totals = self.delta.probe(candidate, touched)?;
        self.counters.full_solves += 1;
        let s = self.objective.evaluate_gflops(totals)?;
        if let Some(cache) = &self.cache {
            cache.insert_key(&self.key_buf, s);
        }
        Ok(s)
    }

    /// Adopts `candidate` (which must differ from the base only on
    /// `touched`) as the new incumbent base. On separable contexts this
    /// costs one column re-probe; otherwise it is free (every probe
    /// full-solves anyway).
    fn accept(&mut self, candidate: &ThreadAssignment, touched: &[NodeId]) -> Result<()> {
        if self.delta.is_separable() {
            // The committed base is about to change: forget what was known
            // first, so a failed probe leaves nothing stale behind.
            self.known_base = None;
            let penalty = self.penalty(candidate);
            let totals = self.delta.probe(candidate, touched)?;
            self.counters.delta_solves += 1;
            let score = match penalty {
                Some(p) => p,
                None => self.objective.evaluate_gflops(totals)?,
            };
            self.delta.commit(candidate);
            self.known_base = Some(KnownBase {
                score,
                strict: None,
            });
        }
        Ok(())
    }

    fn take_counters(&mut self) -> SearchCounters {
        std::mem::take(&mut self.counters)
    }
}

/// One step of the local-search neighbourhood: a thread of `app` leaves
/// `from` and/or arrives on `to`. Both set is a move between nodes, `to`
/// alone an added thread, `from` alone a removed one. [`HillClimb`] and
/// [`SimulatedAnnealing`] draw their proposals from it and
/// [`ModelOracle::certify_base`] enumerates it, so "neighbour" has one
/// definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Move {
    app: usize,
    from: Option<NodeId>,
    to: Option<NodeId>,
}

impl Move {
    /// Draws a proposal: the application, then the kind, then the kind's
    /// nodes — both nodes of a move before either is looked at. Seeded
    /// searches depend on this order.
    fn draw(rng: &mut StdRng, num_apps: usize, nodes: usize) -> Move {
        let app = rng.gen_range(0..num_apps);
        let kind = rng.gen_range(0..3u8);
        let mut node = || Some(NodeId(rng.gen_range(0..nodes)));
        let (from, to) = match kind {
            0 => {
                let from = node();
                (from, node())
            }
            1 => (None, node()),
            _ => (node(), None),
        };
        Move { app, from, to }
    }

    /// Every move of the neighbourhood, feasible or not, in a fixed order.
    fn all(num_apps: usize, nodes: usize) -> impl Iterator<Item = Move> {
        let ends = move || std::iter::once(None).chain((0..nodes).map(|n| Some(NodeId(n))));
        (0..num_apps).flat_map(move |app| {
            ends().flat_map(move |from| ends().map(move |to| Move { app, from, to }))
        })
    }

    /// `true` if applying the move to `a` takes a thread that exists and
    /// puts it on a node with a free core.
    fn feasible(&self, a: &ThreadAssignment, machine: &Machine) -> bool {
        self.from != self.to
            && self.from.is_none_or(|n| a.get(self.app, n) > 0)
            && self
                .to
                .is_none_or(|n| a.node_total(n) < machine.node(n).num_cores())
    }

    fn apply(&self, a: &mut ThreadAssignment) {
        if let Some(n) = self.from {
            a.set(self.app, n, a.get(self.app, n) - 1);
        }
        if let Some(n) = self.to {
            a.set(self.app, n, a.get(self.app, n) + 1);
        }
    }

    /// Restores what [`apply`](Move::apply) changed.
    fn undo(&self, a: &mut ThreadAssignment) {
        Move {
            app: self.app,
            from: self.to,
            to: self.from,
        }
        .apply(a);
    }

    /// The nodes whose thread counts the move changes, `from` first.
    fn touched(&self) -> ([NodeId; 2], usize) {
        match (self.from, self.to) {
            (Some(from), Some(to)) => ([from, to], 2),
            (Some(n), None) | (None, Some(n)) => ([n; 2], 1),
            (None, None) => ([NodeId(0); 2], 0),
        }
    }
}

/// The test behind [`ModelOracle::certify_base`], over any move scorer:
/// `true` if no feasible neighbour of `base` passes the hill climb's
/// acceptance test `s >= base_score` (a NaN score, or a NaN base, accepts
/// nothing — as in the climb). A neighbour whose probe fails counts as
/// acceptable: the certificate is then withheld and the climb runs, and
/// fails, exactly as it would have. `base` is restored before returning.
fn strict_local_optimum(
    machine: &Machine,
    base: &mut ThreadAssignment,
    base_score: f64,
    probe: &mut dyn FnMut(&ThreadAssignment, &[NodeId]) -> Result<f64>,
) -> bool {
    for mv in Move::all(base.num_apps(), machine.num_nodes()) {
        if !mv.feasible(base, machine) {
            continue;
        }
        let (touched, len) = mv.touched();
        mv.apply(base);
        let scored = probe(base, &touched[..len]);
        mv.undo(base);
        if scored.map_or(true, |s| s >= base_score) {
            return false;
        }
    }
    true
}

/// The enumerated candidate space in indexable form, so workers can jump to
/// any rank without iterating from the start.
enum Space {
    /// Uniform per-node assignments: one composition of the smallest node's
    /// capacity per candidate; app `a` runs `comp[a]` threads on every node.
    Uniform(Vec<Vec<usize>>),
    /// The full space: per-node composition lists, decoded by
    /// [`enumerate::assignment_at`].
    Full(Vec<Vec<Vec<usize>>>),
}

impl Space {
    fn build(machine: &Machine, num_apps: usize, uniform_only: bool) -> Space {
        if uniform_only {
            let min_cores = machine.nodes().map(|n| n.num_cores()).min().unwrap_or(0);
            Space::Uniform(enumerate::node_compositions(min_cores, num_apps))
        } else {
            Space::Full(enumerate::per_node_compositions(machine, num_apps))
        }
    }

    /// Writes candidate `index` into `out` (every cell is overwritten, so
    /// `out` can be reused across calls). Index order matches the crate's
    /// sequential enumerators exactly.
    fn write(&self, index: u128, out: &mut ThreadAssignment, num_nodes: usize) {
        match self {
            Space::Uniform(comps) => {
                for (app, &c) in comps[index as usize].iter().enumerate() {
                    for node in 0..num_nodes {
                        out.set(app, NodeId(node), c);
                    }
                }
            }
            Space::Full(per_node) => enumerate::assignment_at(per_node, index, out),
        }
    }
}

/// Canonical replacement rule shared by the sequential scan, every parallel
/// worker, and the cross-worker merge: higher score wins; equal scores
/// resolve toward the lexicographically smallest count matrix. Because one
/// rule governs all three, the final result is bit-identical at any thread
/// count.
fn replaces(best: &Option<(ThreadAssignment, f64)>, s: f64, cand: &ThreadAssignment) -> bool {
    match best {
        None => true,
        Some((ba, bs)) => s > *bs || (s == *bs && cand.as_slice() < ba.as_slice()),
    }
}

/// Scans ranks `start..end` of `space`, returning the canonical best.
fn scan_range(
    space: &Space,
    machine: &Machine,
    num_apps: usize,
    start: u128,
    end: u128,
    scorer: &mut impl Scorer,
) -> Result<Option<(ThreadAssignment, f64)>> {
    let num_nodes = machine.num_nodes();
    let mut candidate = ThreadAssignment::zero(machine, num_apps);
    let mut best: Option<(ThreadAssignment, f64)> = None;
    let mut i = start;
    while i < end {
        space.write(i, &mut candidate, num_nodes);
        let s = scorer.score(&candidate)?;
        if replaces(&best, s, &candidate) {
            match &mut best {
                Some((ba, bs)) => {
                    ba.copy_from(&candidate);
                    *bs = s;
                }
                None => best = Some((candidate.clone(), s)),
            }
        }
        i += 1;
    }
    Ok(best)
}

/// The searches' one worker fan-out: splits `0..n` into at most `threads`
/// contiguous chunks — chunk `w` of `k` covers `[n*w/k, n*(w+1)/k)` — and
/// runs `work` on each, one scoped OS thread per chunk, or inline when
/// there is one chunk. Results reach `merge` in chunk order and the first
/// error in chunk order is returned, so the outcome does not depend on the
/// thread count.
fn fan_out<T: Send>(
    n: u128,
    threads: usize,
    work: impl Fn(u128, u128) -> Result<T> + Sync,
    mut merge: impl FnMut(T),
) -> Result<()> {
    let workers = threads.clamp(1, n.clamp(1, usize::MAX as u128) as usize) as u128;
    if workers == 1 {
        merge(work(0, n)?);
        return Ok(());
    }
    let work = &work;
    std::thread::scope(|sc| {
        let handles: Vec<_> = (0..workers)
            .map(|w| sc.spawn(move || work(n * w / workers, n * (w + 1) / workers)))
            .collect();
        for handle in handles {
            merge(handle.join().expect("search worker panicked")?);
        }
        Ok(())
    })
}

/// Exhaustive search over an enumerable space of assignments.
#[derive(Debug, Clone)]
pub struct ExhaustiveSearch {
    /// If `true` (default), only uniform per-node assignments are searched;
    /// otherwise the full space (bounded by `limit`) is used.
    pub uniform_only: bool,
    /// Upper bound on candidates before the search refuses to run (or, with
    /// [`truncating`](ExhaustiveSearch::truncating), stops scanning).
    pub limit: u128,
    /// Worker threads for the scan; `0` or `1` means sequential. Results
    /// are bit-identical at any thread count.
    pub threads: usize,
    /// If `true`, a space larger than `limit` is scanned up to `limit`
    /// candidates (in enumeration order) and the result is flagged
    /// [`SearchResult::truncated`] instead of erroring.
    pub truncate: bool,
}

impl Default for ExhaustiveSearch {
    fn default() -> Self {
        ExhaustiveSearch {
            uniform_only: true,
            limit: 8_000_000,
            threads: 1,
            truncate: false,
        }
    }
}

impl ExhaustiveSearch {
    /// Default configuration: uniform space, 8e6 candidate limit,
    /// sequential.
    pub fn new() -> Self {
        Self::default()
    }

    /// Searches the full (non-uniform) space instead.
    pub fn full_space(mut self) -> Self {
        self.uniform_only = false;
        self
    }

    /// Overrides the candidate limit.
    pub fn with_limit(mut self, limit: u128) -> Self {
        self.limit = limit;
        self
    }

    /// Scans the space on `threads` worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Over-limit spaces are scanned up to the limit and flagged
    /// [`SearchResult::truncated`] instead of failing with
    /// [`AllocError::SearchSpaceTooLarge`].
    pub fn truncating(mut self) -> Self {
        self.truncate = true;
        self
    }

    /// Candidate count and truncation decision for this configuration.
    fn plan(&self, machine: &Machine, num_apps: usize) -> Result<(u128, bool)> {
        let candidates = if self.uniform_only {
            enumerate::count_uniform_assignments(machine, num_apps)
        } else {
            enumerate::count_assignments(machine, num_apps)
        };
        if candidates > self.limit {
            if !self.truncate {
                return Err(AllocError::SearchSpaceTooLarge {
                    candidates,
                    limit: self.limit,
                });
            }
            return Ok((self.limit.max(1), true));
        }
        Ok((candidates, false))
    }

    /// Runs the search with the analytic model as the oracle.
    pub fn run(
        &self,
        machine: &Machine,
        apps: &[AppSpec],
        objective: &Objective,
    ) -> Result<SearchResult> {
        self.run_with(machine, apps.len(), || {
            ModelOracle::new(machine, apps, objective)
        })
    }

    /// Runs the search over scorers that `make` builds, one per worker
    /// (see [`with_threads`](ExhaustiveSearch::with_threads)); the
    /// result's counters are the workers' summed.
    pub fn run_with<S: Scorer>(
        &self,
        machine: &Machine,
        num_apps: usize,
        make: impl Fn() -> Result<S> + Sync,
    ) -> Result<SearchResult> {
        if num_apps == 0 {
            return Err(AllocError::NoApps);
        }
        let (n, truncated) = self.plan(machine, num_apps)?;
        let space = Space::build(machine, num_apps, self.uniform_only);
        let mut counters = SearchCounters::default();
        let mut best: Option<(ThreadAssignment, f64)> = None;
        fan_out(
            n,
            self.threads,
            |start, end| {
                let mut scorer = make()?;
                let chunk_best = scan_range(&space, machine, num_apps, start, end, &mut scorer)?;
                Ok((chunk_best, scorer.take_counters()))
            },
            |(worker_best, worker_counters)| {
                counters.merge(worker_counters);
                if let Some((a, s)) = worker_best {
                    if replaces(&best, s, &a) {
                        best = Some((a, s));
                    }
                }
            },
        )?;
        let (assignment, score) = best.expect("space contains at least the empty assignment");
        Ok(SearchResult {
            assignment,
            score,
            evaluations: n as usize,
            counters,
            truncated,
        })
    }
}

/// Greedy constructive search: starting from the empty assignment, add one
/// thread at a time to the `(app, node)` slot that raises the objective
/// most, until no addition helps (or no capacity remains).
#[derive(Debug, Clone, Default)]
pub struct GreedySearch {
    /// If `true`, keep adding threads even when the best addition does not
    /// strictly improve the objective (useful to always fill the machine,
    /// e.g. for max-min objectives that plateau).
    pub fill_machine: bool,
}

impl GreedySearch {
    /// Default configuration: stop at the first non-improving addition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep adding threads until the machine is full.
    pub fn filling(mut self) -> Self {
        self.fill_machine = true;
        self
    }

    /// Runs the search with the analytic model as the oracle.
    pub fn run(
        &self,
        machine: &Machine,
        apps: &[AppSpec],
        objective: &Objective,
    ) -> Result<SearchResult> {
        self.run_model(machine, &mut ModelOracle::new(machine, apps, objective)?)
    }

    /// [`run_with`](GreedySearch::run_with) a configured [`ModelOracle`].
    pub fn run_model(
        &self,
        machine: &Machine,
        oracle: &mut ModelOracle<'_>,
    ) -> Result<SearchResult> {
        self.run_with(machine, oracle.num_apps(), oracle)
    }

    /// Runs the search over `scorer`.
    pub fn run_with(
        &self,
        machine: &Machine,
        num_apps: usize,
        scorer: &mut impl Scorer,
    ) -> Result<SearchResult> {
        if num_apps == 0 {
            return Err(AllocError::NoApps);
        }
        let mut current = ThreadAssignment::zero(machine, num_apps);
        let mut current_score = scorer.set_base(&current)?;
        let mut evals = 1usize;
        let mut candidate = current.clone();

        loop {
            let mut best_move: Option<(usize, NodeId, f64)> = None;
            for node in machine.node_ids() {
                if current.node_total(node) >= machine.node(node).num_cores() {
                    continue;
                }
                for app in 0..num_apps {
                    candidate.copy_from(&current);
                    candidate.set(app, node, candidate.get(app, node) + 1);
                    let s = scorer.score_move(&candidate, &[node])?;
                    evals += 1;
                    if best_move.is_none_or(|(_, _, bs)| s > bs) {
                        best_move = Some((app, node, s));
                    }
                }
            }
            match best_move {
                Some((app, node, s)) if s > current_score || self.fill_machine => {
                    current.set(app, node, current.get(app, node) + 1);
                    scorer.accept(&current, &[node])?;
                    current_score = s;
                }
                _ => break,
            }
        }
        Ok(SearchResult {
            assignment: current,
            score: current_score,
            evaluations: evals,
            counters: scorer.take_counters(),
            truncated: false,
        })
    }
}

/// Options for a multi-start portfolio run of a local search: independent
/// seeds raced (optionally in parallel), best result kept. Ties resolve to
/// the earliest seed, so the outcome is independent of thread count.
#[derive(Debug, Clone, Default)]
pub struct Portfolio {
    /// Seeds to race; empty means "just the strategy's configured seed".
    pub seeds: Vec<u64>,
    /// Worker threads; `0` or `1` runs the seeds sequentially.
    pub threads: usize,
    /// Minimum machine-wide threads per application before the starvation
    /// penalty applies (see [`ModelOracle::with_min_threads`]).
    pub min_threads: usize,
}

impl Portfolio {
    /// Empty portfolio: the strategy's own seed, sequential, no penalty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds to race.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Starvation-penalty threshold.
    pub fn with_min_threads(mut self, min_threads: usize) -> Self {
        self.min_threads = min_threads;
        self
    }
}

/// Races one local search per seed and merges deterministically: the result
/// with the highest score wins and ties go to the earliest seed. Evaluation
/// and solver counters are summed over all seeds.
fn run_portfolio_impl<R>(
    machine: &Machine,
    apps: &[AppSpec],
    objective: &Objective,
    portfolio: &Portfolio,
    default_seed: u64,
    cache: Option<&Arc<ScoreCache>>,
    run_one: R,
) -> Result<SearchResult>
where
    R: Fn(u64, &mut ModelOracle<'_>) -> Result<SearchResult> + Sync,
{
    if apps.is_empty() {
        return Err(AllocError::NoApps);
    }
    let seeds: Vec<u64> = if portfolio.seeds.is_empty() {
        vec![default_seed]
    } else {
        portfolio.seeds.clone()
    };
    let min_threads = portfolio.min_threads;
    let make = || {
        let oracle = ModelOracle::new(machine, apps, objective)?.with_min_threads(min_threads);
        match cache {
            Some(c) => oracle.with_cache(Arc::clone(c)),
            None => Ok(oracle),
        }
    };
    // Surface a fingerprint mismatch before any search runs.
    make()?;

    let mut merged: Option<SearchResult> = None;
    let mut evaluations = 0usize;
    let mut counters = SearchCounters::default();
    fan_out(
        seeds.len() as u128,
        portfolio.threads,
        |start, end| {
            let seeds = &seeds[start as usize..end as usize];
            let mut out = Vec::with_capacity(seeds.len());
            for &seed in seeds {
                out.push(run_one(seed, &mut make()?)?);
            }
            Ok(out)
        },
        |results| {
            for res in results {
                evaluations += res.evaluations;
                counters.merge(res.counters);
                if merged.as_ref().is_none_or(|b| res.score > b.score) {
                    merged = Some(res);
                }
            }
        },
    )?;
    let mut best = merged.expect("portfolio raced at least one seed");
    best.evaluations = evaluations;
    best.counters = counters;
    Ok(best)
}

/// Seeded stochastic hill-climbing over move/add/remove neighbourhoods.
///
/// Starts from [`strategies::fair_share`] and, for `iterations` rounds,
/// proposes a random mutation (move one thread of a random application to a
/// different node, add a thread on a node with spare capacity, or remove
/// one) and keeps it if the objective does not decrease.
///
/// Against a [`ModelOracle`], a climb given a start
/// ([`with_start`](HillClimb::with_start)) first asks whether that start is
/// a strict local optimum ([`ModelOracle::certify_base`]); if so it is the
/// answer, and no proposal is drawn.
#[derive(Debug, Clone)]
pub struct HillClimb {
    /// Number of proposals.
    pub iterations: usize,
    /// RNG seed (searches are deterministic given the seed).
    pub seed: u64,
    /// Starting assignment; defaults to the fair share.
    pub start: Option<ThreadAssignment>,
}

impl Default for HillClimb {
    fn default() -> Self {
        HillClimb {
            iterations: 2000,
            seed: 0x5eed,
            start: None,
        }
    }
}

impl HillClimb {
    /// Default configuration: 2000 iterations, fixed seed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Starts the climb from a given assignment instead of the fair share
    /// (used by the agent's and the supervised simulation's warm starts to
    /// climb from the *current* allocation). The climb moves `start` into
    /// its incumbent: a certified start comes back as the result's
    /// assignment, not as a copy of it.
    pub fn with_start(mut self, start: ThreadAssignment) -> Self {
        self.start = Some(start);
        self
    }

    /// Runs the search with the analytic model as the oracle.
    pub fn run(
        self,
        machine: &Machine,
        apps: &[AppSpec],
        objective: &Objective,
    ) -> Result<SearchResult> {
        self.run_model(machine, &mut ModelOracle::new(machine, apps, objective)?)
    }

    /// Races this climb across `portfolio.seeds`, sharing `cache` among the
    /// workers.
    pub fn run_portfolio(
        &self,
        machine: &Machine,
        apps: &[AppSpec],
        objective: &Objective,
        portfolio: &Portfolio,
        cache: Option<&Arc<ScoreCache>>,
    ) -> Result<SearchResult> {
        run_portfolio_impl(
            machine,
            apps,
            objective,
            portfolio,
            self.seed,
            cache,
            |seed, oracle| self.clone().with_seed(seed).run_model(machine, oracle),
        )
    }

    /// [`run_with`](HillClimb::run_with) a configured [`ModelOracle`]:
    /// every proposal is scored incrementally (delta solve on separable
    /// contexts) and accepted moves fold into the oracle's base.
    pub fn run_model(
        self,
        machine: &Machine,
        oracle: &mut ModelOracle<'_>,
    ) -> Result<SearchResult> {
        self.run_with(machine, oracle.num_apps(), oracle)
    }

    /// Runs the search over `scorer`.
    pub fn run_with(
        self,
        machine: &Machine,
        num_apps: usize,
        scorer: &mut impl Scorer,
    ) -> Result<SearchResult> {
        if num_apps == 0 {
            return Err(AllocError::NoApps);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let warm = self.start.is_some();
        let mut current = match self.start {
            Some(start) => {
                start.validate(machine)?;
                start
            }
            None => strategies::fair_share(machine, num_apps)?,
        };
        let mut current_score = scorer.set_base(&current)?;
        let mut evals = 1usize;
        // A warm start that is a certified strict local optimum is also the
        // result: no proposal below could be accepted.
        let iterations = if warm && scorer.certify_base() {
            0
        } else {
            self.iterations
        };
        let nodes = machine.num_nodes();

        for _ in 0..iterations {
            let mv = Move::draw(&mut rng, num_apps, nodes);
            if !mv.feasible(&current, machine) {
                continue;
            }
            let (touched, len) = mv.touched();
            mv.apply(&mut current);
            let s = scorer.score_move(&current, &touched[..len])?;
            evals += 1;
            if s >= current_score {
                scorer.accept(&current, &touched[..len])?;
                current_score = s;
            } else {
                mv.undo(&mut current);
            }
        }
        Ok(SearchResult {
            assignment: current,
            score: current_score,
            evaluations: evals,
            counters: scorer.take_counters(),
            truncated: false,
        })
    }
}

/// Seeded simulated annealing over the same mutation neighbourhood as
/// [`HillClimb`], accepting worsening moves with probability
/// `exp(delta / temperature)` under a geometric cooling schedule.
///
/// Escapes the local optima that trap [`GreedySearch`] and [`HillClimb`]
/// on placement-sensitive mixes (e.g. moving a NUMA-bad application's
/// threads across nodes requires passing through worse intermediate
/// states).
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    /// Number of proposals.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Initial temperature, in objective units.
    pub initial_temperature: f64,
    /// Multiplicative cooling factor per iteration (0 < c < 1).
    pub cooling: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            iterations: 4000,
            seed: 0xa17ea1,
            initial_temperature: 10.0,
            cooling: 0.999,
        }
    }
}

impl SimulatedAnnealing {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the search with the analytic model as the oracle.
    pub fn run(
        &self,
        machine: &Machine,
        apps: &[AppSpec],
        objective: &Objective,
    ) -> Result<SearchResult> {
        self.run_with(
            machine,
            apps.len(),
            &mut ModelOracle::new(machine, apps, objective)?,
        )
    }

    /// Races this annealer across `portfolio.seeds`, sharing `cache` among
    /// the workers.
    pub fn run_portfolio(
        &self,
        machine: &Machine,
        apps: &[AppSpec],
        objective: &Objective,
        portfolio: &Portfolio,
        cache: Option<&Arc<ScoreCache>>,
    ) -> Result<SearchResult> {
        run_portfolio_impl(
            machine,
            apps,
            objective,
            portfolio,
            self.seed,
            cache,
            |seed, oracle| {
                let num_apps = oracle.num_apps();
                self.clone()
                    .with_seed(seed)
                    .run_with(machine, num_apps, oracle)
            },
        )
    }

    /// Runs the search over `scorer`, starting from the fair share.
    pub fn run_with(
        &self,
        machine: &Machine,
        num_apps: usize,
        scorer: &mut impl Scorer,
    ) -> Result<SearchResult> {
        if num_apps == 0 {
            return Err(AllocError::NoApps);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut current = strategies::fair_share(machine, num_apps)?;
        let mut current_score = scorer.set_base(&current)?;
        let mut best = current.clone();
        let mut best_score = current_score;
        let mut evals = 1usize;
        let nodes = machine.num_nodes();
        let mut temperature = self.initial_temperature;

        for _ in 0..self.iterations {
            temperature *= self.cooling;
            let mv = Move::draw(&mut rng, num_apps, nodes);
            if !mv.feasible(&current, machine) {
                continue;
            }
            let (touched, len) = mv.touched();
            mv.apply(&mut current);
            let s = scorer.score_move(&current, &touched[..len])?;
            evals += 1;
            let delta = s - current_score;
            let accept = delta >= 0.0
                || (temperature > 1e-12 && rng.gen::<f64>() < (delta / temperature).exp());
            if accept {
                scorer.accept(&current, &touched[..len])?;
                current_score = s;
                if s > best_score {
                    best.copy_from(&current);
                    best_score = s;
                }
            } else {
                mv.undo(&mut current);
            }
        }
        Ok(SearchResult {
            assignment: best,
            score: best_score,
            evaluations: evals,
            counters: scorer.take_counters(),
            truncated: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score;
    use numa_topology::presets::{paper_crossnode_machine, paper_model_machine, tiny};

    fn paper_apps() -> Vec<AppSpec> {
        vec![
            AppSpec::numa_local("mem1", 0.5),
            AppSpec::numa_local("mem2", 0.5),
            AppSpec::numa_local("mem3", 0.5),
            AppSpec::numa_local("comp", 10.0),
        ]
    }

    /// The exhaustive uniform search on the paper's machine must find an
    /// allocation at least as good as Table I's (1,1,1,5) = 254 GFLOPS.
    #[test]
    fn exhaustive_uniform_finds_table_1_or_better() {
        let m = paper_model_machine();
        let r = ExhaustiveSearch::new()
            .run(&m, &paper_apps(), &Objective::TotalGflops)
            .unwrap();
        assert!(r.score >= 254.0 - 1e-9, "found {}", r.score);
        // C(12,4) = 495 candidates.
        assert_eq!(r.evaluations, 495);
        assert_eq!(r.counters.full_solves, 495);
        assert!(!r.truncated);
    }

    /// The unconstrained optimum on the paper machine starves the
    /// memory-bound apps entirely: (0,0,0,8) reaches the machine's compute
    /// peak of 320 GFLOPS. The paper's 254 GFLOPS (1,1,1,5) is the optimum
    /// once every cooperating application must keep at least one thread —
    /// which is the regime the paper cares about.
    #[test]
    fn exhaustive_optimum_structure() {
        let m = paper_model_machine();
        let r = ExhaustiveSearch::new()
            .run(&m, &paper_apps(), &Objective::TotalGflops)
            .unwrap();
        assert!((r.score - 320.0).abs() < 1e-9, "got {}", r.score);
        for app in 0..3 {
            assert_eq!(r.assignment.app_total(app), 0, "mem apps starved");
        }
        assert_eq!(r.assignment.app_total(3), 32);

        // Constrain to "every app runs at least one thread per node" via a
        // custom oracle: the paper's (1,1,1,5) is optimal there.
        let (m, apps) = (&m, &paper_apps());
        let r = ExhaustiveSearch::new()
            .run_with(m, apps.len(), || {
                Ok(move |a: &ThreadAssignment| -> Result<f64> {
                    if (0..apps.len()).any(|i| m.node_ids().any(|n| a.get(i, n) == 0)) {
                        return Ok(f64::NEG_INFINITY);
                    }
                    score(m, apps, a, &Objective::TotalGflops)
                })
            })
            .unwrap();
        assert!((r.score - 254.0).abs() < 1e-9, "got {}", r.score);
        let counts: Vec<usize> = (0..4).map(|i| r.assignment.get(i, NodeId(0))).collect();
        assert_eq!(counts, vec![1, 1, 1, 5], "Table I allocation is optimal");
    }

    #[test]
    fn exhaustive_full_space_on_tiny_beats_uniform() {
        let m = tiny();
        let apps = vec![
            AppSpec::numa_local("mem", 0.5),
            AppSpec::numa_local("comp", 8.0),
        ];
        let uni = ExhaustiveSearch::new()
            .run(&m, &apps, &Objective::TotalGflops)
            .unwrap();
        let full = ExhaustiveSearch::new()
            .full_space()
            .run(&m, &apps, &Objective::TotalGflops)
            .unwrap();
        assert!(full.score >= uni.score - 1e-12);
        assert_eq!(full.evaluations, 36);
    }

    #[test]
    fn exhaustive_respects_limit() {
        let m = paper_model_machine();
        let err = ExhaustiveSearch::new().full_space().with_limit(1000).run(
            &m,
            &paper_apps(),
            &Objective::TotalGflops,
        );
        assert!(matches!(err, Err(AllocError::SearchSpaceTooLarge { .. })));
    }

    #[test]
    fn exhaustive_truncating_scans_prefix_and_flags_it() {
        let m = paper_model_machine();
        let r = ExhaustiveSearch::new()
            .full_space()
            .with_limit(1000)
            .truncating()
            .run(&m, &paper_apps(), &Objective::TotalGflops)
            .unwrap();
        assert!(r.truncated);
        assert_eq!(r.evaluations, 1000);
        assert!(r.assignment.validate(&m).is_ok());
    }

    #[test]
    fn parallel_exhaustive_matches_sequential() {
        let m = paper_model_machine();
        let apps = paper_apps();
        let seq = ExhaustiveSearch::new()
            .run(&m, &apps, &Objective::TotalGflops)
            .unwrap();
        for threads in [2, 8] {
            let par = ExhaustiveSearch::new()
                .with_threads(threads)
                .run(&m, &apps, &Objective::TotalGflops)
                .unwrap();
            assert_eq!(par.assignment, seq.assignment, "{threads} threads");
            assert_eq!(par.score, seq.score, "{threads} threads");
            assert_eq!(par.evaluations, seq.evaluations, "{threads} threads");
        }
    }

    #[test]
    fn cached_exhaustive_rerun_hits_for_every_candidate() {
        let m = paper_model_machine();
        let apps = paper_apps();
        let objective = Objective::TotalGflops;
        let fp = ModelOracle::new(&m, &apps, &objective)
            .unwrap()
            .fingerprint();
        let cache = Arc::new(ScoreCache::new(fp));
        let make = || ModelOracle::new(&m, &apps, &objective)?.with_cache(Arc::clone(&cache));
        let first = ExhaustiveSearch::new()
            .run_with(&m, apps.len(), make)
            .unwrap();
        assert_eq!(first.counters.full_solves, 495);
        assert_eq!(first.counters.cache_hits, 0);
        let second = ExhaustiveSearch::new()
            .run_with(&m, apps.len(), make)
            .unwrap();
        assert_eq!(second.counters.cache_hits, 495);
        assert_eq!(second.counters.full_solves, 0);
        assert_eq!(second.assignment, first.assignment);
        assert_eq!(second.score, first.score);
    }

    #[test]
    fn mismatched_cache_is_rejected() {
        let m = paper_model_machine();
        let apps = paper_apps();
        let cache = Arc::new(ScoreCache::new(0xbad));
        let err = ExhaustiveSearch::new().run_with(&m, apps.len(), || {
            ModelOracle::new(&m, &apps, &Objective::TotalGflops)?.with_cache(Arc::clone(&cache))
        });
        assert!(matches!(err, Err(AllocError::CacheMismatch { .. })));
    }

    #[test]
    fn greedy_matches_exhaustive_on_paper_machine() {
        let m = paper_model_machine();
        let g = GreedySearch::new()
            .run(&m, &paper_apps(), &Objective::TotalGflops)
            .unwrap();
        // Greedy also discovers the unconstrained optimum (all cores to the
        // compute-bound app): each compute thread adds a full 10 GFLOPS.
        assert!((g.score - 320.0).abs() < 1e-9, "greedy found {}", g.score);
        assert!(g.assignment.validate(&m).is_ok());
        // The paper apps are all NUMA-local, so after the initial full solve
        // every neighbourhood probe is answered incrementally.
        assert_eq!(g.counters.full_solves, 1);
        assert!(g.counters.delta_solves > 0);
    }

    #[test]
    fn greedy_filling_fills_machine() {
        let m = tiny();
        let apps = vec![AppSpec::numa_local("mem", 0.5)];
        let g = GreedySearch::new()
            .filling()
            .run(&m, &apps, &Objective::TotalGflops)
            .unwrap();
        assert_eq!(g.assignment.total(), m.total_cores());
    }

    #[test]
    fn greedy_stops_when_additions_hurt() {
        // A single memory-bound app on a bandwidth-starved machine: the
        // first thread per node saturates the node; further threads do not
        // improve the score (baseline split makes them neutral-to-harmless,
        // so greedy without filling stops early).
        let m = paper_model_machine();
        let apps = vec![AppSpec::numa_local("mem", 0.1)];
        let g = GreedySearch::new()
            .run(&m, &apps, &Objective::TotalGflops)
            .unwrap();
        assert!(g.assignment.total() < m.total_cores());
        // Total bandwidth is the cap: 128 GB/s * 0.1 AI = 12.8 GFLOPS.
        assert!((g.score - 12.8).abs() < 1e-9);
    }

    #[test]
    fn hill_climb_reaches_table_1_quality() {
        let m = paper_model_machine();
        let h = HillClimb::new()
            .with_iterations(3000)
            .run(&m, &paper_apps(), &Objective::TotalGflops)
            .unwrap();
        assert!(h.score >= 250.0, "hill climb found {}", h.score);
        assert!(h.assignment.validate(&m).is_ok());
    }

    #[test]
    fn hill_climb_is_deterministic_per_seed() {
        let m = paper_model_machine();
        let a = HillClimb::new()
            .with_iterations(500)
            .with_seed(42)
            .run(&m, &paper_apps(), &Objective::TotalGflops)
            .unwrap();
        let b = HillClimb::new()
            .with_iterations(500)
            .with_seed(42)
            .run(&m, &paper_apps(), &Objective::TotalGflops)
            .unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.score, b.score);
    }

    /// The search layer must also get the NUMA-bad case right: on the
    /// Figure 3 machine, a whole-node allocation with the bad app on its
    /// data node beats the even split; the full-space exhaustive search on
    /// the non-uniform space discovers an allocation at least that good.
    #[test]
    fn hill_climb_discovers_numa_bad_placement() {
        let m = paper_crossnode_machine();
        let apps = vec![
            AppSpec::numa_local("perf1", 0.5),
            AppSpec::numa_local("perf2", 0.5),
            AppSpec::numa_local("perf3", 0.5),
            AppSpec::numa_bad("bad", 1.0, numa_topology::NodeId(3)),
        ];
        let h = HillClimb::new()
            .with_iterations(6000)
            .with_seed(7)
            .run(&m, &apps, &Objective::TotalGflops)
            .unwrap();
        // Even allocation scores 138.75; the climb must at least beat it.
        assert!(h.score > 138.75, "hill climb stuck at {}", h.score);
        // The numa-bad placement couples nodes, so probes full-solve.
        assert_eq!(h.counters.delta_solves, 0);
        assert!(h.counters.full_solves > 0);
    }

    /// Every strategy over a [`ModelOracle`] — delta-scored where the
    /// context is separable, with and without the starvation floor — equals
    /// the same strategy over a closure that full-solves every candidate
    /// and adds the same penalty: same assignment, score bits and
    /// evaluation count. The exhaustive scan also agrees with itself at 1
    /// and 8 workers.
    #[test]
    fn model_and_closure_agree_on_every_strategy() {
        let crossnode = paper_crossnode_machine();
        let mut numa_bad = paper_apps();
        numa_bad[3] = AppSpec::numa_bad("bad", 1.0, NodeId(3));
        let objective = &Objective::TotalGflops;
        for (m, apps) in [
            (&paper_model_machine(), &paper_apps()),
            (&crossnode, &numa_bad),
        ] {
            for min_threads in [0, 1] {
                let model = || {
                    ModelOracle::new(m, apps, objective).map(|o| o.with_min_threads(min_threads))
                };
                let closure = || {
                    Ok(move |a: &ThreadAssignment| -> Result<f64> {
                        let starved = (0..apps.len()).filter(|&i| a.app_total(i) < min_threads);
                        match starved.count() {
                            0 => score(m, apps, a, objective),
                            n => Ok(-(n as f64) * 1e12),
                        }
                    })
                };
                let n = apps.len();
                let greedy = GreedySearch::new();
                let climb = HillClimb::new().with_iterations(800).with_seed(9);
                let anneal = SimulatedAnnealing::new().with_iterations(600).with_seed(21);
                let exhaustive = ExhaustiveSearch::new();
                let runs = [
                    (
                        "greedy",
                        greedy.run_model(m, &mut model().unwrap()),
                        greedy.run_with(m, n, &mut closure().unwrap()),
                    ),
                    (
                        "hill climb",
                        climb.clone().run_model(m, &mut model().unwrap()),
                        climb.run_with(m, n, &mut closure().unwrap()),
                    ),
                    (
                        "annealing",
                        anneal.run_with(m, n, &mut model().unwrap()),
                        anneal.run_with(m, n, &mut closure().unwrap()),
                    ),
                    (
                        "exhaustive",
                        exhaustive.run_with(m, n, model),
                        exhaustive.run_with(m, n, closure),
                    ),
                    (
                        "exhaustive, 8 workers",
                        exhaustive.clone().with_threads(8).run_with(m, n, model),
                        exhaustive.clone().with_threads(8).run_with(m, n, closure),
                    ),
                ];
                let serial = runs[3].1.as_ref().unwrap();
                for (what, fast, slow) in &runs {
                    let what = format!("{what}, {}, floor {min_threads}", m.name());
                    let (fast, slow) = (fast.as_ref().unwrap(), slow.as_ref().unwrap());
                    assert_eq!(fast.assignment, slow.assignment, "{what}");
                    assert_eq!(fast.score.to_bits(), slow.score.to_bits(), "{what}");
                    assert_eq!(fast.evaluations, slow.evaluations, "{what}");
                    if what.starts_with("exhaustive") {
                        assert_eq!(fast.assignment, serial.assignment, "{what}");
                        assert_eq!(fast.score.to_bits(), serial.score.to_bits(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn hill_climb_portfolio_is_deterministic_across_thread_counts() {
        let m = paper_model_machine();
        let apps = paper_apps();
        let climb = HillClimb::new().with_iterations(400);
        let seeds = vec![1u64, 2, 3, 4];
        let seq = climb
            .run_portfolio(
                &m,
                &apps,
                &Objective::TotalGflops,
                &Portfolio::new().with_seeds(seeds.clone()),
                None,
            )
            .unwrap();
        let par = climb
            .run_portfolio(
                &m,
                &apps,
                &Objective::TotalGflops,
                &Portfolio::new().with_seeds(seeds).with_threads(4),
                None,
            )
            .unwrap();
        assert_eq!(seq.assignment, par.assignment);
        assert_eq!(seq.score, par.score);
        assert_eq!(seq.evaluations, par.evaluations);
        // The portfolio must be at least as good as any single member.
        let single = climb
            .clone()
            .with_seed(1)
            .run(&m, &apps, &Objective::TotalGflops)
            .unwrap();
        assert!(seq.score >= single.score);
    }

    #[test]
    fn min_threads_penalty_shapes_the_search() {
        let m = paper_model_machine();
        let apps = paper_apps();
        let objective = Objective::TotalGflops;
        let mut oracle = ModelOracle::new(&m, &apps, &objective)
            .unwrap()
            .with_min_threads(1);
        let r = GreedySearch::new()
            .filling()
            .run_model(&m, &mut oracle)
            .unwrap();
        for app in 0..apps.len() {
            assert!(
                r.assignment.app_total(app) >= 1,
                "app {app} starved despite min_threads"
            );
        }
    }

    #[test]
    fn min_objective_prefers_balance() {
        let m = paper_model_machine();
        let apps = vec![
            AppSpec::numa_local("mem1", 0.5),
            AppSpec::numa_local("mem2", 0.5),
        ];
        let r = ExhaustiveSearch::new()
            .run(&m, &apps, &Objective::MinAppGflops)
            .unwrap();
        // With identical apps, max-min is achieved by (at least) a balanced
        // allocation; both apps end up with the same GFLOPS.
        let report = roofline_numa::solve(&m, &apps, &r.assignment).unwrap();
        assert!((report.app_gflops(0) - report.app_gflops(1)).abs() < 1e-9);
    }

    #[test]
    fn searches_reject_zero_apps() {
        let m = tiny();
        assert!(matches!(
            ExhaustiveSearch::new().run(&m, &[], &Objective::TotalGflops),
            Err(AllocError::NoApps)
        ));
        assert!(matches!(
            GreedySearch::new().run(&m, &[], &Objective::TotalGflops),
            Err(AllocError::NoApps)
        ));
        assert!(matches!(
            HillClimb::new().run(&m, &[], &Objective::TotalGflops),
            Err(AllocError::NoApps)
        ));
    }

    #[test]
    fn custom_oracle_is_respected() {
        // An oracle that prefers fewer threads drives searches to empty.
        let m = tiny();
        let mut oracle = |a: &ThreadAssignment| -> Result<f64> { Ok(-(a.total() as f64)) };
        let g = GreedySearch::new().run_with(&m, 2, &mut oracle).unwrap();
        assert_eq!(g.assignment.total(), 0);
    }

    #[test]
    fn closure_exhaustive_scan_matches_across_thread_counts() {
        let m = tiny();
        let make = || Ok(|a: &ThreadAssignment| -> Result<f64> { Ok(a.total() as f64) });
        let seq = ExhaustiveSearch::new()
            .full_space()
            .run_with(&m, 2, make)
            .unwrap();
        let par = ExhaustiveSearch::new()
            .full_space()
            .with_threads(4)
            .run_with(&m, 2, make)
            .unwrap();
        assert_eq!(seq.assignment, par.assignment);
        assert_eq!(seq.score, par.score);
        assert_eq!(seq.evaluations, 36);
    }
}

/// The certificate must never change what a climb returns. The oracle here
/// is `HillClimb::run_model` as it was before certification existed: a
/// fresh oracle per search (a full solve of the start, no remembered base,
/// no certificate) and the proposal loop spelled out, not drawn from
/// [`Move`].
#[cfg(test)]
mod certified_tests {
    use super::*;
    use numa_topology::presets::paper_skylake_machine;
    use numa_topology::MachineBuilder;

    fn reference_climb(
        machine: &Machine,
        apps: &[AppSpec],
        objective: &Objective,
        min_threads: usize,
        climb: &HillClimb,
    ) -> Result<SearchResult> {
        let mut oracle = ModelOracle::new(machine, apps, objective)?.with_min_threads(min_threads);
        let num_apps = apps.len();
        let mut rng = StdRng::seed_from_u64(climb.seed);
        let mut current = match &climb.start {
            Some(s) => {
                s.validate(machine)?;
                s.clone()
            }
            None => strategies::fair_share(machine, num_apps)?,
        };
        let mut current_score = oracle.set_base(&current)?;
        let mut evals = 1usize;
        let nodes = machine.num_nodes();
        let mut candidate = current.clone();

        for _ in 0..climb.iterations {
            candidate.copy_from(&current);
            let app = rng.gen_range(0..num_apps);
            let mut touched = [NodeId(0); 2];
            let touched_len: usize;
            match rng.gen_range(0..3u8) {
                0 => {
                    let from = NodeId(rng.gen_range(0..nodes));
                    let to = NodeId(rng.gen_range(0..nodes));
                    if from == to
                        || candidate.get(app, from) == 0
                        || candidate.node_total(to) >= machine.node(to).num_cores()
                    {
                        continue;
                    }
                    candidate.set(app, from, candidate.get(app, from) - 1);
                    candidate.set(app, to, candidate.get(app, to) + 1);
                    touched = [from, to];
                    touched_len = 2;
                }
                1 => {
                    let node = NodeId(rng.gen_range(0..nodes));
                    if candidate.node_total(node) >= machine.node(node).num_cores() {
                        continue;
                    }
                    candidate.set(app, node, candidate.get(app, node) + 1);
                    touched[0] = node;
                    touched_len = 1;
                }
                _ => {
                    let node = NodeId(rng.gen_range(0..nodes));
                    if candidate.get(app, node) == 0 {
                        continue;
                    }
                    candidate.set(app, node, candidate.get(app, node) - 1);
                    touched[0] = node;
                    touched_len = 1;
                }
            }
            let s = oracle.score_move(&candidate, &touched[..touched_len])?;
            evals += 1;
            if s >= current_score {
                oracle.accept(&candidate, &touched[..touched_len])?;
                current.copy_from(&candidate);
                current_score = s;
            }
        }
        Ok(SearchResult {
            assignment: current,
            score: current_score,
            evaluations: evals,
            counters: oracle.take_counters(),
            truncated: false,
        })
    }

    fn machine(nodes: usize, cores: usize) -> Machine {
        MachineBuilder::new()
            .name("certified")
            .symmetric_nodes(nodes, cores)
            .core_peak_gflops(1.0)
            .node_bandwidth_gbs(8.0)
            .uniform_link_gbs(2.0)
            .build()
            .expect("a small symmetric machine is valid")
    }

    /// The Table III mix, uneven (1,1,1,17) per node: the machine is full.
    fn table_3() -> (Machine, Vec<AppSpec>, ThreadAssignment) {
        let m = paper_skylake_machine();
        let apps = vec![
            AppSpec::numa_local("mem1", 1.0 / 32.0),
            AppSpec::numa_local("mem2", 1.0 / 32.0),
            AppSpec::numa_local("mem3", 1.0 / 32.0),
            AppSpec::numa_local("comp", 1.0),
        ];
        let start = ThreadAssignment::uniform_per_node(&m, &[1, 1, 1, 17]);
        (m, apps, start)
    }

    fn assert_same(got: &SearchResult, want: &SearchResult, what: &str) {
        assert_eq!(got.assignment, want.assignment, "{what}: assignment");
        assert_eq!(
            got.score.to_bits(),
            want.score.to_bits(),
            "{what}: score {} vs {}",
            got.score,
            want.score
        );
    }

    #[test]
    fn certified_climb_equals_the_uncertified_climb_on_random_contexts() {
        let objective = Objective::TotalGflops;
        let mut rng = StdRng::seed_from_u64(0xce27_1f1e);
        let (mut certified, mut climbed) = (0usize, 0usize);
        for case in 0..400 {
            let m = machine(rng.gen_range(1..5usize), rng.gen_range(2..9usize));
            let min_threads = rng.gen_range(0..2usize);
            let apps: Vec<AppSpec> = (0..rng.gen_range(1..5usize))
                .map(|i| {
                    // AI in {1/32, 1/16, ..., 32}: memory- and compute-bound.
                    let ai = 2f64.powi(i32::from(rng.gen_range(0..11u8)) - 5);
                    if rng.gen_range(0..4u8) == 0 {
                        let node = NodeId(rng.gen_range(0..m.num_nodes()));
                        AppSpec::numa_bad(&format!("bad{i}"), ai, node)
                    } else {
                        AppSpec::numa_local(&format!("app{i}"), ai)
                    }
                })
                .collect();
            // One oracle (and score cache) for the whole case, as the
            // supervised loop keeps it; the reference starts afresh.
            let oracle = ModelOracle::new(&m, &apps, &objective)
                .unwrap()
                .with_min_threads(min_threads);
            let cache = Arc::new(ScoreCache::new(oracle.fingerprint()));
            let mut oracle = oracle.with_cache(cache).unwrap();

            let mut climb = HillClimb::new()
                .with_iterations(150)
                .with_seed(rng.gen_range(0..usize::MAX) as u64);
            let mut incumbent = climb.clone().run_model(&m, &mut oracle).unwrap();
            let cold = reference_climb(&m, &apps, &objective, min_threads, &climb).unwrap();
            assert_same(&incumbent, &cold, &format!("case {case} cold"));
            assert_eq!(incumbent.evaluations, cold.evaluations, "case {case} cold");

            for warm in 0..6u64 {
                climb = HillClimb::new()
                    .with_iterations(100)
                    .with_seed(0xc0de ^ warm)
                    .with_start(incumbent.assignment.clone());
                let want = reference_climb(&m, &apps, &objective, min_threads, &climb).unwrap();
                let got = climb.run_model(&m, &mut oracle).unwrap();
                assert_same(&got, &want, &format!("case {case} warm {warm}"));
                if got.evaluations == 1 && want.evaluations > 1 {
                    certified += 1;
                } else {
                    assert_eq!(got.evaluations, want.evaluations, "case {case} warm {warm}");
                    climbed += 1;
                }
                incumbent = got;
            }
        }
        // Both outcomes must be exercised: strict optima that exit early,
        // and plateaus or improvable starts that go on to climb.
        assert!(certified > 200 && climbed > 200, "{certified} / {climbed}");
    }

    #[test]
    fn table_3_is_certified_with_16_probes_and_then_costs_nothing() {
        let (m, apps, start) = table_3();
        let objective = Objective::TotalGflops;
        let mut oracle = ModelOracle::new(&m, &apps, &objective)
            .unwrap()
            .with_min_threads(1);
        let climb = HillClimb::new()
            .with_iterations(600)
            .with_start(start.clone());
        // Every node is full, so the neighbourhood is the 4 x 4 removals.
        let first = climb.clone().run_model(&m, &mut oracle).unwrap();
        assert_eq!(first.assignment, start);
        assert_eq!(first.evaluations, 1);
        assert_eq!(
            first.counters,
            SearchCounters {
                full_solves: 1,
                delta_solves: 16,
                cache_hits: 0
            }
        );
        let second = climb
            .clone()
            .with_seed(7)
            .run_model(&m, &mut oracle)
            .unwrap();
        assert_eq!(second.counters, SearchCounters::default());
        assert_eq!(second.evaluations, 1);
        let want = reference_climb(&m, &apps, &objective, 1, &climb).unwrap();
        assert_same(&first, &want, "first");
        assert_same(&second, &want, "second");
        // The certified start is the result: moved in and back, not copied.
        let at = second.assignment.row(0).as_ptr();
        let third = HillClimb::new()
            .with_start(second.assignment)
            .run_model(&m, &mut oracle)
            .unwrap();
        assert_eq!(third.assignment.row(0).as_ptr(), at);
    }

    #[test]
    fn certified_never_on_a_plateau() {
        // A compute-bound thread delivers the core's peak on either node:
        // moving one is an equal score, which `>=` accepts.
        let m = machine(2, 4);
        let apps = vec![AppSpec::numa_local("comp", 32.0)];
        let start = ThreadAssignment::from_matrix(vec![vec![3, 1]]);
        let objective = Objective::TotalGflops;
        let mut oracle = ModelOracle::new(&m, &apps, &objective).unwrap();
        let base = oracle.set_base(&start).unwrap();
        let mut shifted = start.clone();
        shifted.set(0, NodeId(0), 2);
        shifted.set(0, NodeId(1), 2);
        let tie = oracle
            .score_move(&shifted, &[NodeId(0), NodeId(1)])
            .unwrap();
        assert_eq!(tie.to_bits(), base.to_bits(), "the shift is an exact tie");
        assert!(!oracle.certify_base());

        let climb = HillClimb::new().with_iterations(300).with_start(start);
        let got = climb.clone().run_model(&m, &mut oracle).unwrap();
        let want = reference_climb(&m, &apps, &objective, 0, &climb).unwrap();
        assert_same(&got, &want, "plateau");
        assert_eq!(got.evaluations, want.evaluations);
        assert_ne!(got.assignment, *climb.start.as_ref().unwrap());
    }

    #[test]
    fn certified_verdict_is_dropped_when_the_base_changes() {
        let (m, apps, start) = table_3();
        let objective = Objective::TotalGflops;
        let mut oracle = ModelOracle::new(&m, &apps, &objective)
            .unwrap()
            .with_min_threads(1);
        oracle.set_base(&start).unwrap();
        assert!(oracle.certify_base());
        assert_eq!(oracle.take_counters().delta_solves, 16);
        // Remembered: asking again, or re-basing on the same matrix, is free.
        assert!(oracle.certify_base());
        oracle.set_base(&start.clone()).unwrap();
        assert!(oracle.certify_base());
        assert_eq!(oracle.take_counters(), SearchCounters::default());

        // `accept` moves the base: one comp thread fewer on node 2, and
        // putting it back is an improvement.
        let mut fewer = start.clone();
        fewer.set(3, NodeId(2), 16);
        oracle.accept(&fewer, &[NodeId(2)]).unwrap();
        assert!(!oracle.certify_base());
        assert!(oracle.take_counters().delta_solves > 1);

        // `set_base` with another matrix solves it and certifies anew.
        oracle.set_base(&start).unwrap();
        assert!(oracle.certify_base());
        assert_eq!(
            oracle.take_counters(),
            SearchCounters {
                full_solves: 1,
                delta_solves: 16,
                cache_hits: 0
            }
        );

        // A new thread floor re-scores everything: the same matrix is
        // solved again, and under a floor of 5 the base is penalized.
        let mut oracle = oracle.with_min_threads(5);
        assert!(oracle.set_base(&start).unwrap() < 0.0);
        assert_eq!(oracle.take_counters().full_solves, 1);
        assert!(!oracle.certify_base());
    }

    #[test]
    fn certified_never_when_the_base_is_penalized() {
        // One node, full; `a` is below the floor of 2 and can never reach
        // it. Every neighbour (remove one of `b`'s) starves two apps and is
        // strictly worse, yet a penalized base is not an optimum to stop at.
        let m = machine(1, 2);
        let apps = vec![AppSpec::numa_local("a", 1.0), AppSpec::numa_local("b", 1.0)];
        let start = ThreadAssignment::from_matrix(vec![vec![0], vec![2]]);
        let objective = Objective::TotalGflops;
        let mut oracle = ModelOracle::new(&m, &apps, &objective)
            .unwrap()
            .with_min_threads(2);
        assert_eq!(oracle.set_base(&start).unwrap(), -1e12);
        assert!(!oracle.certify_base());
        assert_eq!(oracle.take_counters().delta_solves, 0, "no probe is spent");

        let climb = HillClimb::new().with_iterations(50).with_start(start);
        let got = climb.clone().run_model(&m, &mut oracle).unwrap();
        let want = reference_climb(&m, &apps, &objective, 2, &climb).unwrap();
        assert_same(&got, &want, "penalized");
        assert_eq!(got.evaluations, want.evaluations);
    }

    #[test]
    fn certified_treats_nan_and_failed_probes_as_the_climb_does() {
        let m = machine(2, 2);
        let mut base = ThreadAssignment::from_matrix(vec![vec![1, 1]]);
        let start = base.clone();
        let mut strict = |base_score: f64, neighbour: &dyn Fn() -> Result<f64>| {
            let verdict = strict_local_optimum(&m, &mut base, base_score, &mut |_, _| neighbour());
            assert_eq!(base, start, "the base is restored");
            verdict
        };
        // `s >= base` is false for a NaN `s` and for a NaN base: neither is
        // ever accepted, so neither stands in the certificate's way.
        assert!(strict(1.0, &|| Ok(f64::NAN)));
        assert!(strict(f64::NAN, &|| Ok(2.0)));
        assert!(strict(1.0, &|| Ok(0.5)));
        // A tie is accepted; a probe that fails is left for the climb.
        assert!(!strict(1.0, &|| Ok(1.0)));
        assert!(!strict(1.0, &|| Err(AllocError::NoApps)));

        // The climb itself, over the same scorers.
        let climb = HillClimb::new()
            .with_iterations(40)
            .with_start(start.clone());
        let mut nan_neighbours =
            |a: &ThreadAssignment| -> Result<f64> { Ok(if *a == start { 1.0 } else { f64::NAN }) };
        let r = climb.clone().run_with(&m, 1, &mut nan_neighbours).unwrap();
        assert_eq!(r.assignment, start);
        let mut nan_base =
            |a: &ThreadAssignment| -> Result<f64> { Ok(if *a == start { f64::NAN } else { 2.0 }) };
        let r = climb.run_with(&m, 1, &mut nan_base).unwrap();
        assert_eq!(r.assignment, start);
        assert!(r.score.is_nan());
    }
}

#[cfg(test)]
mod annealing_tests {
    use super::*;
    use crate::score;
    use numa_topology::presets::{paper_crossnode_machine, paper_model_machine};

    fn paper_apps() -> Vec<AppSpec> {
        vec![
            AppSpec::numa_local("mem1", 0.5),
            AppSpec::numa_local("mem2", 0.5),
            AppSpec::numa_local("mem3", 0.5),
            AppSpec::numa_local("comp", 10.0),
        ]
    }

    #[test]
    fn annealing_reaches_good_solutions() {
        let m = paper_model_machine();
        let sa = SimulatedAnnealing::new()
            .with_iterations(4000)
            .run(&m, &paper_apps(), &Objective::TotalGflops)
            .unwrap();
        assert!(sa.score >= 254.0, "annealing found only {}", sa.score);
        assert!(sa.assignment.validate(&m).is_ok());
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let m = paper_model_machine();
        let a = SimulatedAnnealing::new()
            .with_iterations(800)
            .with_seed(3)
            .run(&m, &paper_apps(), &Objective::TotalGflops)
            .unwrap();
        let b = SimulatedAnnealing::new()
            .with_iterations(800)
            .with_seed(3)
            .run(&m, &paper_apps(), &Objective::TotalGflops)
            .unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.score, b.score);
    }

    #[test]
    fn annealing_handles_numa_bad_placement() {
        let m = paper_crossnode_machine();
        let apps = vec![
            AppSpec::numa_local("perf1", 0.5),
            AppSpec::numa_local("perf2", 0.5),
            AppSpec::numa_local("perf3", 0.5),
            AppSpec::numa_bad("bad", 1.0, NodeId(3)),
        ];
        let sa = SimulatedAnnealing::new()
            .with_iterations(6000)
            .with_seed(11)
            .run(&m, &apps, &Objective::TotalGflops)
            .unwrap();
        // Must beat the even allocation (138.75), i.e. discover that the
        // bad app's threads belong near its data.
        assert!(sa.score > 138.75, "annealing stuck at {}", sa.score);
    }

    #[test]
    fn annealing_model_path_matches_oracle_path() {
        let m = paper_model_machine();
        let apps = paper_apps();
        let sa = SimulatedAnnealing::new().with_iterations(600).with_seed(21);
        let fast = sa.run(&m, &apps, &Objective::TotalGflops).unwrap();
        let mut oracle =
            |a: &ThreadAssignment| -> Result<f64> { score(&m, &apps, a, &Objective::TotalGflops) };
        let slow = sa.run_with(&m, apps.len(), &mut oracle).unwrap();
        assert_eq!(fast.assignment, slow.assignment);
        assert_eq!(fast.score, slow.score);
        assert_eq!(fast.evaluations, slow.evaluations);
    }

    #[test]
    fn annealing_portfolio_beats_or_matches_single_seed() {
        let m = paper_crossnode_machine();
        let apps = vec![
            AppSpec::numa_local("perf1", 0.5),
            AppSpec::numa_local("perf2", 0.5),
            AppSpec::numa_local("perf3", 0.5),
            AppSpec::numa_bad("bad", 1.0, NodeId(3)),
        ];
        let sa = SimulatedAnnealing::new().with_iterations(1500);
        let single = sa
            .clone()
            .with_seed(11)
            .run(&m, &apps, &Objective::TotalGflops)
            .unwrap();
        let portfolio = sa
            .run_portfolio(
                &m,
                &apps,
                &Objective::TotalGflops,
                &Portfolio::new()
                    .with_seeds(vec![11, 12, 13])
                    .with_threads(3),
                None,
            )
            .unwrap();
        assert!(portfolio.score >= single.score);
    }

    #[test]
    fn zero_temperature_degenerates_to_hill_climb_behaviour() {
        let m = paper_model_machine();
        let sa = SimulatedAnnealing {
            initial_temperature: 0.0,
            cooling: 0.5,
            ..SimulatedAnnealing::new().with_iterations(1000).with_seed(5)
        }
        .run(&m, &paper_apps(), &Objective::TotalGflops)
        .unwrap();
        // Monotone acceptance only: still valid and never below the start.
        let start = strategies::fair_share(&m, 4).unwrap();
        let s0 = score(&m, &paper_apps(), &start, &Objective::TotalGflops).unwrap();
        assert!(sa.score >= s0);
    }

    #[test]
    fn annealing_rejects_zero_apps() {
        let m = paper_model_machine();
        assert!(matches!(
            SimulatedAnnealing::new().run(&m, &[], &Objective::TotalGflops),
            Err(AllocError::NoApps)
        ));
    }
}
