//! Built-in agent policies.

use crate::{Policy, RuntimeStats, ThreadCommand};
use coop_alloc::search::{GreedySearch, HillClimb, ModelOracle, SearchResult};
use coop_alloc::{CacheStats, ColumnTable, Objective, ScoreCache, SearchCounters};
use numa_topology::Machine;
use roofline_numa::{AppSpec, DataPlacement, ThreadAssignment};
use std::sync::Arc;

/// Converts one application's row of a [`ThreadAssignment`] into the
/// per-node command the paper's blocking option 3 expects.
pub(crate) fn per_node_command(
    assignment: &ThreadAssignment,
    app: usize,
    machine: &Machine,
) -> ThreadCommand {
    ThreadCommand::PerNode(
        machine
            .node_ids()
            .map(|n| assignment.get(app, n))
            .collect::<Vec<_>>(),
    )
}

/// Gives every managed runtime an equal per-node share of the cores, once
/// (the paper's "simple core allocation strategy": total worker threads
/// across all applications equals the machine's core count).
pub struct FairShare {
    machine: Machine,
    applied: bool,
}

impl FairShare {
    /// Creates the policy for the given machine.
    pub fn new(machine: Machine) -> Self {
        FairShare {
            machine,
            applied: false,
        }
    }
}

impl Policy for FairShare {
    fn tick(&mut self, stats: &[RuntimeStats], _tick: u64) -> Vec<Option<ThreadCommand>> {
        if self.applied {
            return vec![None; stats.len()];
        }
        self.applied = true;
        match coop_alloc::strategies::fair_share(&self.machine, stats.len()) {
            Ok(assignment) => (0..stats.len())
                .map(|app| Some(per_node_command(&assignment, app, &self.machine)))
                .collect(),
            Err(_) => vec![None; stats.len()],
        }
    }
}

/// The SBAC-PAD'18 producer-consumer alignment policy: watch the
/// `produced` / `consumed` user counters and adjust the *producer's* total
/// thread count so the producer stays only a small number of iterations
/// ahead of the consumer.
pub struct ProducerConsumerThrottle {
    /// Index of the producer in the agent's registry.
    pub producer: usize,
    /// Index of the consumer in the agent's registry.
    pub consumer: usize,
    /// Shrink the producer when the lead exceeds this.
    pub high_watermark: u64,
    /// Grow the producer when the lead falls below this.
    pub low_watermark: u64,
    /// Thread-count bounds for the producer.
    pub min_threads: usize,
    /// Upper bound (normally the machine's core count).
    pub max_threads: usize,
    current: usize,
}

impl ProducerConsumerThrottle {
    /// Creates the policy; the producer starts at `max_threads`.
    pub fn new(
        producer: usize,
        consumer: usize,
        low_watermark: u64,
        high_watermark: u64,
        min_threads: usize,
        max_threads: usize,
    ) -> Self {
        ProducerConsumerThrottle {
            producer,
            consumer,
            high_watermark,
            low_watermark,
            min_threads,
            max_threads,
            current: max_threads,
        }
    }

    /// The producer thread target the policy currently holds.
    pub fn current_target(&self) -> usize {
        self.current
    }
}

impl Policy for ProducerConsumerThrottle {
    fn tick(&mut self, stats: &[RuntimeStats], _tick: u64) -> Vec<Option<ThreadCommand>> {
        let mut out = vec![None; stats.len()];
        let (Some(p), Some(c)) = (stats.get(self.producer), stats.get(self.consumer)) else {
            return out;
        };
        let produced = p.user_counter("produced");
        let consumed = c.user_counter("consumed");
        let lead = produced.saturating_sub(consumed);

        let next = if lead > self.high_watermark {
            self.current.saturating_sub(1).max(self.min_threads)
        } else if lead < self.low_watermark {
            (self.current + 1).min(self.max_threads)
        } else {
            self.current
        };
        if next != self.current {
            self.current = next;
            out[self.producer] = Some(ThreadCommand::TotalThreads(next));
        }
        out
    }
}

/// Threads every application keeps machine-wide under [`ModelGuided`]: the
/// search satisfies this floor before it optimizes GFLOPS. The exact path
/// ([`ColumnTable`]) serves every application it decides, which is this
/// floor.
const MIN_THREADS_PER_APP: usize = 1;

/// Hill-climb proposals per warm-started [`ModelGuided`] re-solve whose
/// start is not a certified strict local optimum.
const WARM_ITERATIONS: usize = 1500;

/// Model-guided repartitioning: knows each runtime's [`AppSpec`] (AI and
/// data placement), runs a model search periodically, and pushes the
/// resulting per-node allocations to every runtime.
///
/// This is the paper's NUMA-aware endgame: allocations expressed as
/// "threads per NUMA node" (option 3), chosen with a model that
/// understands both bandwidth sharing and data placement.
///
/// **Exact path.** When every live application is
/// [`DataPlacement::Local`], the model (objective [`Objective::TotalGflops`])
/// is a sum of per-node terms and the policy decides exactly, from a
/// [`ColumnTable`] built once over the NUMA-local applications among the
/// `apps` it was given: a live set of them is a subset of that table's,
/// so an eviction or a re-admission only merges the table again, and a
/// warm tick on an unchanged set is settled without a search (its answer
/// is already the optimum). [`new`](ModelGuided::new) builds the table;
/// it is not built for more than [`separable::MAX_APPS`] of them, and a
/// live set with more applications than cores is not decided exactly
/// either.
///
/// **Fallback.** Otherwise (a coupled mix, or past `MAX_APPS`) a changed
/// live set is solved cold (greedy); an unchanged one every `period` ticks
/// by a hill climb **warm-started** from the previous assignment, on a
/// [`ScoreCache`] kept while the live set holds. A strict local optimum is
/// certified (one probe per neighbour), and a warm climb from a start the
/// last one returned unchanged is skipped: its seed, iterations and context
/// are fixed and cached scores exact, so it would return that start again.
///
/// The latest search's cost ([`search_inputs`]) goes into the policy's
/// [`Prediction`](coop_telemetry::Prediction). For an exact decision,
/// `search/evaluations` counts the columns the table kept on the first
/// one and is 0 on every later one (the table is reused), the solve
/// counters are 0 (columns are scored in closed form, not by the solver),
/// and `search/warm_start` is 0: an exact decision is only ever made for a
/// changed live set.
///
/// [`search_inputs`]: ModelGuided::search_inputs
/// [`DataPlacement::Local`]: roofline_numa::DataPlacement::Local
/// [`separable::MAX_APPS`]: coop_alloc::separable::MAX_APPS
pub struct ModelGuided {
    machine: Machine,
    apps: Vec<AppSpec>,
    /// Re-run the search every this many ticks (1 = every tick).
    pub period: u64,
    last: Option<Solved>,
    cache: Option<Arc<ScoreCache>>,
    /// The exact path's table, built in [`new`](ModelGuided::new); `None`
    /// when no application is NUMA-local or more than `MAX_APPS` are.
    exact: Option<Exact>,
    /// The columns the table kept are not yet in any `search_inputs()`.
    columns_unreported: bool,
    last_counters: SearchCounters,
    last_evaluations: usize,
    last_warm: bool,
    /// The latest decision cannot change while the live set holds: an
    /// exact one, or a warm search that returned its start unchanged.
    settled: bool,
}

/// The exact path's table and which of the policy's `apps` it covers.
struct Exact {
    table: ColumnTable,
    /// Positions in `apps` of the table's applications, ascending.
    covers: Vec<usize>,
}

fn is_local(app: &AppSpec) -> bool {
    matches!(app.placement, DataPlacement::Local)
}

/// The most recent solve: the live set it covered (runtime names in
/// stats order, with the matching specs) plus the chosen assignment.
struct Solved {
    names: Vec<String>,
    apps: Vec<AppSpec>,
    assignment: ThreadAssignment,
}

impl ModelGuided {
    /// Creates the policy. `apps` describes the managed runtimes *by
    /// name*: each tick the policy matches the polled stats against the
    /// specs and solves over exactly the runtimes that answered, so a
    /// quarantined or evicted runtime shrinks the solve to the live set
    /// (its cores flow to the survivors) instead of stalling it.
    pub fn new(machine: Machine, apps: Vec<AppSpec>) -> Self {
        let covers: Vec<usize> = (0..apps.len()).filter(|&i| is_local(&apps[i])).collect();
        let local: Vec<AppSpec> = covers.iter().map(|&i| apps[i].clone()).collect();
        let exact = ColumnTable::build(&machine, &local, &Objective::TotalGflops)
            .map(|table| Exact { table, covers });
        ModelGuided {
            machine,
            apps,
            period: 10,
            last: None,
            cache: None,
            columns_unreported: exact.is_some(),
            exact,
            last_counters: SearchCounters::default(),
            last_evaluations: 0,
            last_warm: false,
            settled: false,
        }
    }

    /// The most recent assignment the policy computed (rows follow the
    /// stats order of the tick that produced it).
    pub fn last_assignment(&self) -> Option<&ThreadAssignment> {
        self.last.as_ref().map(|s| &s.assignment)
    }

    /// Solver-work counters of the most recent search (zero for a skipped
    /// one, and for an exact decision).
    pub fn last_search_counters(&self) -> SearchCounters {
        self.last_counters
    }

    /// The most recent search's cost, as the `search/*` prediction inputs
    /// the provenance ledger records: its solver work, its evaluations and
    /// whether it started warm.
    pub fn search_inputs(&self) -> [(&'static str, f64); 5] {
        let c = self.last_counters;
        [
            ("search/full_solves", c.full_solves as f64),
            ("search/delta_solves", c.delta_solves as f64),
            ("search/cache_hits", c.cache_hits as f64),
            ("search/evaluations", self.last_evaluations as f64),
            ("search/warm_start", f64::from(u8::from(self.last_warm))),
        ]
    }

    /// Hit/miss/insert statistics of the persistent score cache, if a
    /// fallback search has run.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The exact decision over the live applications (positions in
    /// `apps`, in stats order), if the exact path takes them.
    /// `evaluations` is the columns the table kept on the first exact
    /// decision, 0 on every later one.
    fn decide_exactly(&mut self, live: &[usize]) -> Option<SearchResult> {
        let exact = self.exact.as_ref()?;
        let rows: Option<Vec<usize>> = (live.iter())
            .map(|i| exact.covers.binary_search(i).ok())
            .collect();
        let mut found = exact.table.decide(&rows?)?;
        if std::mem::take(&mut self.columns_unreported) {
            found.evaluations = exact.table.columns();
        }
        Some(found)
    }

    /// Runs the model search over the live set. The oracle penalizes
    /// assignments that starve any application below the thread floor, so
    /// the search satisfies every application first and only then
    /// optimizes GFLOPS.
    ///
    /// `warm` (the previous solve over the *same* live set) turns the
    /// cold greedy construction into a hill climb seeded at the previous
    /// optimum. The persistent score cache is reused whenever the solving
    /// context (machine, live apps, objective, thread floor) fingerprints
    /// the same, and rebuilt otherwise.
    fn search(&mut self, apps: &[AppSpec], warm: Option<ThreadAssignment>) -> Option<SearchResult> {
        let objective = Objective::TotalGflops;
        let oracle = ModelOracle::new(&self.machine, apps, &objective)
            .ok()?
            .with_min_threads(MIN_THREADS_PER_APP);
        let fingerprint = oracle.fingerprint();
        let cache = match self.cache.as_ref() {
            Some(c) if c.fingerprint() == fingerprint => Arc::clone(c),
            _ => {
                let fresh = Arc::new(ScoreCache::new(fingerprint));
                self.cache = Some(Arc::clone(&fresh));
                fresh
            }
        };
        let mut oracle = oracle.with_cache(cache).ok()?;
        match warm {
            Some(start) => HillClimb::new()
                .with_iterations(WARM_ITERATIONS)
                .with_start(start)
                .run_model(&self.machine, &mut oracle),
            None => GreedySearch::new().run_model(&self.machine, &mut oracle),
        }
        .ok()
    }
}

impl Policy for ModelGuided {
    fn prediction(&self) -> Option<coop_telemetry::Prediction> {
        let last = self.last.as_ref()?;
        let report = roofline_numa::solve(&self.machine, &last.apps, &last.assignment).ok()?;
        let mut prediction = report.to_prediction();
        prediction.assignment = format!("{:?}", last.assignment.to_matrix()).into();
        let search = self.search_inputs().map(|(key, value)| (key.into(), value));
        prediction.inputs.extend(search);
        Some(prediction)
    }

    /// Silent (an empty vector) unless a search ran and changed the
    /// assignment or the live set; a tick with nothing to search allocates
    /// nothing.
    fn tick(&mut self, stats: &[RuntimeStats], tick: u64) -> Vec<Option<ThreadCommand>> {
        let same_set = self.last.as_ref().is_some_and(|l| {
            l.names.len() == stats.len() && l.names.iter().zip(stats).all(|(n, s)| *n == s.name)
        });
        // A changed live set (eviction, re-admission) forces an immediate
        // re-solve even off-period: reclaimed cores should not idle for
        // up to `period` ticks.
        if same_set && (self.settled || !tick.is_multiple_of(self.period)) {
            if tick.is_multiple_of(self.period) {
                // The search it skips records no solver work.
                (self.last_counters, self.last_evaluations) = (SearchCounters::default(), 0);
            }
            return Vec::new();
        }
        // Specs by name; silent if a polled runtime has none (the policy
        // cannot model it).
        let live: Option<Vec<usize>> = (stats.iter())
            .map(|s| self.apps.iter().position(|a| a.name == s.name))
            .collect();
        let Some(live) = live.filter(|live| !live.is_empty()) else {
            return Vec::new();
        };
        let live_apps: Vec<AppSpec> = live.iter().map(|&i| self.apps[i].clone()).collect();
        // Same live set: warm-start from the previous assignment. A
        // changed set means the previous matrix has the wrong shape (and
        // the wrong meaning), so solve cold.
        let warm_from = (self.last.as_ref())
            .filter(|_| same_set)
            .map(|l| l.assignment.clone());
        self.last_warm = warm_from.is_some();
        let exact = self.decide_exactly(&live);
        let settled = exact.is_some();
        let Some(found) = exact.or_else(|| self.search(&live_apps, warm_from)) else {
            return Vec::new();
        };
        (self.last_counters, self.last_evaluations) = (found.counters, found.evaluations);
        let assignment = found.assignment;
        let changed = !same_set || self.last.as_ref().map(|l| &l.assignment) != Some(&assignment);
        self.settled = settled || !changed;
        let names = stats.iter().map(|s| s.name.clone()).collect();
        let last = self.last.insert(Solved {
            names,
            apps: live_apps,
            assignment,
        });
        if !changed {
            return Vec::new();
        }
        (0..stats.len())
            .map(|app| Some(per_node_command(&last.assignment, app, &self.machine)))
            .collect()
    }
}

/// The §II tight-integration scenario: a "main" application occasionally
/// delegates work to a "library" application. While the library has work
/// pending, shift it most of the cores; when it drains, hand them back —
/// "when the 'library' finishes, we can quickly free up the CPU cores that
/// were used to run it and move them back to the 'main' application".
pub struct LibraryBurst {
    /// Registry index of the main application.
    pub main: usize,
    /// Registry index of the library application.
    pub library: usize,
    /// Cores (machine-wide) the library gets while bursting.
    pub burst_threads: usize,
    /// Cores the library keeps while idle.
    pub idle_threads: usize,
    machine_cores: usize,
    library_active: Option<bool>,
}

impl LibraryBurst {
    /// Creates the policy for a machine with `machine_cores` total cores.
    pub fn new(main: usize, library: usize, machine_cores: usize) -> Self {
        LibraryBurst {
            main,
            library,
            burst_threads: machine_cores.saturating_sub(1).max(1),
            idle_threads: 0,
            machine_cores,
            library_active: None,
        }
    }
}

impl Policy for LibraryBurst {
    fn tick(&mut self, stats: &[RuntimeStats], _tick: u64) -> Vec<Option<ThreadCommand>> {
        let mut out = vec![None; stats.len()];
        let Some(lib) = stats.get(self.library) else {
            return out;
        };
        let active = lib.tasks_pending > 0;
        if self.library_active == Some(active) {
            return out; // no transition, no commands
        }
        self.library_active = Some(active);
        if active {
            out[self.library] = Some(ThreadCommand::TotalThreads(self.burst_threads));
            out[self.main] = Some(ThreadCommand::TotalThreads(
                self.machine_cores - self.burst_threads.min(self.machine_cores),
            ));
        } else {
            out[self.library] = Some(ThreadCommand::TotalThreads(self.idle_threads));
            out[self.main] = Some(ThreadCommand::TotalThreads(self.machine_cores));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::paper_model_machine;
    use std::collections::HashMap;

    fn fake_stats(name: &str, counters: &[(&str, u64)], pending: u64) -> RuntimeStats {
        RuntimeStats {
            name: name.into(),
            tasks_executed: 0,
            tasks_panicked: 0,
            tasks_spawned: pending,
            tasks_ready: 0,
            tasks_pending: pending,
            running_workers: 0,
            blocked_workers: 0,
            external_threads: 0,
            per_node: vec![],
            user_counters: counters
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect::<HashMap<_, _>>(),
            uptime_us: 0,
            tasks_preempted: 0,
            tasks_runaway: 0,
            overbudget_cpu_us: 0,
        }
    }

    #[test]
    fn fair_share_issues_once() {
        let m = paper_model_machine();
        let mut p = FairShare::new(m);
        let stats = vec![fake_stats("a", &[], 0), fake_stats("b", &[], 0)];
        let cmds = p.tick(&stats, 0);
        assert_eq!(cmds.len(), 2);
        for c in &cmds {
            match c {
                Some(ThreadCommand::PerNode(t)) => assert_eq!(t, &vec![4, 4, 4, 4]),
                other => panic!("expected PerNode, got {other:?}"),
            }
        }
        // Second tick: silent.
        assert!(p.tick(&stats, 1).iter().all(|c| c.is_none()));
    }

    #[test]
    fn throttle_reacts_to_lead() {
        let mut p = ProducerConsumerThrottle::new(0, 1, 2, 6, 1, 8);
        // Lead 10 > high: shrink producer.
        let stats = vec![
            fake_stats("prod", &[("produced", 20)], 0),
            fake_stats("cons", &[("consumed", 10)], 0),
        ];
        let cmds = p.tick(&stats, 0);
        assert_eq!(cmds[0], Some(ThreadCommand::TotalThreads(7)));
        assert!(cmds[1].is_none());
        // Repeated high lead keeps shrinking to the floor.
        for _ in 0..10 {
            p.tick(&stats, 0);
        }
        assert_eq!(p.current_target(), 1);
        // Lead 0 < low: grow back.
        let stats = vec![
            fake_stats("prod", &[("produced", 20)], 0),
            fake_stats("cons", &[("consumed", 20)], 0),
        ];
        let cmds = p.tick(&stats, 0);
        assert_eq!(cmds[0], Some(ThreadCommand::TotalThreads(2)));
        // In-band lead: no command.
        let stats = vec![
            fake_stats("prod", &[("produced", 24)], 0),
            fake_stats("cons", &[("consumed", 20)], 0),
        ];
        assert!(p.tick(&stats, 0)[0].is_none());
    }

    #[test]
    fn model_guided_finds_table_1_partition() {
        let m = paper_model_machine();
        let apps = vec![
            AppSpec::numa_local("mem1", 0.5),
            AppSpec::numa_local("mem2", 0.5),
            AppSpec::numa_local("mem3", 0.5),
            AppSpec::numa_local("comp", 10.0),
        ];
        // Specs are matched to polled runtimes by name.
        let stats: Vec<RuntimeStats> = apps.iter().map(|a| fake_stats(&a.name, &[], 0)).collect();
        let mut p = ModelGuided::new(m.clone(), apps);
        let cmds = p.tick(&stats, 0);
        assert!(cmds.iter().all(|c| c.is_some()));
        let assignment = p.last_assignment().unwrap();
        // Every app keeps at least one thread; the compute app dominates.
        for app in 0..4 {
            assert!(assignment.app_total(app) >= 1);
        }
        assert!(assignment.app_total(3) > assignment.app_total(0));
        // Non-period tick with unchanged search: silent.
        let cmds2 = p.tick(&stats, 1);
        assert!(cmds2.iter().all(|c| c.is_none()));
    }

    #[test]
    fn model_guided_resolves_over_the_live_set() {
        let m = paper_model_machine();
        let apps = vec![
            AppSpec::numa_local("a", 0.5),
            AppSpec::numa_local("b", 0.5),
            AppSpec::numa_local("c", 10.0),
        ];
        let mut p = ModelGuided::new(m, apps);
        let full: Vec<RuntimeStats> = ["a", "b", "c"]
            .iter()
            .map(|n| fake_stats(n, &[], 0))
            .collect();
        let cmds = p.tick(&full, 0);
        assert!(cmds.iter().all(|c| c.is_some()));

        // 'b' disappears (evicted): the next tick re-solves over the two
        // survivors immediately, even though it is off-period.
        let live = vec![fake_stats("a", &[], 0), fake_stats("c", &[], 0)];
        let cmds = p.tick(&live, 1);
        assert_eq!(cmds.len(), 2);
        assert!(
            cmds.iter().all(|c| c.is_some()),
            "live-set change forces an immediate re-solve"
        );
        let assignment = p.last_assignment().unwrap();
        assert!(assignment.app_total(0) >= 1 && assignment.app_total(1) >= 1);

        // 'b' comes back: another immediate re-solve over all three.
        let cmds = p.tick(&full, 2);
        assert_eq!(cmds.len(), 3);
        assert!(cmds.iter().all(|c| c.is_some()));

        // A runtime the policy has no spec for: silent (cannot model it).
        let unknown = vec![fake_stats("a", &[], 0), fake_stats("mystery", &[], 0)];
        assert!(p.tick(&unknown, 3).iter().all(|c| c.is_none()));
    }

    #[test]
    fn model_guided_exposes_prediction() {
        let m = paper_model_machine();
        let apps = vec![
            AppSpec::numa_local("mem1", 0.5),
            AppSpec::numa_local("comp", 10.0),
        ];
        let mut p = ModelGuided::new(m, apps);
        assert!(p.prediction().is_none(), "no assignment before first tick");
        let stats = vec![fake_stats("mem1", &[], 0), fake_stats("comp", &[], 0)];
        p.tick(&stats, 0);
        let pred = p.prediction().expect("prediction after first search");
        assert!(pred.value("app/mem1/gflops").unwrap() > 0.0);
        assert!(pred.value("app/comp/bandwidth_gbs").is_some());
        assert!(pred.value("node/0/bandwidth_gbs").is_some());
        assert!(!pred.assignment.is_empty());
        assert!(pred
            .inputs
            .iter()
            .any(|(k, v)| &**k == "ai/mem1" && *v == 0.5));
        assert!(
            pred.inputs
                .iter()
                .any(|(k, _)| &**k == "search/full_solves"),
            "search cost counters belong to the provenance record"
        );
    }

    #[test]
    fn model_guided_decides_local_mixes_exactly_and_reuses_its_table() {
        let m = paper_model_machine();
        let apps = vec![
            AppSpec::numa_local("mem1", 0.5),
            AppSpec::numa_local("mem2", 0.5),
            AppSpec::numa_local("comp", 10.0),
        ];
        let mut p = ModelGuided::new(m.clone(), apps.clone());
        p.period = 1;
        let all: Vec<RuntimeStats> = apps.iter().map(|a| fake_stats(&a.name, &[], 0)).collect();
        let cmds = p.tick(&all, 0);
        assert!(cmds.iter().all(|c| c.is_some()));
        let exact = ColumnTable::search(&m, &apps, &Objective::TotalGflops).unwrap();
        assert_eq!(p.last_assignment(), Some(&exact.assignment));
        let inputs = p.search_inputs();
        assert_eq!(inputs[3].1, exact.evaluations as f64, "the columns kept");
        assert_eq!(p.last_search_counters(), SearchCounters::default());
        assert!(p.cache_stats().is_none(), "no fallback search ran");

        // On-period, same set: settled, no search.
        assert!(p.tick(&all, 1).is_empty());
        assert_eq!(p.search_inputs()[3].1, 0.0);

        // An eviction re-merges the table: no column scored again, and the
        // survivors' decision is their own exact one.
        let survivors = [all[0].clone(), all[2].clone()];
        assert!(p.tick(&survivors, 2).iter().all(|c| c.is_some()));
        assert_eq!(p.search_inputs()[3].1, 0.0, "the table was reused");
        let live = [apps[0].clone(), apps[2].clone()];
        let own = ColumnTable::search(&m, &live, &Objective::TotalGflops).unwrap();
        assert_eq!(p.last_assignment(), Some(&own.assignment));
    }

    #[test]
    fn model_guided_decides_seven_to_ten_local_apps_on_skylake_exactly() {
        // Seven local applications have C(26, 6) = 230 230 full columns on
        // a 20-core node; the table keeps one per served mask. Its decision
        // is never below the greedy and the warm climb from it, which
        // decide a mix the table declines.
        use coop_alloc::{cases, Scorer};
        let m = numa_topology::presets::paper_skylake_machine();
        cases::check(26, 24, |g| {
            let apps: Vec<AppSpec> = (0..g.range(7..11usize))
                .map(|i| AppSpec::numa_local(&format!("a{i}"), g.range(0.002..0.2)))
                .collect();
            let mut p = ModelGuided::new(m.clone(), apps.clone());
            let stats: Vec<RuntimeStats> =
                apps.iter().map(|a| fake_stats(&a.name, &[], 0)).collect();
            assert!(p.tick(&stats, 0).iter().all(|c| c.is_some()));
            let inputs = p.search_inputs();
            let masks = (1 << apps.len()) - 1;
            assert_eq!(inputs[3].1, f64::from(masks), "one shape, every mask kept");
            assert_eq!(p.last_search_counters(), SearchCounters::default());
            let oracle = || {
                ModelOracle::new(&m, &apps, &Objective::TotalGflops)
                    .unwrap()
                    .with_min_threads(MIN_THREADS_PER_APP)
            };
            let greedy = GreedySearch::new().run_model(&m, &mut oracle()).unwrap();
            let climbed = HillClimb::new()
                .with_iterations(WARM_ITERATIONS)
                .with_start(greedy.assignment)
                .run_model(&m, &mut oracle())
                .unwrap();
            let exact = oracle().score(p.last_assignment().unwrap()).unwrap();
            assert!(
                exact >= climbed.score - 1e-9 * climbed.score.abs(),
                "{exact} below the fallback's {}",
                climbed.score
            );
        });
    }

    #[test]
    fn model_guided_past_the_exact_limits_commands_the_greedy_then_the_climb() {
        // One NUMA-local application more than a table covers: no table,
        // and the policy commands what the greedy, then the warm climb
        // from it, give.
        let m = paper_model_machine();
        let apps: Vec<AppSpec> = (0..=coop_alloc::separable::MAX_APPS)
            .map(|i| AppSpec::numa_local(&format!("a{i}"), 0.25 * (i + 1) as f64))
            .collect();
        let mut p = ModelGuided::new(m.clone(), apps.clone());
        p.period = 1;
        assert!(p.exact.is_none(), "past MAX_APPS: no table built");
        let stats: Vec<RuntimeStats> = apps.iter().map(|a| fake_stats(&a.name, &[], 0)).collect();
        let oracle = || {
            ModelOracle::new(&m, &apps, &Objective::TotalGflops)
                .unwrap()
                .with_min_threads(MIN_THREADS_PER_APP)
        };

        assert!(p.tick(&stats, 0).iter().all(|c| c.is_some()));
        let greedy = GreedySearch::new().run_model(&m, &mut oracle()).unwrap();
        assert_eq!(p.last_assignment(), Some(&greedy.assignment));
        assert!(p.search_inputs()[3].1 > 0.0 && p.cache_stats().is_some());

        p.tick(&stats, 1);
        let climbed = HillClimb::new()
            .with_iterations(WARM_ITERATIONS)
            .with_start(greedy.assignment)
            .run_model(&m, &mut oracle())
            .unwrap();
        assert_eq!(p.last_assignment(), Some(&climbed.assignment));
        assert_eq!(p.search_inputs()[4].1, 1.0, "a warm climb");
        assert!(p.exact.is_none());
    }

    #[test]
    fn model_guided_warm_starts_and_keeps_the_cache_across_ticks() {
        // One NUMA-bad application couples the nodes: the greedy and the
        // warm climb decide.
        let m = paper_model_machine();
        let apps = vec![
            AppSpec::numa_bad("mem1", 0.5, numa_topology::NodeId(0)),
            AppSpec::numa_local("comp", 10.0),
        ];
        let mut p = ModelGuided::new(m, apps);
        p.period = 1; // re-solve every tick
        let stats = vec![fake_stats("mem1", &[], 0), fake_stats("comp", &[], 0)];

        p.tick(&stats, 0);
        let cold = p.last_search_counters();
        assert!(
            cold.full_solves >= 1,
            "cold greedy solve pays at least one full solve"
        );
        let cache = p.cache_stats().expect("cache created by the first search");
        let first_assignment = p.last_assignment().unwrap().clone();

        // Same live set, on-period: warm hill climb from the previous
        // assignment, same persistent cache.
        p.tick(&stats, 1);
        let pred = p.prediction().unwrap();
        assert!(pred
            .inputs
            .iter()
            .any(|(k, v)| &**k == "search/warm_start" && *v == 1.0));
        let warm = p.last_search_counters();
        assert!(
            warm.full_solves + warm.delta_solves + warm.cache_hits > 0,
            "warm re-solve still consults the model"
        );
        let cache_after = p.cache_stats().unwrap();
        assert!(
            cache_after.inserts >= cache.inserts && cache_after.hits >= cache.hits,
            "the cache persists across ticks (counters never reset)"
        );
        // A warm climb starts at the previous optimum, so it never ends
        // somewhere worse; the assignment shape is unchanged.
        assert_eq!(
            p.last_assignment().unwrap().num_apps(),
            first_assignment.num_apps()
        );

        // Live-set change: cold solve, fresh cache fingerprint.
        let solo = vec![fake_stats("comp", &[], 0)];
        p.tick(&solo, 2);
        let pred = p.prediction().unwrap();
        assert!(pred
            .inputs
            .iter()
            .any(|(k, v)| &**k == "search/warm_start" && *v == 0.0));
    }

    #[test]
    fn library_burst_shifts_and_restores() {
        let mut p = LibraryBurst::new(0, 1, 8);
        // Library idle at first tick: explicit idle commands.
        let idle = vec![fake_stats("main", &[], 0), fake_stats("lib", &[], 0)];
        let cmds = p.tick(&idle, 0);
        assert_eq!(cmds[1], Some(ThreadCommand::TotalThreads(0)));
        assert_eq!(cmds[0], Some(ThreadCommand::TotalThreads(8)));
        // Burst begins.
        let busy = vec![fake_stats("main", &[], 0), fake_stats("lib", &[], 5)];
        let cmds = p.tick(&busy, 1);
        assert_eq!(cmds[1], Some(ThreadCommand::TotalThreads(7)));
        assert_eq!(cmds[0], Some(ThreadCommand::TotalThreads(1)));
        // Still busy: no repeated commands.
        assert!(p.tick(&busy, 2).iter().all(|c| c.is_none()));
        // Burst ends: cores return.
        let cmds = p.tick(&idle, 3);
        assert_eq!(cmds[0], Some(ThreadCommand::TotalThreads(8)));
        assert_eq!(cmds[1], Some(ThreadCommand::TotalThreads(0)));
    }
}

/// Chains several policies: each tick, every sub-policy sees the same
/// stats; the *last* sub-policy to issue a command for a runtime wins that
/// tick. Use to layer a slow model-guided repartitioner under a fast
/// reactive throttle, mirroring the paper's suggestion that coarse
/// partitioning and fine adjustment are separate concerns.
pub struct Chain {
    policies: Vec<Box<dyn crate::Policy>>,
}

impl Chain {
    /// Creates a chain from sub-policies (earlier = lower precedence).
    pub fn new(policies: Vec<Box<dyn crate::Policy>>) -> Self {
        Chain { policies }
    }
}

impl crate::Policy for Chain {
    fn prediction(&self) -> Option<coop_telemetry::Prediction> {
        // Highest-precedence model-driven sub-policy wins, matching the
        // last-wins command merge.
        self.policies.iter().rev().find_map(|p| p.prediction())
    }

    fn tick(&mut self, stats: &[RuntimeStats], tick: u64) -> Vec<Option<ThreadCommand>> {
        let mut merged: Vec<Option<ThreadCommand>> = vec![None; stats.len()];
        for p in self.policies.iter_mut() {
            for (slot, cmd) in merged.iter_mut().zip(p.tick(stats, tick)) {
                if cmd.is_some() {
                    *slot = cmd;
                }
            }
        }
        merged
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;
    use crate::Policy;
    use std::collections::HashMap;

    struct Fixed(usize, Option<ThreadCommand>);
    impl Policy for Fixed {
        fn tick(&mut self, stats: &[RuntimeStats], _t: u64) -> Vec<Option<ThreadCommand>> {
            let mut out = vec![None; stats.len()];
            out[self.0] = self.1.clone();
            out
        }
    }

    fn stats(n: usize) -> Vec<RuntimeStats> {
        (0..n)
            .map(|i| RuntimeStats {
                name: format!("r{i}"),
                tasks_executed: 0,
                tasks_panicked: 0,
                tasks_spawned: 0,
                tasks_ready: 0,
                tasks_pending: 0,
                running_workers: 0,
                blocked_workers: 0,
                external_threads: 0,
                per_node: vec![],
                user_counters: HashMap::new(),
                uptime_us: 0,
                tasks_preempted: 0,
                tasks_runaway: 0,
                overbudget_cpu_us: 0,
            })
            .collect()
    }

    #[test]
    fn later_policies_override_earlier_ones() {
        let mut chain = Chain::new(vec![
            Box::new(Fixed(0, Some(ThreadCommand::TotalThreads(8)))),
            Box::new(Fixed(0, Some(ThreadCommand::TotalThreads(2)))),
            Box::new(Fixed(1, Some(ThreadCommand::TotalThreads(4)))),
        ]);
        let cmds = chain.tick(&stats(2), 0);
        assert_eq!(cmds[0], Some(ThreadCommand::TotalThreads(2)));
        assert_eq!(cmds[1], Some(ThreadCommand::TotalThreads(4)));
    }

    #[test]
    fn none_passes_through() {
        let mut chain = Chain::new(vec![
            Box::new(Fixed(0, Some(ThreadCommand::TotalThreads(8)))),
            Box::new(Fixed(0, None)),
        ]);
        let cmds = chain.tick(&stats(1), 0);
        // The second policy issued nothing, so the first still applies.
        assert_eq!(cmds[0], Some(ThreadCommand::TotalThreads(8)));
    }

    #[test]
    fn empty_chain_is_silent() {
        let mut chain = Chain::new(vec![]);
        assert!(chain.tick(&stats(3), 0).iter().all(|c| c.is_none()));
    }

    #[test]
    fn chain_prediction_takes_highest_precedence_model() {
        struct WithPred(f64);
        impl Policy for WithPred {
            fn tick(&mut self, stats: &[RuntimeStats], _t: u64) -> Vec<Option<ThreadCommand>> {
                vec![None; stats.len()]
            }
            fn prediction(&self) -> Option<coop_telemetry::Prediction> {
                Some(coop_telemetry::Prediction {
                    inputs: Vec::new(),
                    assignment: Default::default(),
                    series: vec![coop_telemetry::SeriesValue::new("x", self.0)],
                })
            }
        }
        let chain = Chain::new(vec![
            Box::new(WithPred(1.0)),
            Box::new(Fixed(0, None)),
            Box::new(WithPred(2.0)),
        ]);
        assert_eq!(chain.prediction().unwrap().value("x"), Some(2.0));
        let no_model = Chain::new(vec![Box::new(Fixed(0, None))]);
        assert!(no_model.prediction().is_none());
    }
}
