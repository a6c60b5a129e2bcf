//! Memoized allocation scores, shared across strategies and agent ticks.
//!
//! Every search in this crate ultimately asks the same question — "what does
//! this [`ThreadAssignment`] score under this machine/apps/objective
//! context?" — and different strategies (or successive agent ticks over an
//! unchanged live set) keep re-asking it for the same assignments. A
//! [`ScoreCache`] memoizes the answers.
//!
//! ## Keying and safety
//!
//! A cached score is only meaningful for the exact solving context it was
//! computed under, so a cache is bound at construction to a **fingerprint**:
//! a hash of the machine topology (node core counts, bandwidths, link
//! matrix, core peak), every app spec (name, arithmetic intensity, data
//! placement), the objective (including weights), and any oracle parameters
//! that change scores (e.g. the minimum-threads penalty). Attaching a cache
//! to a context with a different fingerprint is rejected with
//! [`AllocError::CacheMismatch`](crate::AllocError::CacheMismatch); when the
//! agent's live set changes, it simply builds a fresh cache.
//!
//! Within a context, the key is the canonicalized assignment itself — the
//! flattened `[app][node]` count matrix — so equal assignments hit
//! regardless of which strategy produced them.
//!
//! ## Observability
//!
//! Hit/miss/insert totals are kept in atomics and can be mirrored into a
//! [`MetricsRegistry`] via [`ScoreCache::attach_metrics`], where they appear
//! as `coop_score_cache_{hits,misses,inserts}_total` in Prometheus output
//! (see `docs/performance.md`).

use crate::Objective;
use coop_telemetry::{Counter, MetricsRegistry};
use numa_topology::{Machine, NodeId};
use roofline_numa::{AppSpec, DataPlacement, ThreadAssignment};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Prometheus-side mirrors of the cache counters.
struct CacheCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
}

/// A thread-safe assignment → score memo bound to one solving context.
///
/// Cheap to share: wrap in an [`Arc`] and hand clones to parallel search
/// workers or keep one alive across agent ticks.
pub struct ScoreCache {
    fingerprint: u64,
    map: Mutex<HashMap<Box<[u32]>, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    metrics: OnceLock<CacheCounters>,
}

impl std::fmt::Debug for ScoreCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ScoreCache")
            .field("fingerprint", &self.fingerprint)
            .field("stats", &stats)
            .finish()
    }
}

/// A point-in-time snapshot of cache activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted (first-time scores).
    pub inserts: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl ScoreCache {
    /// Creates an empty cache bound to `fingerprint` (see
    /// [`context_fingerprint`]).
    pub fn new(fingerprint: u64) -> Self {
        ScoreCache {
            fingerprint,
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            metrics: OnceLock::new(),
        }
    }

    /// The solving-context fingerprint this cache was built for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Fills `buf` with the canonical cache key of `assignment` (its
    /// row-major counts). Reusing one buffer across lookups
    /// keeps the hot path allocation-free: only an insert boxes the key.
    pub(crate) fn key_of(assignment: &ThreadAssignment, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(assignment.as_slice().iter().map(|&c| c as u32));
    }

    /// Looks up a previously inserted score by key. Counts a hit or miss.
    pub(crate) fn lookup_key(&self, key: &[u32]) -> Option<f64> {
        let found = self
            .map
            .lock()
            .expect("score cache poisoned")
            .get(key)
            .copied();
        match found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(c) = self.metrics.get() {
                    c.hits.inc();
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(c) = self.metrics.get() {
                    c.misses.inc();
                }
            }
        }
        found
    }

    /// Inserts a score for `key` if absent. Counts an insert only for new
    /// entries (concurrent workers may race to score the same assignment).
    pub(crate) fn insert_key(&self, key: &[u32], score: f64) {
        let mut map = self.map.lock().expect("score cache poisoned");
        if !map.contains_key(key) {
            map.insert(key.to_vec().into_boxed_slice(), score);
            drop(map);
            self.inserts.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = self.metrics.get() {
                c.inserts.inc();
            }
        }
    }

    /// Snapshot of hit/miss/insert totals and current size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.map.lock().expect("score cache poisoned").len(),
        }
    }

    /// Mirrors the cache counters into `registry` as
    /// `coop_score_cache_{hits,misses,inserts}_total{context="..."}`.
    ///
    /// Counters attach once per cache (subsequent calls are no-ops) and are
    /// incremented lock-free on the hot path. Totals recorded *before*
    /// attachment are replayed so the exported series never undercounts.
    pub fn attach_metrics(&self, registry: &MetricsRegistry, context: &str) {
        registry.set_help(
            "coop_score_cache_hits_total",
            "Allocation-score cache lookups answered from the cache",
        );
        registry.set_help(
            "coop_score_cache_misses_total",
            "Allocation-score cache lookups that found no entry",
        );
        registry.set_help(
            "coop_score_cache_inserts_total",
            "Allocation scores inserted into the cache",
        );
        let labels = [("context", context)];
        let counters = CacheCounters {
            hits: registry.counter("coop_score_cache_hits_total", &labels),
            misses: registry.counter("coop_score_cache_misses_total", &labels),
            inserts: registry.counter("coop_score_cache_inserts_total", &labels),
        };
        if self.metrics.set(counters).is_ok() {
            let stats = self.stats();
            if let Some(c) = self.metrics.get() {
                c.hits.add(stats.hits);
                c.misses.add(stats.misses);
                c.inserts.add(stats.inserts);
            }
        }
    }
}

fn hash_f64<H: Hasher>(h: &mut H, v: f64) {
    v.to_bits().hash(h);
}

/// Fingerprints a solving context: machine topology, app specs, and
/// objective. Two contexts share cached scores only if every input that can
/// change a score hashes identically. Callers with extra score-changing
/// parameters (like `ModelOracle`'s minimum-threads penalty) must mix those
/// into the fingerprint as well.
pub fn context_fingerprint(machine: &Machine, apps: &[AppSpec], objective: &Objective) -> u64 {
    let mut h = DefaultHasher::new();
    machine.name().hash(&mut h);
    machine.num_nodes().hash(&mut h);
    hash_f64(&mut h, machine.core_peak_gflops());
    for node in machine.nodes() {
        node.num_cores().hash(&mut h);
        hash_f64(&mut h, node.bandwidth_gbs);
    }
    for from in 0..machine.num_nodes() {
        for to in 0..machine.num_nodes() {
            hash_f64(&mut h, machine.links().link(NodeId(from), NodeId(to)));
        }
    }
    apps.len().hash(&mut h);
    for app in apps {
        app.name.hash(&mut h);
        hash_f64(&mut h, app.ai);
        match &app.placement {
            DataPlacement::Local => 0u8.hash(&mut h),
            DataPlacement::SingleNode(n) => {
                1u8.hash(&mut h);
                n.0.hash(&mut h);
            }
            DataPlacement::Spread(fractions) => {
                2u8.hash(&mut h);
                fractions.len().hash(&mut h);
                for &f in fractions {
                    hash_f64(&mut h, f);
                }
            }
        }
    }
    match objective {
        Objective::TotalGflops => 0u8.hash(&mut h),
        Objective::MinAppGflops => 1u8.hash(&mut h),
        Objective::WeightedGflops(w) => {
            2u8.hash(&mut h);
            w.len().hash(&mut h);
            for &x in w {
                hash_f64(&mut h, x);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets::{paper_model_machine, tiny};

    fn apps() -> Vec<AppSpec> {
        vec![
            AppSpec::numa_local("mem", 0.5),
            AppSpec::numa_local("comp", 10.0),
        ]
    }

    /// The cache key of a `[1, 2]`-per-node assignment on the paper machine.
    fn key() -> Vec<u32> {
        let m = paper_model_machine();
        let mut key = Vec::new();
        ScoreCache::key_of(&ThreadAssignment::uniform_per_node(&m, &[1, 2]), &mut key);
        key
    }

    #[test]
    fn lookup_miss_then_hit() {
        let cache = ScoreCache::new(42);
        let a = key();
        assert_eq!(cache.lookup_key(&a), None);
        cache.insert_key(&a, 123.5);
        assert_eq!(cache.lookup_key(&a), Some(123.5));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn duplicate_insert_counts_once() {
        let cache = ScoreCache::new(0);
        let a = key();
        cache.insert_key(&a, 1.0);
        cache.insert_key(&a, 2.0);
        assert_eq!(cache.stats().inserts, 1);
        assert_eq!(cache.lookup_key(&a), Some(1.0), "first insert wins");
    }

    #[test]
    fn fingerprint_distinguishes_contexts() {
        let m = paper_model_machine();
        let t = tiny();
        let base = context_fingerprint(&m, &apps(), &Objective::TotalGflops);
        assert_eq!(
            base,
            context_fingerprint(&m, &apps(), &Objective::TotalGflops),
            "fingerprint must be stable"
        );
        assert_ne!(
            base,
            context_fingerprint(&t, &apps(), &Objective::TotalGflops),
            "different machine"
        );
        assert_ne!(
            base,
            context_fingerprint(&m, &apps(), &Objective::MinAppGflops),
            "different objective"
        );
        let mut other_apps = apps();
        other_apps[1].ai = 9.0;
        assert_ne!(
            base,
            context_fingerprint(&m, &other_apps, &Objective::TotalGflops),
            "different app spec"
        );
    }

    #[test]
    fn metrics_attachment_replays_existing_totals() {
        let registry = MetricsRegistry::new();
        let cache = ScoreCache::new(7);
        let a = key();
        cache.lookup_key(&a); // miss before attachment
        cache.insert_key(&a, 3.0);
        cache.attach_metrics(&registry, "test");
        cache.lookup_key(&a); // hit after attachment
        assert_eq!(registry.counter_total("coop_score_cache_hits_total"), 1);
        assert_eq!(registry.counter_total("coop_score_cache_misses_total"), 1);
        assert_eq!(registry.counter_total("coop_score_cache_inserts_total"), 1);
    }
}
