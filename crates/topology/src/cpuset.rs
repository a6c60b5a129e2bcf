//! A CPU affinity mask with set algebra.
//!
//! [`CpuSet`] plays the role of `cpu_set_t` / `hwloc_bitmap_t`: a growable
//! bitmask over global core ids. The paper's runtime binds worker threads
//! either to a single core, to all cores of a NUMA node, or leaves them
//! unbound; all three are expressed as `CpuSet`s over a
//! [`Machine`](crate::Machine).

use crate::ids::CoreId;
use std::fmt;

const BITS: usize = 64;

/// A set of CPU cores, stored as a bitmask.
///
/// The set is unbounded: inserting core 1000 grows the backing storage. All
/// binary operations operate over the union of the operands' ranges.
///
/// ```
/// use numa_topology::{CpuSet, CoreId};
///
/// let mut a = CpuSet::new();
/// a.insert(CoreId(0));
/// a.insert(CoreId(5));
/// let b = CpuSet::from_range(4, 8);
/// assert_eq!(a.intersection(&b).count(), 1);
/// assert!(a.union(&b).contains(CoreId(7)));
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct CpuSet {
    words: Vec<u64>,
}

impl CpuSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        CpuSet { words: Vec::new() }
    }

    /// Creates a set containing exactly the cores `lo..hi` (half-open).
    pub fn from_range(lo: usize, hi: usize) -> Self {
        let mut s = CpuSet::new();
        for c in lo..hi {
            s.insert(CoreId(c));
        }
        s
    }

    /// Creates a set from an iterator of core ids.
    pub fn from_cores<I: IntoIterator<Item = CoreId>>(cores: I) -> Self {
        let mut s = CpuSet::new();
        for c in cores {
            s.insert(c);
        }
        s
    }

    /// Creates a set containing a single core.
    pub fn single(core: CoreId) -> Self {
        let mut s = CpuSet::new();
        s.insert(core);
        s
    }

    /// Inserts a core. Returns `true` if the core was newly inserted.
    pub fn insert(&mut self, core: CoreId) -> bool {
        let (w, b) = (core.0 / BITS, core.0 % BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1u64 << b) != 0;
        self.words[w] |= 1u64 << b;
        !had
    }

    /// Removes a core. Returns `true` if the core was present.
    pub fn remove(&mut self, core: CoreId) -> bool {
        let (w, b) = (core.0 / BITS, core.0 % BITS);
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & (1u64 << b) != 0;
        self.words[w] &= !(1u64 << b);
        self.trim();
        had
    }

    /// Drops trailing zero words so that structural equality (`Eq`, `Hash`)
    /// coincides with set equality.
    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// Tests membership.
    pub fn contains(&self, core: CoreId) -> bool {
        let (w, b) = (core.0 / BITS, core.0 % BITS);
        self.words
            .get(w)
            .is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// Number of cores in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no core is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Set union.
    pub fn union(&self, other: &CpuSet) -> CpuSet {
        let mut words = vec![0u64; self.words.len().max(other.words.len())];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.words.get(i).copied().unwrap_or(0) | other.words.get(i).copied().unwrap_or(0);
        }
        let mut s = CpuSet { words };
        s.trim();
        s
    }

    /// Set intersection.
    pub fn intersection(&self, other: &CpuSet) -> CpuSet {
        let mut words = vec![0u64; self.words.len().min(other.words.len())];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.words[i] & other.words[i];
        }
        let mut s = CpuSet { words };
        s.trim();
        s
    }

    /// Set difference (`self \ other`).
    pub fn difference(&self, other: &CpuSet) -> CpuSet {
        let mut words = self.words.clone();
        for (i, w) in words.iter_mut().enumerate() {
            *w &= !other.words.get(i).copied().unwrap_or(0);
        }
        let mut s = CpuSet { words };
        s.trim();
        s
    }

    /// `true` if every core of `self` is also in `other`.
    pub fn is_subset(&self, other: &CpuSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// `true` if the two sets share no core.
    pub fn is_disjoint(&self, other: &CpuSet) -> bool {
        self.intersection(other).is_empty()
    }

    /// Iterates over the cores in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            (0..BITS).filter_map(move |b| {
                if w & (1u64 << b) != 0 {
                    Some(CoreId(i * BITS + b))
                } else {
                    None
                }
            })
        })
    }
}

impl fmt::Debug for CpuSet {
    /// Renders the set in the compact Linux cpulist style, e.g. `{0-3,8,10-11}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let cores: Vec<usize> = self.iter().map(|c| c.0).collect();
        let mut first = true;
        let mut i = 0;
        while i < cores.len() {
            let start = cores[i];
            let mut end = start;
            while i + 1 < cores.len() && cores[i + 1] == end + 1 {
                i += 1;
                end = cores[i];
            }
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if start == end {
                write!(f, "{start}")?;
            } else {
                write!(f, "{start}-{end}")?;
            }
            i += 1;
        }
        write!(f, "}}")
    }
}

impl FromIterator<CoreId> for CpuSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        CpuSet::from_cores(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = CpuSet::new();
        assert!(s.is_empty());
        assert!(s.insert(CoreId(3)));
        assert!(!s.insert(CoreId(3)));
        assert!(s.contains(CoreId(3)));
        assert!(!s.contains(CoreId(4)));
        assert_eq!(s.count(), 1);
        assert!(s.remove(CoreId(3)));
        assert!(!s.remove(CoreId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_past_word_boundary() {
        let mut s = CpuSet::new();
        s.insert(CoreId(0));
        s.insert(CoreId(63));
        s.insert(CoreId(64));
        s.insert(CoreId(200));
        assert_eq!(s.count(), 4);
        assert!(s.contains(CoreId(200)));
        assert!(!s.contains(CoreId(199)));
        assert!(!s.contains(CoreId(10_000)));
    }

    #[test]
    fn range_and_single() {
        let s = CpuSet::from_range(4, 8);
        assert_eq!(s.count(), 4);
        assert!(s.contains(CoreId(4)) && s.contains(CoreId(7)));
        assert!(!s.contains(CoreId(8)));
        let one = CpuSet::single(CoreId(9));
        assert_eq!(one.count(), 1);
        assert!(one.contains(CoreId(9)));
    }

    #[test]
    fn empty_range_is_empty() {
        assert!(CpuSet::from_range(5, 5).is_empty());
        assert!(CpuSet::from_range(7, 3).is_empty());
        assert!(CpuSet::new().is_empty());
    }

    #[test]
    fn union_intersection_difference() {
        let a = CpuSet::from_range(0, 6);
        let b = CpuSet::from_range(4, 10);
        assert_eq!(a.union(&b).count(), 10);
        let i = a.intersection(&b);
        assert_eq!(i.count(), 2);
        assert!(i.contains(CoreId(4)) && i.contains(CoreId(5)));
        let d = a.difference(&b);
        assert_eq!(d.count(), 4);
        assert!(d.contains(CoreId(0)) && !d.contains(CoreId(4)));
    }

    #[test]
    fn operations_across_different_lengths() {
        let a = CpuSet::single(CoreId(1));
        let b = CpuSet::single(CoreId(130));
        assert_eq!(a.union(&b).count(), 2);
        assert!(a.intersection(&b).is_empty());
        assert_eq!(a.difference(&b), a);
        assert_eq!(b.difference(&a), b);
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn subset_relation() {
        let a = CpuSet::from_range(2, 4);
        let b = CpuSet::from_range(0, 8);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(CpuSet::new().is_subset(&a));
        // A longer set with high bits is not a subset of a short one.
        let hi = CpuSet::single(CoreId(100));
        assert!(!hi.is_subset(&b));
    }

    #[test]
    fn iteration_is_sorted() {
        let s = CpuSet::from_cores([CoreId(9), CoreId(2), CoreId(65), CoreId(2)]);
        let v: Vec<usize> = s.iter().map(|c| c.0).collect();
        assert_eq!(v, vec![2, 9, 65]);
    }

    #[test]
    fn debug_renders_cpulist_style() {
        let s = CpuSet::from_cores([0, 1, 2, 3, 8, 10, 11].map(CoreId));
        assert_eq!(format!("{s:?}"), "{0-3,8,10-11}");
        assert_eq!(format!("{:?}", CpuSet::new()), "{}");
        assert_eq!(format!("{:?}", CpuSet::single(CoreId(5))), "{5}");
    }

    #[test]
    fn from_iterator_collect() {
        let s: CpuSet = (0..5).map(CoreId).collect();
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn equality_ignores_semantics_not_storage() {
        // Two sets with the same members are equal when built the same way.
        let a = CpuSet::from_range(0, 3);
        let b = CpuSet::from_cores([CoreId(0), CoreId(1), CoreId(2)]);
        assert_eq!(a, b);
    }
}
