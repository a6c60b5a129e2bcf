//! Worker-thread binding granularities.
//!
//! Section III of the paper works with two standing assumptions: every
//! worker thread is bound to (at most) the cores of one NUMA node, and
//! there is no over-subscription. The runtime supports three granularities
//! of binding, matching the three blocking options of §II:
//!
//! 1. **Unbound** — the OS may place the thread anywhere (blocking option 1
//!    with unbound threads).
//! 2. **Node** — the thread may run on any core of one NUMA node (blocking
//!    option 3).
//! 3. **Core** — the thread is pinned to a single core (blocking option 2).

/// Where a worker thread is allowed to run, as a configuration choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindingKind {
    /// No affinity: any core of the machine.
    Unbound,
    /// Any core of the thread's NUMA node.
    Node,
    /// Exactly one core.
    Core,
}
