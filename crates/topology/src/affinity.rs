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

use crate::{CoreId, CpuSet, Machine, NodeId, Result};

/// Where a worker thread is allowed to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Binding {
    /// No affinity: any core of the machine.
    Unbound,
    /// Any core of the given NUMA node.
    Node(NodeId),
    /// Exactly the given core.
    Core(CoreId),
}

/// Discriminant-only view of [`Binding`], useful for configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindingKind {
    /// See [`Binding::Unbound`].
    Unbound,
    /// See [`Binding::Node`].
    Node,
    /// See [`Binding::Core`].
    Core,
}

impl Binding {
    /// The [`CpuSet`] of cores this binding permits on `machine`.
    pub fn cpuset(&self, machine: &Machine) -> Result<CpuSet> {
        Ok(match *self {
            Binding::Unbound => machine.all_cores(),
            Binding::Node(n) => machine.try_node(n)?.cpuset(),
            Binding::Core(c) => {
                machine.node_of_core(c)?; // validate
                CpuSet::single(c)
            }
        })
    }

    /// The discriminant of this binding.
    pub fn kind(&self) -> BindingKind {
        match self {
            Binding::Unbound => BindingKind::Unbound,
            Binding::Node(_) => BindingKind::Node,
            Binding::Core(_) => BindingKind::Core,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineBuilder;

    fn machine() -> Machine {
        MachineBuilder::new()
            .symmetric_nodes(2, 4)
            .core_peak_gflops(1.0)
            .node_bandwidth_gbs(10.0)
            .uniform_link_gbs(5.0)
            .build()
            .unwrap()
    }

    #[test]
    fn unbound_covers_machine() {
        let m = machine();
        let s = Binding::Unbound.cpuset(&m).unwrap();
        assert_eq!(s.count(), 8);
        assert_eq!(Binding::Unbound.kind(), BindingKind::Unbound);
    }

    #[test]
    fn node_binding_covers_node() {
        let m = machine();
        let b = Binding::Node(NodeId(1));
        let s = b.cpuset(&m).unwrap();
        assert_eq!(s.count(), 4);
        assert!(s.contains(CoreId(4)) && s.contains(CoreId(7)));
        assert_eq!(b.kind(), BindingKind::Node);
    }

    #[test]
    fn core_binding_is_single_and_resolves_home() {
        let m = machine();
        let b = Binding::Core(CoreId(5));
        let s = b.cpuset(&m).unwrap();
        assert_eq!(s.count(), 1);
        assert!(s.contains(CoreId(5)));
        assert_eq!(b.kind(), BindingKind::Core);
    }

    #[test]
    fn invalid_bindings_error() {
        let m = machine();
        assert!(Binding::Node(NodeId(2)).cpuset(&m).is_err());
        assert!(Binding::Core(CoreId(8)).cpuset(&m).is_err());
        assert!(Binding::Node(NodeId(9)).cpuset(&m).is_err());
        assert!(Binding::Core(CoreId(99)).cpuset(&m).is_err());
    }
}
