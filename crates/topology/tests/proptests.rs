//! Property tests for the topology crate on the seeded case runner: CpuSet
//! algebra laws and machine construction invariants.

use coop_alloc::cases::{check, Gen};
use numa_topology::{CoreId, CpuSet, MachineBuilder, NodeId};

const CASES: usize = 256;

fn arb_cpuset(g: &mut Gen) -> CpuSet {
    CpuSet::from_cores(g.vec(0..64, |g| CoreId(g.range(0..256usize))))
}

#[test]
fn union_is_commutative() {
    check(1, CASES, |g| {
        let (a, b) = (arb_cpuset(g), arb_cpuset(g));
        assert_eq!(a.union(&b), b.union(&a));
    });
}

#[test]
fn intersection_is_commutative() {
    check(2, CASES, |g| {
        let (a, b) = (arb_cpuset(g), arb_cpuset(g));
        assert_eq!(a.intersection(&b), b.intersection(&a));
    });
}

#[test]
fn union_is_associative() {
    check(3, CASES, |g| {
        let (a, b, c) = (arb_cpuset(g), arb_cpuset(g), arb_cpuset(g));
        assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
    });
}

#[test]
fn demorgan_within_universe() {
    check(4, CASES, |g| {
        let (a, b) = (arb_cpuset(g), arb_cpuset(g));
        // (U \ a) ∩ (U \ b) == U \ (a ∪ b) for a universe containing both.
        let u = CpuSet::from_range(0, 256);
        let lhs = u.difference(&a).intersection(&u.difference(&b));
        let rhs = u.difference(&a.union(&b));
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn difference_then_union_restores_subset() {
    check(5, CASES, |g| {
        let (a, b) = (arb_cpuset(g), arb_cpuset(g));
        // (a \ b) ∪ (a ∩ b) == a
        let lhs = a.difference(&b).union(&a.intersection(&b));
        assert_eq!(lhs, a);
    });
}

#[test]
fn count_inclusion_exclusion() {
    check(6, CASES, |g| {
        let (a, b) = (arb_cpuset(g), arb_cpuset(g));
        assert_eq!(
            a.union(&b).count() + a.intersection(&b).count(),
            a.count() + b.count()
        );
    });
}

#[test]
fn insert_remove_is_identity() {
    check(7, CASES, |g| {
        let a = arb_cpuset(g);
        let core = CoreId(g.range(0..256usize));
        let mut s = a.clone();
        let was_present = s.contains(core);
        s.insert(core);
        assert!(s.contains(core));
        if !was_present {
            s.remove(core);
            assert_eq!(s, a);
        }
    });
}

#[test]
fn iter_is_sorted_and_unique() {
    check(8, CASES, |g| {
        let a = arb_cpuset(g);
        let v: Vec<usize> = a.iter().map(|c| c.0).collect();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(v, sorted);
        assert_eq!(v.len(), a.count());
    });
}

#[test]
fn subset_iff_difference_empty() {
    check(9, CASES, |g| {
        let (a, b) = (arb_cpuset(g), arb_cpuset(g));
        assert_eq!(a.is_subset(&b), a.difference(&b).is_empty());
    });
}

#[test]
fn machine_core_numbering_invariants() {
    check(10, CASES, |g| {
        let cores_per_node = g.vec(1..8, |g| g.range(1..32usize));
        let gflops = g.range(0.1..100.0);
        let bw = g.range(1.0..500.0);
        let mut b = MachineBuilder::new().core_peak_gflops(gflops);
        for &c in &cores_per_node {
            b = b.add_node(c, bw, 16.0);
        }
        let m = b.uniform_link_gbs(1.0).build().unwrap();
        assert_eq!(m.num_nodes(), cores_per_node.len());
        assert_eq!(m.total_cores(), cores_per_node.iter().sum::<usize>());

        // Every core maps back to the node whose range contains it, and the
        // per-node cpusets partition the machine.
        let mut seen = CpuSet::new();
        for node in m.nodes() {
            let set = node.cpuset();
            assert!(set.is_disjoint(&seen));
            seen = seen.union(&set);
            for core in node.cores() {
                assert_eq!(m.node_of_core(core).unwrap(), node.id);
            }
        }
        assert_eq!(seen, m.all_cores());
    });
}

#[test]
fn machine_json_roundtrip() {
    check(11, CASES, |g| {
        let m = MachineBuilder::new()
            .symmetric_nodes(g.range(1..6usize), g.range(1..16usize))
            .core_peak_gflops(g.range(0.1..50.0))
            .node_bandwidth_gbs(g.range(1.0..200.0))
            .uniform_link_gbs(g.range(0.0..100.0))
            .build()
            .unwrap();
        let back = numa_topology::Machine::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    });
}

#[test]
fn node_of_core_never_panics_in_range() {
    check(12, CASES, |g| {
        let (nodes, cores) = (g.range(1..5usize), g.range(1..9usize));
        let m = MachineBuilder::new()
            .symmetric_nodes(nodes, cores)
            .core_peak_gflops(1.0)
            .node_bandwidth_gbs(1.0)
            .build()
            .unwrap();
        for c in 0..m.total_cores() {
            let n = m.node_of_core(CoreId(c)).unwrap();
            assert!(n.0 < nodes);
            assert!(m.node(NodeId(n.0)).owns(CoreId(c)));
        }
        assert!(m.node_of_core(CoreId(m.total_cores())).is_err());
    });
}
