//! Property tests for the consensus resolution rule, on the seeded case
//! runner.

use coop_agent::consensus::{resolve, DemandProfile};
use coop_agent::control::check_commands;
use coop_alloc::cases::{check, Gen};
use numa_topology::{MachineBuilder, NodeId};
use roofline_numa::AppSpec;

const CASES: usize = 256;

fn machine(nodes: usize, cores: usize) -> numa_topology::Machine {
    MachineBuilder::new()
        .symmetric_nodes(nodes, cores)
        .core_peak_gflops(10.0)
        .node_bandwidth_gbs(32.0)
        .uniform_link_gbs(8.0)
        .build()
        .unwrap()
}

fn arb_profiles(g: &mut Gen, nodes: usize) -> Vec<DemandProfile> {
    (0..g.size(1..5))
        .map(|i| {
            let (weight, ai) = (g.range(0.1..10.0), g.range(0.05..8.0));
            let spec = match g.range(0..3usize) {
                0 => AppSpec::numa_local(&format!("a{i}"), ai),
                1 => AppSpec::numa_bad(&format!("b{i}"), ai, NodeId(i % nodes)),
                _ => AppSpec::spread(&format!("s{i}"), ai, vec![1.0 / nodes as f64; nodes]),
            };
            DemandProfile::new(spec, weight)
        })
        .collect()
}

/// The resolved allocation is always valid (no over-subscription, also as
/// the commands `control::check_commands` holds an agent tick to) and
/// deterministic.
#[test]
fn resolution_is_valid_and_deterministic() {
    check(1, CASES, |g| {
        let (nodes, cores) = (g.range(2..5usize), g.range(2..9usize));
        let profiles = arb_profiles(g, 4);
        // Clamp pinned nodes into range for this machine size.
        let profiles: Vec<DemandProfile> = profiles
            .into_iter()
            .map(|mut p| {
                if let roofline_numa::DataPlacement::SingleNode(n) = p.spec.placement {
                    p.spec.placement =
                        roofline_numa::DataPlacement::SingleNode(NodeId(n.0 % nodes));
                }
                if let roofline_numa::DataPlacement::Spread(_) = p.spec.placement {
                    p.spec.placement =
                        roofline_numa::DataPlacement::Spread(vec![1.0 / nodes as f64; nodes]);
                }
                p
            })
            .collect();
        let m = machine(nodes, cores);
        let a = resolve(&m, &profiles);
        assert!(a.validate(&m).is_ok());
        // As commands, one row per participant: no node over its cores.
        let live = vec![true; profiles.len()];
        let rows = (0..profiles.len()).map(|i| (i, Some(a.row(i))));
        let violations = check_commands(Some(&m), &live, &[], rows);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(resolve(&m, &profiles), a.clone());

        // Pinned apps never get threads off their node.
        for (i, p) in profiles.iter().enumerate() {
            if let roofline_numa::DataPlacement::SingleNode(pin) = p.spec.placement {
                for node in m.node_ids() {
                    if node != pin {
                        assert_eq!(a.get(i, node), 0);
                    }
                }
            }
        }
    });
}

/// Every core is allocated when at least one unpinned application
/// exists (no capacity silently wasted).
#[test]
fn no_cores_wasted_with_unpinned_apps() {
    check(2, CASES, |g| {
        let (nodes, cores) = (g.range(2..4usize), g.range(2..9usize));
        let weights = g.vec(1..4, |g| g.range(0.1..5.0));
        let m = machine(nodes, cores);
        let profiles: Vec<DemandProfile> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| DemandProfile::new(AppSpec::numa_local(&format!("a{i}"), 1.0), w))
            .collect();
        let a = resolve(&m, &profiles);
        for node in m.node_ids() {
            assert_eq!(a.node_total(node), cores, "node {:?} wasted cores", node);
        }
    });
}

/// Raising one participant's weight never lowers its machine-wide
/// total (weight monotonicity, all else equal).
#[test]
fn weight_monotonicity() {
    check(3, CASES, |g| {
        let cores = g.range(2..9usize);
        let (w_base, bump, other) = (g.range(0.2..3.0), g.range(0.1..3.0), g.range(0.2..3.0));
        let m = machine(2, cores);
        let mk = |w: f64| {
            vec![
                DemandProfile::new(AppSpec::numa_local("x", 1.0), w),
                DemandProfile::new(AppSpec::numa_local("y", 1.0), other),
            ]
        };
        let before = resolve(&m, &mk(w_base));
        let after = resolve(&m, &mk(w_base + bump));
        assert!(
            after.app_total(0) >= before.app_total(0),
            "weight {} -> {} lowered threads {} -> {}",
            w_base,
            w_base + bump,
            before.app_total(0),
            after.app_total(0)
        );
    });
}
