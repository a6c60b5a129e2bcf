//! Bottleneck analysis: *why* does an allocation score what it scores?
//!
//! A raw [`crate::SolveReport`] says how many GFLOPS each
//! application achieved; an agent (or a person) deciding whether to move
//! threads wants to know what is *limiting* each application and each
//! node. [`explain`] classifies every thread group and node:
//!
//! * a group is **compute-bound** if it achieves (almost) its core peak,
//!   **bandwidth-starved** if its grant is below its demand, or
//!   **link-limited** if the shortfall originates in an inter-node link
//!   rather than a memory controller;
//! * a node is **saturated** when its memory serves (almost) its full
//!   capacity, and **idle capacity** is reported when cores sit unused.
//!
//! The [`Explanation`] prints as a compact report and also drives tests
//! that assert the paper's narratives (e.g. "the memory-bound apps are
//! bandwidth-starved in Table I; the compute-bound app is not").

use crate::{SolveReport, ThreadGrant};
use numa_topology::{Machine, NodeId};
use std::fmt;

/// What limits one thread group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// Achieves core peak: more bandwidth would not help.
    ComputeBound,
    /// Wants more bandwidth than its home node's arbitration granted.
    BandwidthStarved,
    /// Wants more remote bandwidth than the inter-node links deliver.
    LinkLimited,
    /// Fully satisfied below peak (demand met exactly; rare boundary case).
    Satisfied,
}

/// Analysis of one thread group.
#[derive(Debug, Clone)]
pub struct GroupFinding {
    /// Application index.
    pub app: usize,
    /// Application name.
    pub name: String,
    /// Home node.
    pub home: NodeId,
    /// Classification.
    pub limiter: Limiter,
    /// Fraction of demanded bandwidth granted (1.0 = fully satisfied).
    pub satisfaction: f64,
}

/// Analysis of one node.
#[derive(Debug, Clone)]
pub struct NodeFinding {
    /// The node.
    pub node: NodeId,
    /// Fraction of memory bandwidth in use.
    pub utilization: f64,
    /// `true` if the memory controller is (almost) fully used.
    pub saturated: bool,
    /// Cores with no thread assigned.
    pub idle_cores: usize,
}

/// Complete explanation of a solve.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Per-group findings (same order as the report's groups).
    pub groups: Vec<GroupFinding>,
    /// Per-node findings.
    pub nodes: Vec<NodeFinding>,
}

/// Tolerance for "close enough to the roof".
const NEAR: f64 = 1e-6;

fn classify(machine: &Machine, g: &ThreadGrant, report: &SolveReport) -> (Limiter, f64) {
    let peak = machine.core_peak_gflops();
    let satisfaction = if g.demand_gbs > 0.0 {
        (g.granted_gbs / g.demand_gbs).min(1.0)
    } else {
        1.0
    };
    if g.gflops >= peak * (1.0 - NEAR) {
        return (Limiter::ComputeBound, satisfaction);
    }
    if satisfaction >= 1.0 - NEAR {
        return (Limiter::Satisfied, satisfaction);
    }
    // Starved: is the shortfall remote (link) or local (controller)?
    // Attribute to the dominant unmet component.
    let mut local_unmet = 0.0f64;
    let mut remote_unmet = 0.0f64;
    for (target, &granted) in g.granted_by_target.iter().enumerate() {
        // Reconstruct the per-target demand from the report's totals is
        // not possible in general; approximate by comparing each target's
        // grant against the proportional share of total demand. For the
        // paper's placements (all-local or all-remote) this is exact.
        let targets_with_grant_or_home: bool = target == g.home.0 || granted > 0.0;
        if !targets_with_grant_or_home {
            continue;
        }
        let share = if g.granted_gbs > 0.0 {
            granted / g.granted_gbs * g.demand_gbs
        } else if target == g.home.0 {
            g.demand_gbs
        } else {
            0.0
        };
        let unmet = (share - granted).max(0.0);
        if target == g.home.0 {
            local_unmet += unmet;
        } else {
            remote_unmet += unmet;
        }
    }
    // If the group's traffic goes to a remote node (NUMA-bad), check
    // whether the serving node is saturated; if not, the link is the
    // bottleneck.
    let remote_targets: Vec<usize> = g
        .granted_by_target
        .iter()
        .enumerate()
        .filter(|&(t, &v)| t != g.home.0 && v > 0.0)
        .map(|(t, _)| t)
        .collect();
    if !remote_targets.is_empty() && remote_unmet >= local_unmet {
        let any_server_saturated = remote_targets.iter().any(|&t| {
            let n = &report.nodes[t];
            n.utilization() >= 1.0 - 1e-3
        });
        if !any_server_saturated {
            return (Limiter::LinkLimited, satisfaction);
        }
    }
    (Limiter::BandwidthStarved, satisfaction)
}

/// Produces an [`Explanation`] for a solved report.
pub fn explain(machine: &Machine, report: &SolveReport) -> Explanation {
    let groups = report
        .groups
        .iter()
        .map(|g| {
            let (limiter, satisfaction) = classify(machine, g, report);
            GroupFinding {
                app: g.app,
                name: report.apps[g.app].name.clone(),
                home: g.home,
                limiter,
                satisfaction,
            }
        })
        .collect();
    let nodes = report
        .nodes
        .iter()
        .map(|n| {
            let threads_here: usize = report
                .groups
                .iter()
                .filter(|g| g.home == n.node)
                .map(|g| g.count)
                .sum();
            NodeFinding {
                node: n.node,
                utilization: n.utilization(),
                saturated: n.utilization() >= 1.0 - 1e-3,
                idle_cores: machine
                    .node(n.node)
                    .num_cores()
                    .saturating_sub(threads_here),
            }
        })
        .collect();
    Explanation { groups, nodes }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "-- groups --")?;
        for g in &self.groups {
            writeln!(
                f,
                "{:<12} on {:<6} {:?} (demand satisfied {:.0}%)",
                g.name,
                g.home.to_string(),
                g.limiter,
                g.satisfaction * 100.0
            )?;
        }
        writeln!(f, "-- nodes --")?;
        for n in &self.nodes {
            writeln!(
                f,
                "{:<6} utilization {:>5.1}%{}{}",
                n.node.to_string(),
                n.utilization * 100.0,
                if n.saturated { " [saturated]" } else { "" },
                if n.idle_cores > 0 {
                    format!(" [{} idle cores]", n.idle_cores)
                } else {
                    String::new()
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, AppSpec, ThreadAssignment};
    use numa_topology::presets::{paper_crossnode_machine, paper_model_machine};

    /// `true` if `app` has a group and every one is classified `limiter`.
    fn app_is(e: &Explanation, app: usize, limiter: Limiter) -> bool {
        let mut groups = e.groups.iter().filter(|g| g.app == app).peekable();
        groups.peek().is_some() && groups.all(|g| g.limiter == limiter)
    }

    #[test]
    fn table_1_narrative() {
        let m = paper_model_machine();
        let apps = vec![
            AppSpec::numa_local("mem1", 0.5),
            AppSpec::numa_local("mem2", 0.5),
            AppSpec::numa_local("mem3", 0.5),
            AppSpec::numa_local("comp", 10.0),
        ];
        let a = ThreadAssignment::uniform_per_node(&m, &[1, 1, 1, 5]);
        let r = solve(&m, &apps, &a).unwrap();
        let e = explain(&m, &r);

        // The memory-bound apps are bandwidth-starved (9 of 20 GB/s);
        // the compute-bound app runs at peak.
        assert!(app_is(&e, 0, Limiter::BandwidthStarved));
        assert!(app_is(&e, 3, Limiter::ComputeBound));
        let mem = e.groups.iter().find(|g| g.app == 0).unwrap();
        assert!((mem.satisfaction - 0.45).abs() < 1e-9, "9/20 = 45%");
        // Every node's memory is saturated, no idle cores.
        for n in &e.nodes {
            assert!(n.saturated, "{n:?}");
            assert_eq!(n.idle_cores, 0);
        }
    }

    #[test]
    fn link_limited_numa_bad_app() {
        // A NUMA-bad app whose serving node is NOT saturated: its limit is
        // the link.
        let m = paper_crossnode_machine(); // 60 GB/s nodes, 10 GB/s links
        let apps = vec![AppSpec::numa_bad("bad", 1.0, numa_topology::NodeId(0))];
        let mut a = ThreadAssignment::zero(&m, 1);
        a.set(0, numa_topology::NodeId(1), 8); // 80 GB/s demanded over a 10 GB/s link
        let r = solve(&m, &apps, &a).unwrap();
        let e = explain(&m, &r);
        assert!(app_is(&e, 0, Limiter::LinkLimited), "{e}");
        // Node 0 serves only 10 of 60 GB/s: not saturated.
        assert!(!e.nodes[0].saturated);
        // Node 1 runs the threads but serves no local traffic.
        assert_eq!(e.nodes[1].idle_cores, 0);
    }

    #[test]
    fn satisfied_below_peak() {
        // A memory-light app that gets all it asks for but is capped by
        // its own demand (AI exactly at the knee would be ComputeBound;
        // make it clearly bandwidth-satisfied but below peak by limiting
        // demand via high AI and low thread count => it reaches peak, so
        // instead craft partial satisfaction: not possible when satisfied.
        // A single mem thread on an otherwise empty machine is fully
        // satisfied AND reaches... 20 GB/s * 0.5 = 10 GFLOPS = peak: it is
        // compute-bound by the roofline. Verify that classification.
        let m = paper_model_machine();
        let apps = vec![AppSpec::numa_local("solo", 0.5)];
        let a = ThreadAssignment::uniform_per_node(&m, &[1]);
        let r = solve(&m, &apps, &a).unwrap();
        let e = explain(&m, &r);
        assert!(app_is(&e, 0, Limiter::ComputeBound));
        // 7 of 8 cores idle on every node.
        for n in &e.nodes {
            assert_eq!(n.idle_cores, 7);
            assert!(!n.saturated);
        }
    }

    #[test]
    fn display_renders_all_sections() {
        let m = paper_model_machine();
        let apps = vec![AppSpec::numa_local("x", 0.125)];
        let a = ThreadAssignment::uniform_per_node(&m, &[4]);
        let r = solve(&m, &apps, &a).unwrap();
        let e = explain(&m, &r);
        let s = e.to_string();
        assert!(s.contains("-- groups --"));
        assert!(s.contains("-- nodes --"));
        assert!(s.contains("utilization"));
    }
}
