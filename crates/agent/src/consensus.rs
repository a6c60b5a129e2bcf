//! Decentralized core-allocation consensus.
//!
//! §II of the paper: "While we use the agent process to decide the number
//! of threads to be used by the different runtime systems, it would also
//! be possible to have the different runtime systems cooperatively come to
//! an agreement." This module provides that agent-less path.
//!
//! The protocol is deliberately simple and deterministic:
//!
//! 1. every participating runtime publishes a [`DemandProfile`] (its
//!    application characterisation plus a demand weight),
//! 2. a *round* closes when every participant has called
//!    [`Participant::agree`] (a barrier),
//! 3. the last participant to arrive is the round's leader: it evaluates
//!    the pure resolution function ([`resolve`]) over the round's profiles
//!    for everyone, and each participant applies *its own row* of that
//!    allocation through its runtime's [`coop_runtime::ControlHandle`].
//!
//! The resolution function is model-guided: proportional apportionment by
//! demand weight, refined so NUMA-bad applications are packed onto their
//! data's node first (the §III.A placement lesson).

use crate::{AgentError, Result};
use coop_alloc::strategies::largest_remainder;
use coop_runtime::{ControlHandle, ThreadCommand};
use coop_telemetry::sync::{Condvar, Mutex};
use numa_topology::Machine;
use roofline_numa::{AppSpec, DataPlacement, ThreadAssignment};
use std::sync::Arc;
use std::time::Duration;

/// What one runtime brings to the table.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandProfile {
    /// The application's model characterisation (AI + data placement).
    pub spec: AppSpec,
    /// Relative demand weight (e.g. desired share of the machine). One that
    /// is not positive and finite counts as 0.
    pub weight: f64,
}

impl DemandProfile {
    /// Creates a profile.
    pub fn new(spec: AppSpec, weight: f64) -> Self {
        DemandProfile { spec, weight }
    }
}

/// The deterministic resolution rule every participant evaluates.
///
/// Participants are ordered by their (stable) join index. Data-pinned
/// (NUMA-bad) applications first receive cores on their data's node,
/// proportionally to weight; the remaining capacity on every node is
/// apportioned to all applications by weight (largest remainder, ties by
/// index). A weight that is not positive and finite counts as 0, and a
/// node whose eligible weights sum to 0 is left empty. The function is
/// pure: identical inputs yield identical outputs on every participant.
pub fn resolve(machine: &Machine, profiles: &[DemandProfile]) -> ThreadAssignment {
    let n = profiles.len();
    let mut assignment = ThreadAssignment::zero(machine, n);
    if n == 0 {
        return assignment;
    }
    let weight = |p: &DemandProfile| {
        if p.weight > 0.0 && p.weight.is_finite() {
            p.weight
        } else {
            0.0
        }
    };
    let total_weight: f64 = profiles.iter().map(weight).sum();
    if total_weight <= 0.0 {
        return assignment;
    }

    // Remaining capacity per node.
    let mut free: Vec<usize> = machine.nodes().map(|nd| nd.num_cores()).collect();

    // Stage 1: pin NUMA-bad applications to their data's node, giving each
    // up to weight-share of that node.
    for (i, p) in profiles.iter().enumerate() {
        if let DataPlacement::SingleNode(node) = p.spec.placement {
            let node_cores = machine.node(node).num_cores();
            let want = ((weight(p) / total_weight) * machine.total_cores() as f64).round() as usize;
            let take = want.min(free[node.0]).min(node_cores);
            assignment.set(i, node, take);
            free[node.0] -= take;
        }
    }

    // Stage 2: apportion every node's remaining cores by weight (largest
    // remainder), skipping data-pinned apps on foreign nodes.
    for node in machine.node_ids() {
        let cores = free[node.0];
        if cores == 0 {
            continue;
        }
        let eligible: Vec<usize> = (0..n)
            .filter(|&i| match profiles[i].spec.placement {
                DataPlacement::SingleNode(pin) => pin == node,
                _ => true,
            })
            .collect();
        let weights: Vec<f64> = eligible.iter().map(|&i| profiles[i].weight).collect();
        let counts = largest_remainder(cores, &weights);
        for (k, &i) in eligible.iter().enumerate() {
            assignment.set(i, node, assignment.get(i, node) + counts[k]);
        }
    }
    assignment
}

struct GroupState {
    profiles: Vec<Option<DemandProfile>>,
    /// Participants that have arrived at the current round's barrier.
    arrived: usize,
    /// Round counter; incremented when a round completes.
    round: u64,
    /// The allocation computed for the completed round.
    agreed: Option<ThreadAssignment>,
}

/// A consensus group: runtimes join it and agree on allocations without a
/// central agent.
pub struct ConsensusGroup {
    machine: Machine,
    state: Mutex<GroupState>,
    cv: Condvar,
    members: Mutex<usize>,
}

impl ConsensusGroup {
    /// Creates a group for `machine`.
    pub fn new(machine: Machine) -> Arc<Self> {
        Arc::new(ConsensusGroup {
            machine,
            state: Mutex::new(GroupState {
                profiles: Vec::new(),
                arrived: 0,
                round: 0,
                agreed: None,
            }),
            cv: Condvar::new(),
            members: Mutex::new(0),
        })
    }

    /// Joins the group with an initial profile and the runtime's control
    /// handle. Join order fixes the participant's index (and tie-breaking
    /// priority). All participants must join before the first round.
    pub fn join(
        self: &Arc<Self>,
        name: &str,
        profile: DemandProfile,
        control: ControlHandle,
    ) -> Participant {
        let mut members = self.members.lock();
        let index = *members;
        *members += 1;
        let mut st = self.state.lock();
        st.profiles.push(Some(profile));
        Participant {
            group: Arc::clone(self),
            index,
            name: name.to_string(),
            control,
        }
    }

    /// Number of members.
    pub(crate) fn members(&self) -> usize {
        *self.members.lock()
    }
}

/// One runtime's membership in a [`ConsensusGroup`].
pub struct Participant {
    group: Arc<ConsensusGroup>,
    index: usize,
    name: String,
    control: ControlHandle,
}

impl Participant {
    /// Arrives at the round barrier; when the last member arrives, the
    /// allocation is computed; every caller then applies its own row as a
    /// per-node command and returns the full agreed assignment.
    ///
    /// Times out (with an error) if the other members do not arrive within
    /// `timeout` — a participant crashing must not deadlock the node.
    pub fn agree(&self, timeout: Duration) -> Result<ThreadAssignment> {
        let members = self.group.members();
        let deadline = std::time::Instant::now() + timeout;
        let assignment;
        {
            let mut st = self.group.state.lock();
            let my_round = st.round;
            st.arrived += 1;
            if st.arrived == members {
                // Last to arrive: compute and publish.
                let profiles: Vec<DemandProfile> = st
                    .profiles
                    .iter()
                    .map(|p| p.clone().expect("all joined with profiles"))
                    .collect();
                st.agreed = Some(resolve(&self.group.machine, &profiles));
                st.arrived = 0;
                st.round += 1;
                self.group.cv.notify_all();
            } else {
                // Wait for the round to close.
                while st.round == my_round {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        // Withdraw from the barrier before failing.
                        st.arrived = st.arrived.saturating_sub(1);
                        return Err(AgentError::Policy {
                            reason: format!(
                                "consensus round timed out waiting for {} members",
                                members - st.arrived - 1
                            ),
                        });
                    }
                    self.group.cv.wait_for(&mut st, deadline - now);
                }
            }
            assignment = st.agreed.clone().expect("round completed");
        }

        // Apply own row.
        let targets: Vec<usize> = self
            .group
            .machine
            .node_ids()
            .map(|n| assignment.get(self.index, n))
            .collect();
        self.control
            .apply(ThreadCommand::PerNode(targets))
            .map_err(|e| AgentError::Command {
                runtime: self.name.clone(),
                reason: e.to_string(),
            })?;
        Ok(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_runtime::{Runtime, RuntimeConfig};
    use numa_topology::presets::{paper_model_machine, tiny};
    use numa_topology::NodeId;

    #[test]
    fn resolve_is_fair_for_equal_weights() {
        let m = paper_model_machine();
        let profiles = vec![
            DemandProfile::new(AppSpec::numa_local("a", 0.5), 1.0),
            DemandProfile::new(AppSpec::numa_local("b", 0.5), 1.0),
        ];
        let a = resolve(&m, &profiles);
        for node in m.node_ids() {
            assert_eq!(a.get(0, node), 4);
            assert_eq!(a.get(1, node), 4);
        }
        assert!(a.validate(&m).is_ok());
    }

    #[test]
    fn resolve_respects_weights() {
        let m = paper_model_machine();
        let profiles = vec![
            DemandProfile::new(AppSpec::numa_local("big", 0.5), 3.0),
            DemandProfile::new(AppSpec::numa_local("small", 0.5), 1.0),
        ];
        let a = resolve(&m, &profiles);
        assert_eq!(a.app_total(0), 24);
        assert_eq!(a.app_total(1), 8);
    }

    #[test]
    fn resolve_pins_numa_bad_apps_to_their_node() {
        let m = paper_model_machine();
        let profiles = vec![
            DemandProfile::new(AppSpec::numa_local("local", 0.5), 1.0),
            DemandProfile::new(AppSpec::numa_bad("pinned", 1.0, NodeId(2)), 1.0),
        ];
        let a = resolve(&m, &profiles);
        // The pinned app only has threads on node 2.
        for node in m.node_ids() {
            if node != NodeId(2) {
                assert_eq!(a.get(1, node), 0, "pinned app must stay on its node");
            }
        }
        assert!(a.get(1, NodeId(2)) > 0);
        assert!(a.validate(&m).is_ok());
        // No capacity is wasted on other nodes.
        for node in m.node_ids() {
            if node != NodeId(2) {
                assert_eq!(a.node_total(node), 8);
            }
        }
    }

    /// Zero, NaN and negative weights count as 0: a node whose eligible
    /// weights sum to 0 stays empty, and no row holds more than its node.
    #[test]
    fn resolve_counts_bad_weights_as_zero() {
        let m = paper_model_machine();
        let local = |w| DemandProfile::new(AppSpec::numa_local("l", 0.5), w);
        let pinned = DemandProfile::new(AppSpec::numa_bad("p", 1.0, NodeId(0)), 1.0);
        let zeros = resolve(&m, &[pinned, local(0.0), local(0.0)]);
        assert_eq!(zeros.get(0, NodeId(0)), 8);
        assert_eq!(zeros.total(), 8);
        for bad in [f64::NAN, -1.0] {
            let a = resolve(&m, &[local(bad), local(2.0)]);
            for node in m.node_ids() {
                assert_eq!((a.get(0, node), a.get(1, node)), (0, 8), "weight {bad}");
            }
        }
    }

    #[test]
    fn resolve_is_deterministic() {
        let m = paper_model_machine();
        let profiles = vec![
            DemandProfile::new(AppSpec::numa_local("a", 0.5), 1.3),
            DemandProfile::new(AppSpec::numa_bad("b", 1.0, NodeId(1)), 0.9),
            DemandProfile::new(AppSpec::numa_local("c", 4.0), 2.1),
        ];
        assert_eq!(resolve(&m, &profiles), resolve(&m, &profiles));
    }

    #[test]
    fn two_runtimes_agree_without_an_agent() {
        let machine = tiny();
        let a = Runtime::start(RuntimeConfig::new("a", machine.clone())).unwrap();
        let b = Runtime::start(RuntimeConfig::new("b", machine.clone())).unwrap();
        let group = ConsensusGroup::new(machine.clone());
        let pa = group.join(
            "a",
            DemandProfile::new(AppSpec::numa_local("a", 0.5), 1.0),
            a.control(),
        );
        let pb = group.join(
            "b",
            DemandProfile::new(AppSpec::numa_local("b", 0.5), 1.0),
            b.control(),
        );
        assert_eq!(group.members(), 2);

        // Both agree concurrently (the barrier requires it).
        let (ra, rb) = std::thread::scope(|s| {
            let ta = s.spawn(|| pa.agree(Duration::from_secs(5)).unwrap());
            let tb = s.spawn(|| pb.agree(Duration::from_secs(5)).unwrap());
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(ra, rb, "all participants computed the same allocation");

        // The runtimes converge to their rows: 1 thread per node each.
        for rt in [&a, &b] {
            assert!(rt
                .control()
                .wait_converged(Duration::from_secs(5), |_, per| per == [1, 1]));
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn reproposal_shifts_allocation_next_round() {
        let machine = tiny();
        let a = Runtime::start(RuntimeConfig::new("a", machine.clone())).unwrap();
        let b = Runtime::start(RuntimeConfig::new("b", machine.clone())).unwrap();
        let group = ConsensusGroup::new(machine.clone());
        let pa = group.join(
            "a",
            DemandProfile::new(AppSpec::numa_local("a", 0.5), 1.0),
            a.control(),
        );
        let pb = group.join(
            "b",
            DemandProfile::new(AppSpec::numa_local("b", 0.5), 1.0),
            b.control(),
        );

        // Round 1: equal. Round 2: a demands 3x.
        let round = |pa: &Participant, pb: &Participant| {
            std::thread::scope(|s| {
                let ta = s.spawn(|| pa.agree(Duration::from_secs(5)).unwrap());
                let tb = s.spawn(|| pb.agree(Duration::from_secs(5)).unwrap());
                (ta.join().unwrap(), tb.join().unwrap())
            })
        };
        let (r1, _) = round(&pa, &pb);
        assert_eq!(r1.app_total(0), 2);
        // A new profile for `a` takes effect at the next round.
        pa.group.state.lock().profiles[pa.index] =
            Some(DemandProfile::new(AppSpec::numa_local("a", 0.5), 3.0));
        let (r2, _) = round(&pa, &pb);
        assert!(
            r2.app_total(0) > r1.app_total(0),
            "higher weight must yield more threads: {} vs {}",
            r2.app_total(0),
            r1.app_total(0)
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn lone_straggler_times_out_cleanly() {
        let machine = tiny();
        let a = Runtime::start(RuntimeConfig::new("a", machine.clone())).unwrap();
        let b = Runtime::start(RuntimeConfig::new("b", machine.clone())).unwrap();
        let group = ConsensusGroup::new(machine.clone());
        let pa = group.join(
            "a",
            DemandProfile::new(AppSpec::numa_local("a", 0.5), 1.0),
            a.control(),
        );
        let _pb = group.join(
            "b",
            DemandProfile::new(AppSpec::numa_local("b", 0.5), 1.0),
            b.control(),
        );
        // Only `a` shows up: must time out, not deadlock.
        let err = pa.agree(Duration::from_millis(100));
        assert!(matches!(err, Err(AgentError::Policy { .. })));
        a.shutdown();
        b.shutdown();
    }
}
