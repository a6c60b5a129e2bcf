//! Simulated application descriptions.

use crate::event::s_to_tick;
use coop_telemetry::json::{self, FromJson, ToJson, Value};
use coop_telemetry::{json_object, json_struct};
use numa_topology::NodeId;
use roofline_numa::AppSpec;

/// When an application is actively computing.
///
/// The paper's tighter-integration scenarios (§II) involve applications
/// whose demand varies over time — a "library" application that only works
/// when called, or a producer that stalls when it runs too far ahead.
#[derive(Debug, Clone, PartialEq)]
pub enum ActivityPattern {
    /// Computing for the whole simulation.
    AlwaysOn,
    /// Repeating cycle: active for `duty * period_s`, idle for the rest.
    /// The burst begins at each period start (plus `phase_s`).
    Bursts {
        /// Cycle length in seconds.
        period_s: f64,
        /// Fraction of the period spent active (0..=1).
        duty: f64,
        /// Offset of the first burst, seconds.
        phase_s: f64,
    },
    /// Active only inside `[start_s, end_s)`.
    Window {
        /// Activity start, seconds.
        start_s: f64,
        /// Activity end, seconds.
        end_s: f64,
    },
}

/// `"AlwaysOn"`, `{"Bursts": {period_s, duty, phase_s}}` or
/// `{"Window": {start_s, end_s}}`.
impl ToJson for ActivityPattern {
    fn to_value(&self) -> Value {
        match *self {
            ActivityPattern::AlwaysOn => "AlwaysOn".to_value(),
            ActivityPattern::Bursts {
                period_s,
                duty,
                phase_s,
            } => json_object! {
                "Bursts": json_object! {"period_s": period_s, "duty": duty, "phase_s": phase_s},
            },
            ActivityPattern::Window { start_s, end_s } => json_object! {
                "Window": json_object! {"start_s": start_s, "end_s": end_s},
            },
        }
    }
}

impl FromJson for ActivityPattern {
    fn from_value(v: &Value) -> json::Result<Self> {
        match (v.as_str(), v.as_object()) {
            (Some("AlwaysOn"), _) => Ok(ActivityPattern::AlwaysOn),
            (_, Some([(tag, body)])) if tag == "Bursts" => Ok(ActivityPattern::Bursts {
                period_s: body.field("period_s")?,
                duty: body.field("duty")?,
                phase_s: body.field("phase_s")?,
            }),
            (_, Some([(tag, body)])) if tag == "Window" => Ok(ActivityPattern::Window {
                start_s: body.field("start_s")?,
                end_s: body.field("end_s")?,
            }),
            _ => Err(json::Error::new(
                "expected \"AlwaysOn\", {\"Bursts\": {..}} or {\"Window\": {..}}",
            )),
        }
    }
}

impl ActivityPattern {
    /// Rejects patterns whose edges do not advance time. A zero, negative
    /// or NaN period has no cycle for [`next_edge`] to count, and a burst or
    /// gap shorter than one [`Tick`](crate::event::Tick) advances by less
    /// than the loop can resolve — one event per nanosecond tick, an
    /// effective hang from a scenario file.
    ///
    /// [`next_edge`]: ActivityPattern::next_edge
    pub(crate) fn validate(&self) -> crate::Result<()> {
        let bad = |reason| Err(crate::SimError::BadTime { reason });
        match *self {
            ActivityPattern::AlwaysOn => {}
            ActivityPattern::Bursts {
                period_s,
                duty,
                phase_s,
            } => {
                if !(period_s > 0.0 && period_s.is_finite()) {
                    return bad("burst period must be positive and finite");
                }
                if !(0.0..=1.0).contains(&duty) {
                    return bad("burst duty must lie in [0, 1]");
                }
                if !phase_s.is_finite() {
                    return bad("burst phase must be finite");
                }
                // With a degenerate duty the state never changes and only
                // the period itself has to be resolvable.
                let shortest = if duty > 0.0 && duty < 1.0 {
                    period_s * duty.min(1.0 - duty)
                } else {
                    period_s
                };
                if s_to_tick(shortest) < 1 {
                    return bad("burst on and off lengths must each be at least 1 ns");
                }
            }
            ActivityPattern::Window { start_s, end_s } => {
                if !(start_s.is_finite() && end_s.is_finite()) {
                    return bad("activity window bounds must be finite");
                }
                if start_s > end_s {
                    return bad("activity window must not end before it starts");
                }
            }
        }
        Ok(())
    }

    /// The pattern bit for bit: its kind, then each field's
    /// `f64::to_bits`. Equal bits answer [`is_active`] and [`next_edge`]
    /// alike everywhere; `PartialEq` would also equate `0.0` with `-0.0`.
    ///
    /// [`is_active`]: ActivityPattern::is_active
    /// [`next_edge`]: ActivityPattern::next_edge
    pub(crate) fn bits(&self) -> [u64; 4] {
        match *self {
            ActivityPattern::AlwaysOn => [0; 4],
            ActivityPattern::Bursts {
                period_s,
                duty,
                phase_s,
            } => [1, period_s.to_bits(), duty.to_bits(), phase_s.to_bits()],
            ActivityPattern::Window { start_s, end_s } => {
                [2, start_s.to_bits(), end_s.to_bits(), 0]
            }
        }
    }

    /// `true` if the application computes during the quantum starting at
    /// `t` seconds.
    pub(crate) fn is_active(&self, t: f64) -> bool {
        match *self {
            ActivityPattern::AlwaysOn => true,
            ActivityPattern::Bursts {
                period_s,
                duty,
                phase_s,
            } => {
                let pos = (t - phase_s).rem_euclid(period_s);
                pos < duty * period_s
            }
            ActivityPattern::Window { start_s, end_s } => t >= start_s && t < end_s,
        }
    }
    /// The first instant at which [`is_active`] changes value whose
    /// [`Tick`](crate::event::Tick) is after `t`'s, or `None` if the pattern
    /// never changes again. This is what turns an activity pattern into
    /// discrete events: between consecutive edges the active/idle state is
    /// constant, so the simulator only re-arbitrates at edges. "After" is
    /// decided in integer nanoseconds and a burst's edges are computed from
    /// its cycle index, never from `t`'s float residue within the cycle: an
    /// edge has one tick however it is reached, so walking a pattern edge by
    /// edge skips none and repeats none a nanosecond later.
    ///
    /// [`is_active`]: ActivityPattern::is_active
    pub(crate) fn next_edge(&self, t: f64) -> Option<f64> {
        let now = s_to_tick(t);
        let later = |edge: &f64| s_to_tick(*edge) > now;
        match *self {
            ActivityPattern::AlwaysOn => None,
            ActivityPattern::Bursts {
                period_s,
                duty,
                phase_s,
            } => {
                // Degenerate duty cycles never change state.
                if !(0.0..1.0).contains(&duty) || duty == 0.0 {
                    return None;
                }
                // Rounding can put `cycle` one off in either direction, so
                // the scan starts a cycle early.
                let cycle = ((t - phase_s) / period_s).floor();
                [cycle - 1.0, cycle, cycle + 1.0]
                    .into_iter()
                    .flat_map(|c| {
                        let start = phase_s + c * period_s;
                        [start, start + duty * period_s]
                    })
                    .find(later)
            }
            ActivityPattern::Window { start_s, end_s } => [start_s, end_s].into_iter().find(later),
        }
    }
}

/// An application as the simulator sees it: the model-level spec plus
/// simulator-only behaviour (activity pattern, synchronization scaling).
#[derive(Debug, Clone, PartialEq)]
pub struct SimApp {
    /// Arithmetic intensity and data placement (shared with the model).
    pub spec: AppSpec,
    /// When the application computes.
    pub activity: ActivityPattern,
    /// Synchronization-overhead coefficient `alpha`: with `n` threads
    /// machine-wide, each thread's compute throughput is multiplied by
    /// `1 / (1 + alpha * (n - 1))`. 0 = perfect scaling (the model's
    /// assumption). Models the "scaling is less than linear" applications
    /// of §II without making more threads outright harmful.
    pub sync_overhead: f64,
}

json_struct!(SimApp: spec, activity, sync_overhead);

impl SimApp {
    /// A NUMA-perfect application (threads touch only local memory).
    pub fn numa_local(name: &str, ai: f64) -> Self {
        SimApp {
            spec: AppSpec::numa_local(name, ai),
            activity: ActivityPattern::AlwaysOn,
            sync_overhead: 0.0,
        }
    }

    /// A NUMA-bad application: all data on `node`.
    pub fn numa_bad(name: &str, ai: f64, node: NodeId) -> Self {
        SimApp {
            spec: AppSpec::numa_bad(name, ai, node),
            activity: ActivityPattern::AlwaysOn,
            sync_overhead: 0.0,
        }
    }

    /// An application with an explicit traffic distribution.
    pub fn spread(name: &str, ai: f64, fractions: Vec<f64>) -> Self {
        SimApp {
            spec: AppSpec::spread(name, ai, fractions),
            activity: ActivityPattern::AlwaysOn,
            sync_overhead: 0.0,
        }
    }

    /// Sets the activity pattern.
    pub fn with_activity(mut self, activity: ActivityPattern) -> Self {
        self.activity = activity;
        self
    }

    /// Sets the synchronization-overhead coefficient.
    pub fn with_sync_overhead(mut self, alpha: f64) -> Self {
        self.sync_overhead = alpha;
        self
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tick_to_s;
    use roofline_numa::DataPlacement;

    #[test]
    fn always_on() {
        assert!(ActivityPattern::AlwaysOn.is_active(0.0));
        assert!(ActivityPattern::AlwaysOn.is_active(1e9));
    }

    #[test]
    fn bursts_cycle() {
        let p = ActivityPattern::Bursts {
            period_s: 1.0,
            duty: 0.25,
            phase_s: 0.0,
        };
        assert!(p.is_active(0.0));
        assert!(p.is_active(0.24));
        assert!(!p.is_active(0.25));
        assert!(!p.is_active(0.9));
        assert!(p.is_active(1.1));
        assert!(p.is_active(5.2));
        assert!(!p.is_active(5.3));
    }

    #[test]
    fn bursts_with_phase() {
        let p = ActivityPattern::Bursts {
            period_s: 2.0,
            duty: 0.5,
            phase_s: 0.5,
        };
        assert!(!p.is_active(0.0));
        assert!(p.is_active(0.5));
        assert!(p.is_active(1.4));
        assert!(!p.is_active(1.6));
    }

    #[test]
    fn window() {
        let p = ActivityPattern::Window {
            start_s: 1.0,
            end_s: 2.0,
        };
        assert!(!p.is_active(0.99));
        assert!(p.is_active(1.0));
        assert!(p.is_active(1.99));
        assert!(!p.is_active(2.0));
    }

    #[test]
    fn next_edge_walks_patterns() {
        assert_eq!(ActivityPattern::AlwaysOn.next_edge(0.0), None);

        let w = ActivityPattern::Window {
            start_s: 1.0,
            end_s: 2.0,
        };
        assert_eq!(w.next_edge(0.0), Some(1.0));
        assert_eq!(w.next_edge(1.0), Some(2.0));
        assert_eq!(w.next_edge(2.0), None);

        let b = ActivityPattern::Bursts {
            period_s: 1.0,
            duty: 0.25,
            phase_s: 0.0,
        };
        // Walking edges from 0 visits 0.25, 1.0, 1.25, 2.0, ... and the
        // state flips at every edge.
        let mut t = 0.0;
        let mut state = b.is_active(t);
        for _ in 0..8 {
            let e = b.next_edge(t).unwrap();
            assert!(e > t, "edge {e} must advance past {t}");
            let new_state = b.is_active(e);
            assert_ne!(new_state, state, "state must flip at edge {e}");
            t = e;
            state = new_state;
        }
        assert!(
            (t - 4.0).abs() < 1e-9,
            "8 edges of a 1s/0.25 cycle end at 4s, got {t}"
        );

        // Walked the way the simulator walks it — each edge rounded to its
        // tick and handed back — a burst whose residue lands on a period
        // start loses no edge and gains no 1 ns twin: 4, 14, ... 94 ms.
        let b = ActivityPattern::Bursts {
            period_s: 0.02,
            duty: 0.5,
            phase_s: 0.004,
        };
        let mut ticks = Vec::new();
        let mut now = 0;
        while let Some(e) = b.next_edge(tick_to_s(now)).filter(|&e| e < 0.1) {
            assert!(s_to_tick(e) > now, "edge {e} must advance past tick {now}");
            now = s_to_tick(e);
            ticks.push(now);
        }
        let expected: Vec<u64> = (0..10).map(|k| 4_000_000 + k * 10_000_000).collect();
        assert_eq!(ticks, expected);

        // Degenerate duties never produce edges.
        for duty in [0.0, 1.0, 1.5] {
            let p = ActivityPattern::Bursts {
                period_s: 1.0,
                duty,
                phase_s: 0.0,
            };
            assert_eq!(p.next_edge(0.3), None, "duty {duty}");
        }
    }

    #[test]
    fn sim_app_builders() {
        let a = SimApp::numa_local("x", 0.5)
            .with_sync_overhead(0.02)
            .with_activity(ActivityPattern::Window {
                start_s: 0.0,
                end_s: 1.0,
            });
        assert_eq!(a.name(), "x");
        assert_eq!(a.sync_overhead, 0.02);
        assert_eq!(a.spec.placement, DataPlacement::Local);
        let b = SimApp::numa_bad("y", 1.0, NodeId(2));
        assert_eq!(b.spec.placement, DataPlacement::SingleNode(NodeId(2)));
    }
}
