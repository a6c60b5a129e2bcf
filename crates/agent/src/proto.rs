//! Channel-based agent/runtime protocol.
//!
//! The paper's agent is a *separate process* talking to the runtimes over
//! IPC. In this reproduction the same message protocol runs over
//! in-process channels — the crate's own blocking channel (`chan.rs`, a
//! bounded queue of 16 messages each way; the courier threads of
//! [`crate::supervise`] use the same one), see the substitution notes in
//! `DESIGN.md`: the agent owns an [`AgentSideEndpoint`] (a
//! [`RuntimeHandle`]), the runtime side runs a [`RuntimeSideEndpoint`]
//! pump on its own thread. Structurally this is Figure 1; only the
//! transport differs. Either side waiting for the other parks at once
//! and is woken by the message it waits for, so a round trip costs two
//! wake-ups and no spinning on a CPU the other side may need.
//!
//! Failure semantics mirror a real IPC transport: a pump that does not
//! answer within the endpoint's timeout surfaces as
//! [`AgentError::Timeout`], a dead pump as [`AgentError::Disconnected`],
//! and a reply that does not match the request as an application-level
//! [`AgentError::Command`]. For fault-injection testing,
//! [`connect_chaotic`] runs the pump under a [`FaultPlan`] (delays, hangs,
//! drops, error replies, wrong-variant replies, garbage stats); to add kill/revive
//! semantics, wrap the agent side in a
//! [`ChaosHandle`](crate::fault::ChaosHandle) with a
//! [`KillSwitch`](crate::fault::KillSwitch) — the wrappers compose.

use crate::chan::{self, Receiver, RecvTimeoutError, Sender};
use crate::fault::{Fault, FaultPlan};
use crate::{AgentError, Result, RuntimeHandle};
use coop_runtime::{Runtime, RuntimeStats, ThreadCommand};
use std::sync::Arc;
use std::time::Duration;

/// Default per-roundtrip timeout for [`connect`].
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

/// Requests the agent sends to a runtime.
#[derive(Debug, Clone)]
pub enum Request {
    /// Ask for a statistics snapshot.
    GetStats,
    /// Apply a thread-control command.
    Apply(ThreadCommand),
    /// Stop the endpoint pump (the runtime itself is not affected).
    Close,
}

/// Responses a runtime sends back.
#[derive(Debug, Clone)]
pub enum Response {
    /// A statistics snapshot.
    Stats(RuntimeStats),
    /// Command applied successfully.
    Ok,
    /// Command rejected.
    Err(String),
}

/// Agent-side endpoint; implements [`RuntimeHandle`] over the channel.
pub struct AgentSideEndpoint {
    name: String,
    req: Sender<Request>,
    resp: Receiver<Response>,
    timeout: Duration,
}

/// Runtime-side endpoint pump handle; joins on drop.
pub struct RuntimeSideEndpoint {
    req: Sender<Request>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Connects a runtime to a fresh channel pair and spawns the runtime-side
/// pump thread, with the [`DEFAULT_TIMEOUT`] per roundtrip. Returns the
/// agent-side handle and the pump handle (keep the latter alive for the
/// duration of the session). Fails with [`AgentError::Spawn`] when the
/// pump thread cannot be spawned.
pub fn connect(runtime: Arc<Runtime>) -> Result<(AgentSideEndpoint, RuntimeSideEndpoint)> {
    connect_with(runtime, DEFAULT_TIMEOUT, None)
}

/// [`connect`] with a custom per-roundtrip timeout.
pub fn connect_with_timeout(
    runtime: Arc<Runtime>,
    timeout: Duration,
) -> Result<(AgentSideEndpoint, RuntimeSideEndpoint)> {
    connect_with(runtime, timeout, None)
}

/// [`connect`] with a [`FaultPlan`] applied by the pump: each received
/// request counts as one call; a faulting call is delayed, dropped
/// (hang), answered wrongly, answered with an error, answered with
/// corrupted stats, or kills the pump (disconnect), per the plan.
pub fn connect_chaotic(
    runtime: Arc<Runtime>,
    timeout: Duration,
    plan: FaultPlan,
) -> Result<(AgentSideEndpoint, RuntimeSideEndpoint)> {
    connect_with(runtime, timeout, Some(plan))
}

fn connect_with(
    runtime: Arc<Runtime>,
    timeout: Duration,
    plan: Option<FaultPlan>,
) -> Result<(AgentSideEndpoint, RuntimeSideEndpoint)> {
    let (req_tx, req_rx) = chan::bounded::<Request>(16);
    let (resp_tx, resp_rx) = chan::bounded::<Response>(16);
    let name = runtime.name().to_string();

    let pump_runtime = Arc::clone(&runtime);
    let thread = std::thread::Builder::new()
        .name(format!("{name}-endpoint"))
        .spawn(move || {
            let mut call: u64 = 0;
            // Last clean counters reported, for Garbage corruption.
            let mut last_reported: (u64, u64) = (0, 0);
            while let Ok(req) = req_rx.recv() {
                let fault = match (&plan, &req) {
                    // Close is control-plane: never faulted.
                    (Some(p), Request::GetStats) | (Some(p), Request::Apply(_)) => {
                        let f = p.fault_for(call).cloned();
                        call += 1;
                        f
                    }
                    _ => None,
                };
                match fault {
                    Some(Fault::Delay(d)) => std::thread::sleep(d),
                    Some(Fault::Hang(d)) => {
                        // Swallow the request: the agent's deadline must
                        // fire. The pump stays busy for the duration, as
                        // a wedged runtime thread would.
                        std::thread::sleep(d);
                        continue;
                    }
                    Some(Fault::Disconnect) => break,
                    _ => {}
                }
                let resp = match req {
                    Request::GetStats => match fault {
                        Some(Fault::Error) => {
                            Response::Err("injected fault: error response".into())
                        }
                        Some(Fault::WrongResponse) => Response::Ok,
                        Some(Fault::Garbage) => {
                            let garbage_executed = last_reported.0 / 2;
                            let garbage_uptime = last_reported.1 / 2;
                            let mut stats = coop_runtime::Runtime::stats(&pump_runtime);
                            stats.tasks_executed = garbage_executed;
                            stats.uptime_us = garbage_uptime;
                            last_reported = (garbage_executed, garbage_uptime);
                            Response::Stats(stats)
                        }
                        _ => {
                            let stats = coop_runtime::Runtime::stats(&pump_runtime);
                            last_reported = (stats.tasks_executed, stats.uptime_us);
                            Response::Stats(stats)
                        }
                    },
                    Request::Apply(cmd) => match fault {
                        Some(Fault::Error) => {
                            Response::Err("injected fault: error response".into())
                        }
                        Some(Fault::WrongResponse) => {
                            Response::Stats(coop_runtime::Runtime::stats(&pump_runtime))
                        }
                        // Garbage only corrupts stats; the command is applied.
                        _ => match pump_runtime.control().apply(cmd) {
                            Ok(()) => Response::Ok,
                            Err(e) => Response::Err(e.to_string()),
                        },
                    },
                    Request::Close => break,
                };
                if resp_tx.send(resp).is_err() {
                    break;
                }
            }
        })
        .map_err(|e| AgentError::Spawn {
            runtime: name.clone(),
            reason: e.to_string(),
        })?;

    Ok((
        AgentSideEndpoint {
            name,
            req: req_tx.clone(),
            resp: resp_rx,
            timeout,
        },
        RuntimeSideEndpoint {
            req: req_tx,
            thread: Some(thread),
        },
    ))
}

impl AgentSideEndpoint {
    /// The per-roundtrip timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Changes the per-roundtrip timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Builder-style [`AgentSideEndpoint::set_timeout`].
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    fn roundtrip(&self, req: Request) -> Result<Response> {
        // A previous roundtrip may have timed out and its reply arrived
        // late; drop any such stale responses so this request is not
        // answered by the past.
        while self.resp.try_recv().is_ok() {}
        self.req.send(req).map_err(|_| AgentError::Disconnected {
            runtime: self.name.clone(),
        })?;
        match self.resp.recv_timeout(self.timeout) {
            Ok(resp) => Ok(resp),
            Err(RecvTimeoutError::Timeout) => Err(AgentError::Timeout {
                runtime: self.name.clone(),
                deadline: self.timeout,
            }),
            Err(RecvTimeoutError::Disconnected) => Err(AgentError::Disconnected {
                runtime: self.name.clone(),
            }),
        }
    }
}

impl RuntimeHandle for AgentSideEndpoint {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn stats(&self) -> Result<RuntimeStats> {
        match self.roundtrip(Request::GetStats)? {
            Response::Stats(s) => Ok(s),
            other => Err(AgentError::Command {
                runtime: self.name.clone(),
                reason: format!("unexpected response {other:?}"),
            }),
        }
    }

    fn command(&self, cmd: ThreadCommand) -> Result<()> {
        match self.roundtrip(Request::Apply(cmd))? {
            Response::Ok => Ok(()),
            Response::Err(e) => Err(AgentError::Command {
                runtime: self.name.clone(),
                reason: e,
            }),
            other => Err(AgentError::Command {
                runtime: self.name.clone(),
                reason: format!("unexpected response {other:?}"),
            }),
        }
    }
}

impl Drop for RuntimeSideEndpoint {
    fn drop(&mut self) {
        let _ = self.req.send(Request::Close);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_runtime::RuntimeConfig;
    use numa_topology::presets::tiny;
    use std::time::Instant;

    #[test]
    fn endpoint_round_trips_stats_and_commands() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("ep", tiny())).unwrap());
        let (agent_side, _pump) = connect(Arc::clone(&rt)).unwrap();

        assert_eq!(RuntimeHandle::name(&agent_side), "ep");
        let stats = agent_side.stats().unwrap();
        assert_eq!(stats.name, "ep");
        assert_eq!(stats.running_workers, 4);

        agent_side.command(ThreadCommand::TotalThreads(2)).unwrap();
        assert!(rt
            .control()
            .wait_converged(Duration::from_secs(5), |run, _| run <= 2));

        // Invalid commands surface as errors, not panics.
        let err = agent_side.command(ThreadCommand::PerNode(vec![1]));
        assert!(matches!(err, Err(AgentError::Command { .. })));
        rt.shutdown();
    }

    #[test]
    fn endpoint_survives_runtime_shutdown() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("gone", tiny())).unwrap());
        let (agent_side, _pump) = connect(Arc::clone(&rt)).unwrap();
        rt.shutdown();
        // Stats still answer (the runtime object is alive, just stopped).
        assert!(agent_side.stats().is_ok());
    }

    #[test]
    fn timeout_is_configurable() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("cfg", tiny())).unwrap());
        let (agent_side, _pump) =
            connect_with_timeout(Arc::clone(&rt), Duration::from_millis(250)).unwrap();
        assert_eq!(agent_side.timeout(), Duration::from_millis(250));
        let agent_side = agent_side.with_timeout(Duration::from_millis(125));
        assert_eq!(agent_side.timeout(), Duration::from_millis(125));
        assert!(agent_side.stats().is_ok());
        rt.shutdown();
    }

    #[test]
    fn hanging_pump_hits_deadline_not_deadlock() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("hang", tiny())).unwrap());
        let plan = FaultPlan::new().inject(0..1, Fault::Hang(Duration::from_millis(150)));
        let (agent_side, _pump) =
            connect_chaotic(Arc::clone(&rt), Duration::from_millis(30), plan).unwrap();
        let start = Instant::now();
        let err = agent_side.stats().unwrap_err();
        assert!(matches!(err, AgentError::Timeout { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_millis(140),
            "the deadline must fire before the hang ends"
        );
        // Once the pump drains the hang, fresh roundtrips work again (the
        // hung request was swallowed, so no stale response can desync us).
        std::thread::sleep(Duration::from_millis(200));
        assert!(agent_side.stats().is_ok());
        rt.shutdown();
    }

    #[test]
    fn dropped_runtime_side_endpoint_yields_disconnected() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("drop", tiny())).unwrap());
        let (agent_side, pump) = connect(Arc::clone(&rt)).unwrap();
        assert!(agent_side.stats().is_ok());
        drop(pump);
        let err = agent_side.stats().unwrap_err();
        assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
        // Still no panic on repeated use.
        let err = agent_side
            .command(ThreadCommand::TotalThreads(1))
            .unwrap_err();
        assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
        rt.shutdown();
    }

    #[test]
    fn disconnect_fault_kills_the_pump() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("dc", tiny())).unwrap());
        let plan = FaultPlan::new().inject(1.., Fault::Disconnect);
        let (agent_side, _pump) =
            connect_chaotic(Arc::clone(&rt), Duration::from_millis(500), plan).unwrap();
        assert!(agent_side.stats().is_ok(), "first call is clean");
        let err = agent_side.stats().unwrap_err();
        assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
        rt.shutdown();
    }

    #[test]
    fn unexpected_response_variant_is_error_not_panic() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("wrong", tiny())).unwrap());
        let plan = FaultPlan::new().inject(0..2, Fault::WrongResponse);
        let (agent_side, _pump) =
            connect_chaotic(Arc::clone(&rt), Duration::from_millis(500), plan).unwrap();
        // GetStats answered with Ok: application-level error, not a panic.
        let err = agent_side.stats().unwrap_err();
        assert!(
            matches!(err, AgentError::Command { ref reason, .. } if reason.contains("unexpected")),
            "{err}"
        );
        // Apply answered with Stats: same.
        let err = agent_side
            .command(ThreadCommand::TotalThreads(2))
            .unwrap_err();
        assert!(
            matches!(err, AgentError::Command { ref reason, .. } if reason.contains("unexpected")),
            "{err}"
        );
        // The plan's window is over: clean calls again.
        assert!(agent_side.stats().is_ok());
        rt.shutdown();
    }

    #[test]
    fn error_fault_surfaces_as_command_error() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("err", tiny())).unwrap());
        let plan = FaultPlan::new().inject(0..1, Fault::Error);
        let (agent_side, _pump) =
            connect_chaotic(Arc::clone(&rt), Duration::from_millis(500), plan).unwrap();
        let err = agent_side.stats().unwrap_err();
        assert!(matches!(err, AgentError::Command { .. }), "{err}");
        assert!(agent_side.stats().is_ok());
        rt.shutdown();
    }

    #[test]
    fn garbage_fault_regresses_counters() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("garb", tiny())).unwrap());
        let plan = FaultPlan::new().inject(1..2, Fault::Garbage);
        let (agent_side, _pump) =
            connect_chaotic(Arc::clone(&rt), Duration::from_millis(500), plan).unwrap();
        let clean = agent_side.stats().unwrap();
        let garbage = agent_side.stats().unwrap();
        assert!(
            garbage.uptime_us < clean.uptime_us,
            "garbage stats must run the uptime counter backwards ({} vs {})",
            garbage.uptime_us,
            clean.uptime_us
        );
        assert!(garbage.tasks_executed <= clean.tasks_executed);
        rt.shutdown();
    }
}
