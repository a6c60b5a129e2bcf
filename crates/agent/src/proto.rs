//! The agent/runtime message protocol and its one transport.
//!
//! The paper's agent is a *separate process* exchanging stats and command
//! messages with each runtime (Figure 1). Here the same messages — a
//! [`Request`] out, a [`Reply`] back, each under the call's sequence
//! number — cross a pair of `std::sync::mpsc` channels (one slot each
//! way) between two parties, whoever the runtime is. The **serving
//! thread** owns the runtime side (a [`RuntimeHandle`]) and runs the one
//! serving loop, `serve`. The **[`Courier`]** is the agent's end: `post`
//! hands over a request and returns at once with the call's deadline,
//! `await_reply` waits for that call's answer until then; a call that
//! misses its deadline stays *in flight*, and nothing more is posted until
//! its late reply has turned up and been dropped by its number.
//!
//! Who owns the serving thread: [`connect`] spawns it (`<name>-endpoint`)
//! over an `Arc<Runtime>` and its [`RuntimeSideEndpoint`] stops and joins
//! it on drop — structurally the paper's setup, only the transport differs
//! (see `DESIGN.md`). The [`AgentSideEndpoint`] holds the courier and
//! gives it up when the agent manages it ([`RuntimeHandle::take_courier`]):
//! a supervised call goes agent → `<name>-endpoint` → runtime, one thread
//! and two wake-ups. A handle that is not such a channel has no serving
//! thread of its own: the agent's runners call it in place
//! ([`supervise`](crate::supervise)), answering each request with the same
//! function the serving loop uses.
//!
//! Failure semantics mirror a real IPC transport: no answer by the
//! deadline is [`AgentError::Timeout`], a serving thread that is gone (or
//! whose handle panicked) [`AgentError::Disconnected`], a reply of the
//! wrong kind an application-level [`AgentError::Command`]. Faults are
//! injected behind the loop by the one injector, a
//! [`ChaosHandle`](crate::fault::ChaosHandle).

use crate::supervise::DetectorConfig;
use crate::{AgentError, Result, RuntimeHandle};
use coop_runtime::{Runtime, RuntimeStats, ThreadCommand};
use coop_telemetry::sync::Mutex;
use std::sync::mpsc::{
    sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError,
};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests the agent sends to a runtime.
#[derive(Debug, Clone)]
pub enum Request {
    /// Ask for a statistics snapshot.
    GetStats,
    /// Apply a thread-control command.
    Apply(ThreadCommand),
    /// Stop the serving thread (the runtime itself is not affected).
    Close,
}

/// What a runtime answers when the call went through.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A statistics snapshot, to [`Request::GetStats`].
    Stats(RuntimeStats),
    /// Command applied, to [`Request::Apply`].
    Done,
}

impl Reply {
    /// The snapshot, or an application-level error for the other reply.
    pub(crate) fn into_stats(self, runtime: &str) -> Result<RuntimeStats> {
        match self {
            Reply::Stats(stats) => Ok(stats),
            Reply::Done => Err(wrong_reply(runtime, "stats")),
        }
    }

    /// `()`, or an application-level error for the other reply.
    pub(crate) fn into_done(self, runtime: &str) -> Result<()> {
        match self {
            Reply::Done => Ok(()),
            Reply::Stats(_) => Err(wrong_reply(runtime, "command")),
        }
    }
}

fn wrong_reply(runtime: &str, asked: &str) -> AgentError {
    AgentError::Command {
        runtime: runtime.to_string(),
        reason: format!("the runtime side returned the wrong reply for {asked}"),
    }
}

/// What `inner` answers to `request`: the call it names, or `None` for
/// [`Request::Close`], which names none.
pub(crate) fn answer(inner: &dyn RuntimeHandle, request: Request) -> Option<Result<Reply>> {
    match request {
        Request::GetStats => Some(inner.stats().map(Reply::Stats)),
        Request::Apply(cmd) => Some(inner.command(cmd).map(|()| Reply::Done)),
        Request::Close => None,
    }
}

/// The one serving loop: answers each request with the call it names on
/// `inner`, under the request's sequence number, until [`Request::Close`]
/// or until either channel disconnects (dropping `inner`). A panic in
/// `inner` drops both ends too, which the agent reads as `Disconnected`.
fn serve(
    inner: Box<dyn RuntimeHandle>,
    requests: Receiver<(u64, Request)>,
    replies: SyncSender<(u64, Result<Reply>)>,
) {
    while let Ok((seq, request)) = requests.recv() {
        let Some(reply) = answer(&*inner, request) else {
            break;
        };
        if replies.send((seq, reply)).is_err() {
            break;
        }
    }
}

/// The agent's end of one runtime's channel pair (see the module docs).
/// Opaque: made by [`connect`], it changes hands through
/// [`RuntimeHandle::take_courier`].
pub struct Courier {
    name: String,
    /// How long a call may take, from its post.
    pub(crate) call_deadline: Duration,
    req: SyncSender<(u64, Request)>,
    resp: Receiver<(u64, Result<Reply>)>,
    next_seq: u64,
    /// Sequence number of a posted call whose reply has not been
    /// received: the serving thread is (as far as the agent knows) still
    /// inside it, and nothing more is posted until its reply turns up.
    in_flight: Option<u64>,
}

impl Courier {
    /// Spawns [`serve`] over `inner` on a thread called `<name>-endpoint`
    /// and returns the agent's end with that thread's handle, or
    /// [`AgentError::Spawn`].
    fn spawn(
        inner: Box<dyn RuntimeHandle>,
        call_deadline: Duration,
    ) -> Result<(Courier, JoinHandle<()>)> {
        let name = inner.name();
        // One request at a time, and so never more than one unread reply.
        let (req, requests) = sync_channel(1);
        let (replies, resp) = sync_channel(1);
        let thread = std::thread::Builder::new()
            .name(format!("{name}-endpoint"))
            .spawn(move || serve(inner, requests, replies))
            .map_err(|e| AgentError::Spawn {
                runtime: name.clone(),
                reason: e.to_string(),
            })?;
        let courier = Courier {
            name,
            call_deadline,
            req,
            resp,
            next_seq: 0,
            in_flight: None,
        };
        Ok((courier, thread))
    }

    /// First half of a call: hands `request` to the serving thread and
    /// returns at once with the call's sequence number and deadline.
    /// Fails without posting when that thread has died or is still inside
    /// an earlier call.
    pub(crate) fn post(&mut self, request: Request) -> Result<(u64, Instant)> {
        // A call that timed out may have been answered since: its stale
        // reply is dropped here and frees the courier.
        while let Some(pending) = self.in_flight {
            match self.resp.try_recv() {
                Ok((got, _)) if got >= pending => self.in_flight = None,
                Ok(_) => {}
                // Still hung inside the runtime; do not pile up behind it.
                Err(TryRecvError::Empty) => return Err(self.timed_out()),
                Err(TryRecvError::Disconnected) => return Err(self.disconnected()),
            }
        }
        let seq = self.next_seq;
        match self.req.try_send((seq, request)) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => return Err(self.timed_out()),
            Err(TrySendError::Disconnected(_)) => return Err(self.disconnected()),
        }
        self.next_seq += 1;
        self.in_flight = Some(seq);
        Ok((seq, Instant::now() + self.call_deadline))
    }

    /// Second half: waits until `deadline` for the reply to call `seq`.
    /// A call that misses it stays in flight (see [`post`](Self::post)).
    pub(crate) fn await_reply(&mut self, seq: u64, deadline: Instant) -> Result<Reply> {
        loop {
            match self
                .resp
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                // Stale reply from a call that already timed out: discard.
                Ok((got, _)) if got < seq => continue,
                Ok((_, reply)) => {
                    self.in_flight = None;
                    return reply;
                }
                Err(RecvTimeoutError::Timeout) => return Err(self.timed_out()),
                Err(RecvTimeoutError::Disconnected) => return Err(self.disconnected()),
            }
        }
    }

    fn timed_out(&self) -> AgentError {
        AgentError::Timeout {
            runtime: self.name.clone(),
            deadline: self.call_deadline,
        }
    }

    fn disconnected(&self) -> AgentError {
        AgentError::Disconnected {
            runtime: self.name.clone(),
        }
    }
}

/// Agent-side endpoint: a [`RuntimeHandle`] over the channel. Used bare, a
/// call waits [`DetectorConfig::default`]'s `call_deadline`; managed by an
/// agent, the supervised handle takes the courier and sets its own.
pub struct AgentSideEndpoint {
    name: String,
    /// `None` once given up through [`RuntimeHandle::take_courier`].
    courier: Mutex<Option<Courier>>,
}

/// Runtime-side handle of the serving thread; stops and joins it on drop.
pub struct RuntimeSideEndpoint {
    req: SyncSender<(u64, Request)>,
    thread: Option<JoinHandle<()>>,
}

/// Connects a runtime to a fresh channel pair and spawns its serving
/// thread. Returns the agent-side handle and the serving thread's handle
/// (keep the latter alive for the duration of the session). Fails with
/// [`AgentError::Spawn`] when the thread cannot be spawned.
pub fn connect(runtime: Arc<Runtime>) -> Result<(AgentSideEndpoint, RuntimeSideEndpoint)> {
    connect_over(Box::new(runtime))
}

fn connect_over(inner: Box<dyn RuntimeHandle>) -> Result<(AgentSideEndpoint, RuntimeSideEndpoint)> {
    let name = inner.name();
    let deadline = DetectorConfig::default().call_deadline;
    let (courier, thread) = Courier::spawn(inner, deadline)?;
    let runtime_side = RuntimeSideEndpoint {
        req: courier.req.clone(),
        thread: Some(thread),
    };
    let agent_side = AgentSideEndpoint {
        name,
        courier: Mutex::new(Some(courier)),
    };
    Ok((agent_side, runtime_side))
}

impl AgentSideEndpoint {
    fn call(&self, request: Request) -> Result<Reply> {
        let mut guard = self.courier.lock();
        let courier = guard.as_mut().ok_or_else(|| AgentError::Disconnected {
            runtime: self.name.clone(),
        })?;
        let (seq, deadline) = courier.post(request)?;
        courier.await_reply(seq, deadline)
    }
}

impl RuntimeHandle for AgentSideEndpoint {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn stats(&self) -> Result<RuntimeStats> {
        self.call(Request::GetStats)?.into_stats(&self.name)
    }

    fn command(&self, cmd: ThreadCommand) -> Result<()> {
        self.call(Request::Apply(cmd))?.into_done(&self.name)
    }

    fn take_courier(&mut self) -> Option<Courier> {
        self.courier.lock().take()
    }
}

impl Drop for RuntimeSideEndpoint {
    fn drop(&mut self) {
        // The number is never read: a `Close` gets no reply.
        let _ = self.req.send((u64::MAX, Request::Close));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChaosHandle, Fault, FaultPlan};
    use crate::supervise::{stats_all, SupervisedHandle, SupervisionConfig};
    use coop_runtime::RuntimeConfig;
    use numa_topology::presets::tiny;

    /// [`connect`] with `plan` applied on the runtime side: each request
    /// served counts as one call, and `Request::Close` is never faulted.
    fn connect_chaotic(
        runtime: Arc<Runtime>,
        plan: FaultPlan,
    ) -> Result<(AgentSideEndpoint, RuntimeSideEndpoint)> {
        connect_over(Box::new(ChaosHandle::new(Box::new(runtime), plan)))
    }

    /// `endpoint` the way an agent holds it: under a supervised handle
    /// with `deadline` per call and no retries.
    fn supervised(endpoint: AgentSideEndpoint, deadline: Duration) -> SupervisedHandle {
        let mut config = SupervisionConfig::aggressive(deadline);
        config.backoff.max_retries = 0;
        SupervisedHandle::new(Box::new(endpoint), config)
    }

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
    fn hanging_pump_hits_deadline_not_deadlock() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("hang", tiny())).unwrap());
        let plan = FaultPlan::new().inject(0..1, Fault::Hang(Duration::from_millis(150)));
        let (agent_side, _pump) = connect_chaotic(Arc::clone(&rt), plan).unwrap();
        let agent_side = supervised(agent_side, Duration::from_millis(30));
        let start = Instant::now();
        let err = agent_side.stats().unwrap_err();
        assert!(matches!(err, AgentError::Timeout { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_millis(140),
            "the deadline must fire before the hang ends"
        );
        // Once the pump is out of the hang, fresh roundtrips work again (the
        // hung call's late answer is dropped by its number).
        std::thread::sleep(Duration::from_millis(200));
        assert!(agent_side.stats().is_ok());
        rt.shutdown();
    }

    #[test]
    fn a_late_reply_never_answers_a_later_call() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("late", tiny())).unwrap());
        let plan = FaultPlan::new().inject(0..1, Fault::Delay(Duration::from_millis(100)));
        let (agent_side, _pump) = connect_chaotic(Arc::clone(&rt), plan).unwrap();
        let deadline = Duration::from_millis(30);
        let agent_side = supervised(agent_side, deadline);
        let err = agent_side.stats().unwrap_err();
        assert!(matches!(err, AgentError::Timeout { .. }), "{err}");

        // The delayed `Stats` reply lands inside the window a command sent
        // now would wait in. Until it has, the command is not even posted
        // (it fails at once); after, it gets its own answer, never that one.
        std::thread::sleep(Duration::from_millis(55));
        let give_up = Instant::now() + Duration::from_secs(10);
        loop {
            let started = Instant::now();
            match agent_side.command(ThreadCommand::TotalThreads(2)) {
                Ok(()) => break,
                Err(AgentError::Timeout { .. }) => {
                    assert!(started.elapsed() < deadline / 2, "must not wait again");
                    assert!(Instant::now() < give_up, "the late reply never freed it");
                    std::thread::yield_now();
                }
                Err(other) => panic!("answered by the late reply: {other}"),
            }
        }
        assert!(rt
            .control()
            .wait_converged(Duration::from_secs(5), |run, _| run <= 2));
        assert_eq!(agent_side.stats().unwrap().name, "late");
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
    fn an_endpoint_whose_handle_panics_reads_disconnected() {
        struct Panicky;
        impl RuntimeHandle for Panicky {
            fn name(&self) -> String {
                "boom".into()
            }
            fn stats(&self) -> Result<RuntimeStats> {
                panic!("runtime glue exploded");
            }
            fn command(&self, _cmd: ThreadCommand) -> Result<()> {
                Ok(())
            }
        }
        // The serving thread's unwinding drops its ends of both channels,
        // which wakes the waiting call long before its deadline.
        let (bare, pump) = connect_over(Box::new(Panicky)).unwrap();
        let deadline = DetectorConfig::default().call_deadline;
        let started = Instant::now();
        let err = bare.stats().unwrap_err();
        assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
        let err = bare.command(ThreadCommand::TotalThreads(1)).unwrap_err();
        assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
        assert!(started.elapsed() < deadline / 2, "{:?}", started.elapsed());
        // Stopping a serving thread that is already gone returns.
        drop(pump);

        let (agent_side, pump) = connect_over(Box::new(Panicky)).unwrap();
        let deadline = Duration::from_secs(10);
        let handle = supervised(agent_side, deadline);
        let started = Instant::now();
        let err = handle.stats().unwrap_err();
        assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
        let err = handle.command(ThreadCommand::TotalThreads(1)).unwrap_err();
        assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
        assert!(started.elapsed() < deadline / 2, "{:?}", started.elapsed());
        drop(pump);
    }

    #[test]
    fn disconnect_fault_kills_the_pump() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("dc", tiny())).unwrap());
        let plan = FaultPlan::new().inject(1.., Fault::Disconnect);
        let (agent_side, _pump) = connect_chaotic(Arc::clone(&rt), plan).unwrap();
        assert!(agent_side.stats().is_ok(), "first call is clean");
        let err = agent_side.stats().unwrap_err();
        assert!(matches!(err, AgentError::Disconnected { .. }), "{err}");
        rt.shutdown();
    }

    #[test]
    fn wrong_response_fault_degenerates_to_error() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("wrong", tiny())).unwrap());
        let plan = FaultPlan::new().inject(0..2, Fault::WrongResponse);
        let (agent_side, _pump) = connect_chaotic(Arc::clone(&rt), plan).unwrap();
        let injected = |err: AgentError| {
            assert!(
                matches!(err, AgentError::Command { ref reason, .. } if reason.contains("injected")),
                "{err}"
            );
        };
        injected(agent_side.stats().unwrap_err());
        injected(
            agent_side
                .command(ThreadCommand::TotalThreads(2))
                .unwrap_err(),
        );
        // The plan's window is over: clean calls again.
        assert!(agent_side.stats().is_ok());
        rt.shutdown();
    }

    #[test]
    fn unexpected_response_variant_is_error_not_panic() {
        // A runtime side that answers every request with the other reply.
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("contrary", tiny())).unwrap());
        let stats = Runtime::stats(&rt);
        let (req, requests) = sync_channel::<(u64, Request)>(1);
        let (replies, resp) = sync_channel(1);
        let contrary = std::thread::spawn(move || {
            while let Ok((seq, request)) = requests.recv() {
                let reply = match request {
                    Request::GetStats => Reply::Done,
                    _ => Reply::Stats(stats.clone()),
                };
                if replies.send((seq, Ok(reply))).is_err() {
                    break;
                }
            }
        });
        let endpoint = AgentSideEndpoint {
            name: "contrary".into(),
            courier: Mutex::new(Some(Courier {
                name: "contrary".into(),
                call_deadline: Duration::from_secs(10),
                req,
                resp,
                next_seq: 0,
                in_flight: None,
            })),
        };
        let handle = supervised(endpoint, Duration::from_secs(10));
        let unexpected = |err: AgentError| {
            assert!(
                matches!(err, AgentError::Command { ref reason, .. } if reason.contains("wrong reply")),
                "{err}"
            );
        };
        unexpected(stats_all(&[&handle], false).pop().unwrap().unwrap_err());
        unexpected(handle.command(ThreadCommand::TotalThreads(2)).unwrap_err());
        // It answered, so it is alive: an application-level error.
        assert_eq!(handle.health(), crate::Health::Healthy);
        drop(handle);
        contrary.join().expect("ends when the courier is dropped");
        rt.shutdown();
    }

    #[test]
    fn error_fault_surfaces_as_command_error() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("err", tiny())).unwrap());
        let plan = FaultPlan::new().inject(0..1, Fault::Error);
        let (agent_side, _pump) = connect_chaotic(Arc::clone(&rt), plan).unwrap();
        let err = agent_side.stats().unwrap_err();
        assert!(matches!(err, AgentError::Command { .. }), "{err}");
        assert!(agent_side.stats().is_ok());
        rt.shutdown();
    }

    #[test]
    fn garbage_fault_regresses_counters() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new("garb", tiny())).unwrap());
        let plan = FaultPlan::new().inject(1..2, Fault::Garbage);
        let (agent_side, _pump) = connect_chaotic(Arc::clone(&rt), plan).unwrap();
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
