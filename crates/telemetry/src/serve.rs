//! A minimal, dependency-free HTTP/1.1 server exposing the hub live.
//!
//! This is the first wire surface the future coordination daemon will
//! grow from: a plain [`std::net::TcpListener`] accept loop on a
//! background thread serving six read-only routes off the shared
//! [`TelemetryHub`]:
//!
//! | route           | content                                        |
//! |-----------------|------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition (the same exporter behind `--metrics` files) |
//! | `/healthz`      | liveness JSON: uptime, event/drop counts       |
//! | `/trace/recent` | the most recent timeline events, as the Perfetto export writes them |
//! | `/summary`      | the compact [`summary_json`](crate::TelemetryHub::summary_json) report |
//! | `/tenants`      | the installed [`TenantLedger`](crate::TenantLedger)'s canonical JSON (byte-identical to `coop top --format json`) |
//! | `/slo`          | the installed [`SloEngine`](crate::SloEngine)'s burn-rate report |
//!
//! Start it with [`serve`]; dropping the [`TelemetryServer`] stops it.
//! `serve_with_limit` exists for smoke tests and CI: the server exits by
//! itself after answering a fixed number of requests, so `coop observe
//! --serve addr --serve-max-requests N` terminates deterministically.

use crate::accounting::EMPTY_TENANTS_JSON;
use crate::export::{push_event, push_separator};
use crate::json_object;
use crate::slo::EMPTY_SLO_JSON;
use crate::timeline::TelemetryHub;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default number of events `/trace/recent` returns.
pub const RECENT_TRACE_LIMIT: usize = 256;

/// Handle to a running telemetry server.
pub struct TelemetryServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer")
            .field("addr", &self.addr)
            .field("served", &self.served())
            .finish()
    }
}

impl TelemetryServer {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far.
    pub(crate) fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Block until the server exits on its own (only happens when a
    /// request limit was set via [`serve_with_limit`]).
    pub fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The newest `limit` events as their trace-event objects (oldest first),
/// with the buffered and dropped totals.
pub fn recent_events_json(hub: &TelemetryHub, limit: usize) -> String {
    let events = hub.events();
    let skip = events.len().saturating_sub(limit);
    let mut out = String::from("{\"events\":[");
    for event in &events[skip..] {
        push_separator(&mut out);
        push_event(&mut out, event);
    }
    let (total, dropped) = (events.len(), hub.dropped());
    let _ = write!(out, "],\"total\":{total},\"dropped\":{dropped}}}");
    out
}

fn healthz_json(hub: &TelemetryHub) -> String {
    json_object! {
        "status": "ok",
        "uptime_us": hub.now_us(),
        "events": hub.event_count(),
        "dropped": hub.dropped(),
    }
    .write()
}

/// How long one connection may take, from accept to the last byte of the
/// answer. The accept loop serves one connection at a time, so a client
/// that trickles its request or never reads the answer holds the others
/// up this long and no longer.
const CONNECTION_DEADLINE: Duration = Duration::from_secs(2);

/// Time left before `deadline`; `None` once it has passed.
fn time_left(deadline: Instant) -> Option<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
}

/// Writes `answer` until it is sent, the client goes away or the deadline
/// passes.
fn respond(stream: &mut TcpStream, deadline: Instant, answer: &[u8]) {
    let mut rest = answer;
    while !rest.is_empty() {
        let Some(left) = time_left(deadline) else {
            return;
        };
        if stream.set_write_timeout(Some(left)).is_err() {
            return;
        }
        match stream.write(rest) {
            Ok(0) | Err(_) => return,
            Ok(n) => rest = &rest[n..],
        }
    }
}

/// Cap on the bytes read from one request head: well past any GET line
/// plus headers this server understands, and a bound against a client
/// that never sends the terminator.
const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// Read until the HTTP header terminator (`\r\n\r\n`), end of stream,
/// [`MAX_REQUEST_BYTES`] or the deadline. A single `read` is not enough: a
/// client (or the kernel) may deliver the request line in several
/// segments.
fn read_request_head(stream: &mut TcpStream, deadline: Instant) -> Option<Vec<u8>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while let Some(left) = time_left(deadline) {
        if stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                // Only the tail can contain a terminator that spans the
                // previous chunk boundary.
                let start = buf.len().saturating_sub(n + 3);
                if buf[start..].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
                if buf.len() >= MAX_REQUEST_BYTES {
                    break;
                }
            }
            // Timeouts and resets: parse whatever arrived so a short
            // request (e.g. "GET /healthz HTTP/1.0" with no final CRLF)
            // still gets an answer.
            Err(_) => break,
        }
    }
    if buf.is_empty() {
        None
    } else {
        Some(buf)
    }
}

/// The whole HTTP answer to `request`.
fn answer(hub: &TelemetryHub, request: &[u8]) -> String {
    const JSON: &str = "application/json";
    const TEXT: &str = "text/plain; charset=utf-8";
    let request = String::from_utf8_lossy(request);
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);
    let (status, content_type, body) = match path {
        _ if method != "GET" => ("405 Method Not Allowed", TEXT, "GET only\n".to_string()),
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            hub.registry().to_prometheus(),
        ),
        "/healthz" => ("200 OK", JSON, healthz_json(hub)),
        "/trace/recent" => ("200 OK", JSON, recent_events_json(hub, RECENT_TRACE_LIMIT)),
        "/summary" => ("200 OK", JSON, hub.summary_json()),
        "/tenants" => {
            let ledger = hub.tenant_ledger();
            (
                "200 OK",
                JSON,
                ledger.map_or(EMPTY_TENANTS_JSON.into(), |l| l.to_json()),
            )
        }
        "/slo" => {
            let engine = hub.slo_engine();
            (
                "200 OK",
                JSON,
                engine.map_or(EMPTY_SLO_JSON.into(), |e| e.to_json()),
            )
        }
        _ => (
            "404 Not Found",
            TEXT,
            "routes: /metrics /healthz /trace/recent /summary /tenants /slo\n".to_string(),
        ),
    };
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Answers one connection within [`CONNECTION_DEADLINE`].
fn handle_request(hub: &TelemetryHub, stream: &mut TcpStream) {
    let deadline = Instant::now() + CONNECTION_DEADLINE;
    if let Some(request) = read_request_head(stream, deadline) {
        respond(stream, deadline, answer(hub, &request).as_bytes());
    }
}

/// Start serving `hub` on `addr` (e.g. `"127.0.0.1:9464"`, port 0 picks a
/// free port). Runs until the handle is stopped or dropped.
pub fn serve(hub: Arc<TelemetryHub>, addr: &str) -> std::io::Result<TelemetryServer> {
    serve_with_limit(hub, addr, None)
}

/// Like [`serve`], but when `max_requests` is `Some(n)` the accept loop
/// exits by itself after answering `n` requests — a deterministic
/// shutdown for smoke tests and CI.
pub fn serve_with_limit(
    hub: Arc<TelemetryHub>,
    addr: &str,
    max_requests: Option<u64>,
) -> std::io::Result<TelemetryServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let thread_shutdown = Arc::clone(&shutdown);
    let thread_served = Arc::clone(&served);
    let handle = std::thread::Builder::new()
        .name("coop-telemetry-serve".to_string())
        .spawn(move || {
            while !thread_shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        // Requests are tiny and read-only; handling them
                        // inline keeps the server single-threaded and
                        // bounded.
                        let _ = stream.set_nodelay(true);
                        handle_request(&hub, &mut stream);
                        let done = thread_served.fetch_add(1, Ordering::Relaxed) + 1;
                        if let Some(limit) = max_requests {
                            if done >= limit {
                                break;
                            }
                        }
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        })?;
    Ok(TelemetryServer {
        addr: local,
        shutdown,
        served,
        handle: Some(handle),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::ArgValue;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    fn seeded_hub() -> Arc<TelemetryHub> {
        let hub = Arc::new(TelemetryHub::new());
        let track = hub.register_track("runtime:test");
        hub.registry()
            .counter("coop_tasks_completed_total", &[("runtime", "test")])
            .add(5);
        hub.record_span(0, track, 1, "task", "stage1", 10, 120, Vec::new());
        hub.record_instant(
            0,
            track,
            0,
            "trace",
            "spawned",
            vec![("task".to_string(), ArgValue::U64(1))],
        );
        hub
    }

    #[test]
    fn serves_metrics_healthz_trace_and_summary() {
        let hub = seeded_hub();
        let server = serve(Arc::clone(&hub), "127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("coop_tasks_completed_total"));
        assert_eq!(body, hub.registry().to_prometheus());

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        let parsed = crate::json::parse(&body).expect("healthz JSON");
        assert_eq!(parsed["status"], "ok");
        assert_eq!(parsed["events"], 2);

        let (head, body) = get(addr, "/trace/recent");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        let parsed = crate::json::parse(&body).expect("trace JSON");
        let events = parsed["events"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .any(|e| e["name"] == "spawned" && e["args"]["task"] == 1));

        let (head, body) = get(addr, "/summary");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, hub.summary_json());

        let (head, body) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));
        // Satellite: the 404 body lists every known route.
        for route in [
            "/metrics",
            "/healthz",
            "/trace/recent",
            "/summary",
            "/tenants",
            "/slo",
        ] {
            assert!(body.contains(route), "404 body must list {route}: {body}");
        }
        assert!(server.served() >= 5);
        drop(server);
    }

    #[test]
    fn tenants_and_slo_routes_serve_installed_state_or_empty_fallback() {
        use crate::accounting::{TenantLedger, TenantSample};
        use crate::slo::{SloEngine, SloSpec};

        // Uninstalled: both routes answer 200 with an empty body, so
        // `curl -sf` smoke checks never fail on a bare hub.
        let bare = seeded_hub();
        let server = serve(Arc::clone(&bare), "127.0.0.1:0").expect("bind");
        let (head, body) = get(server.addr(), "/tenants");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, super::super::accounting::EMPTY_TENANTS_JSON);
        let (head, body) = get(server.addr(), "/slo");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, super::super::slo::EMPTY_SLO_JSON);
        drop(server);

        // Installed: the routes serve the canonical renderings byte for
        // byte — the same strings `coop top` prints.
        let hub = Arc::new(TelemetryHub::new());
        let ledger = Arc::new(TenantLedger::new());
        assert!(hub.install_tenant_ledger(Arc::clone(&ledger)));
        let engine = Arc::new(SloEngine::new(vec![SloSpec::min_share("a", 0.4)]));
        assert!(hub.install_slo_engine(Arc::clone(&engine)));
        ledger.open_epoch(&hub, "a", "managed", 0);
        ledger.tick(
            &hub,
            10,
            &[TenantSample {
                tenant: "a".to_string(),
                tasks_executed: 5,
                uptime_us: 100,
                per_node_tasks: vec![5],
                running_per_node: vec![1],
                local_pops: 5,
                remote_steals: 0,
                preemptions: 0,
                overbudget_cpu_us: 0,
            }],
        );
        engine.evaluate(&hub, 10);

        let server = serve(Arc::clone(&hub), "127.0.0.1:0").expect("bind");
        let (head, body) = get(server.addr(), "/tenants");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, ledger.to_json());
        let (head, body) = get(server.addr(), "/slo");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, engine.to_json());
        drop(server);
    }

    #[test]
    fn partial_and_short_requests_still_get_answers() {
        // Satellite: the parser must loop until the header terminator
        // instead of trusting one read() to deliver the whole request.
        let hub = seeded_hub();
        let server = serve(Arc::clone(&hub), "127.0.0.1:0").expect("bind");
        let addr = server.addr();

        // Request dribbled in three segments with pauses in between.
        let mut stream = TcpStream::connect(addr).expect("connect");
        for part in ["GET /hea", "lthz HTT", "P/1.1\r\nHost: x\r\n\r\n"] {
            stream.write_all(part.as_bytes()).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(30));
        }
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(
            resp.starts_with("HTTP/1.1 200 OK"),
            "partial writes must still be served: {resp}"
        );
        assert!(resp.contains("\"status\":\"ok\""));

        // A short request with no final CRLF: the client half-closes, so
        // the read loop sees EOF and parses what arrived.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET /healthz HTTP/1.0").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(
            resp.starts_with("HTTP/1.1 200 OK"),
            "short request must still be served: {resp}"
        );
        drop(server);
    }

    #[test]
    fn a_trickling_client_holds_the_loop_for_one_deadline_at_most() {
        let hub = seeded_hub();
        let server = serve(Arc::clone(&hub), "127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        // One byte every 100 ms for up to 20 s, each well inside any
        // per-read timeout: the request head never ends.
        let trickler = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                for _ in 0..200 {
                    if stop.load(Ordering::Relaxed) || stream.write_all(b"a").is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        };
        // The trickler is accepted first.
        std::thread::sleep(Duration::from_millis(200));
        let asked = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        let _ = stream.read_to_string(&mut resp);
        let waited = asked.elapsed();
        stop.store(true, Ordering::Relaxed);
        trickler.join().unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(
            waited < Duration::from_secs(5),
            "/healthz waited {waited:?} behind a trickling client"
        );
        drop(server);
    }

    #[test]
    fn request_limit_shuts_the_server_down() {
        let hub = seeded_hub();
        let server = serve_with_limit(Arc::clone(&hub), "127.0.0.1:0", Some(2)).expect("bind");
        let addr = server.addr();
        let _ = get(addr, "/healthz");
        let _ = get(addr, "/healthz");
        // The accept loop exits on its own; join must not hang.
        server.join();
    }

    #[test]
    fn recent_events_json_caps_at_limit_oldest_dropped() {
        let hub = TelemetryHub::with_config(1, 64);
        let track = hub.register_track("t");
        for i in 0..10u64 {
            hub.record_instant_at(0, track, 0, "trace", &format!("e{i}"), i, Vec::new());
        }
        let out = recent_events_json(&hub, 3);
        let parsed = crate::json::parse(&out).unwrap();
        let names: Vec<&str> = parsed["events"]
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, ["e7", "e8", "e9"]);
        assert_eq!(parsed["total"], 10);
    }
}
