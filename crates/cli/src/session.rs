//! One telemetry set-up and one export epilogue, for the subcommands that
//! have them (`simulate`, `drift`, `chaos`, `observe`, `top`).
//!
//! A [`Session`] owns the run's hub and whatever the command asked to have
//! installed on it; [`Session::finish`] is the epilogue. What it keeps to
//! itself: which file format a path's extension selects, the order the
//! exports happen in (nothing may record between the `--metrics` file and
//! the first `--serve` scrape), the server's life cycle, and the wording and
//! order of the "written to" lines.

use crate::args::{Exports, OutputFormat};
use crate::{CliError, Result};
use coop_telemetry::{FlightRecorder, SloEngine, SloSpec, TelemetryHub, TenantLedger};
use std::sync::Arc;

pub(crate) struct Session {
    hub: Arc<TelemetryHub>,
    tenants: Option<(Arc<TenantLedger>, Arc<SloEngine>)>,
    recorder: Option<Arc<FlightRecorder>>,
}

/// What [`Session::finish`] did, for the report printed after it.
#[derive(Default)]
pub(crate) struct Finished {
    /// `--flight-dir`: dumps the recorder has written so far.
    pub(crate) flight_dumps: Option<u64>,
    /// `--dump`: the snapshot file.
    pub(crate) dump_path: Option<std::path::PathBuf>,
    /// `--serve`: the address the server was bound to.
    pub(crate) served: Option<String>,
    /// One "... written to ..." line per export made, in export order.
    pub(crate) footer: String,
}

/// Writes a hub's metrics to `path`: `.json` gets the structured summary,
/// anything else the Prometheus text exposition.
pub(crate) fn write_metrics_file(path: &str, hub: &TelemetryHub) -> Result<()> {
    let body = if path.ends_with(".json") {
        hub.summary_json()
    } else {
        hub.registry().to_prometheus()
    };
    write_file("metrics", path, body)
}

fn write_file(what: &str, path: &str, body: String) -> Result<()> {
    std::fs::write(path, body)
        .map_err(|e| CliError::failure(format!("cannot write {what} '{path}': {e}")))
}

impl Session {
    /// A fresh hub. `--flight-dir` / `--dump` put a flight recorder dumping
    /// into that directory on it (the supervision machine and the watchdog
    /// trigger it by themselves); a non-empty `slos` puts a tenant ledger
    /// and an SLO engine over those objectives on it.
    pub(crate) fn new(x: &Exports, slos: Vec<SloSpec>) -> Result<Session> {
        let hub = Arc::new(TelemetryHub::new());
        let flight = x.flight_dir.as_deref().map(|d| ("flight", d));
        let recorder = match flight.or(x.dump.as_deref().map(|d| ("dump", d))) {
            Some((what, dir)) => {
                std::fs::create_dir_all(dir).map_err(|e| {
                    CliError::failure(format!("cannot create {what} dir '{dir}': {e}"))
                })?;
                let rec = Arc::new(FlightRecorder::new(coop_telemetry::DEFAULT_FLIGHT_CAPACITY));
                rec.set_dump_dir(dir);
                hub.install_flight_recorder(Arc::clone(&rec));
                Some(rec)
            }
            None => None,
        };
        let tenants = (!slos.is_empty()).then(|| {
            let ledger = Arc::new(TenantLedger::new());
            hub.install_tenant_ledger(Arc::clone(&ledger));
            let slo = Arc::new(SloEngine::new(slos));
            hub.install_slo_engine(Arc::clone(&slo));
            (ledger, slo)
        });
        Ok(Session {
            hub,
            tenants,
            recorder,
        })
    }

    pub(crate) fn hub(&self) -> Arc<TelemetryHub> {
        Arc::clone(&self.hub)
    }

    /// The ledger and SLO engine of a session built with objectives.
    pub(crate) fn tenants(&self) -> (&TenantLedger, &SloEngine) {
        let (ledger, slo) = self
            .tenants
            .as_ref()
            .expect("this command built its session with SLO specs");
        (ledger, slo)
    }

    /// The ledger at a glance, as `chaos` and `observe` print it.
    pub(crate) fn tenants_line(&self) -> String {
        let snap = self.tenants().0.snapshot();
        let (tenants, jain) = (snap.tenants.len(), snap.jain);
        format!("tenants: {tenants} accounted, jain {jain:.3}\n")
    }

    /// The epilogue: `--trace-out`, `--metrics`, `--slo-report`, the
    /// recorder (`--flight-dir` count / `--dump` snapshot), then `--serve`;
    /// stdout is the hub's Prometheus exposition under `--format prom` and
    /// `report`'s otherwise.
    pub(crate) fn finish(
        &self,
        x: &Exports,
        format: OutputFormat,
        report: impl FnOnce(&Finished) -> Result<String>,
    ) -> Result<String> {
        let mut done = Finished::default();
        if let Some(path) = &x.trace_out {
            write_file("trace", path, self.hub.to_perfetto_json())?;
            done.footer += &format!("trace written to {path}\n");
        }
        if let Some(path) = &x.metrics {
            write_metrics_file(path, &self.hub)?;
            done.footer += &format!("metrics written to {path}\n");
        }
        if let Some(path) = &x.slo_report {
            write_file("SLO report", path, self.tenants().1.to_json())?;
        }
        if let (Some(dir), Some(rec)) = (&x.flight_dir, &self.recorder) {
            let n = rec.dumps();
            done.flight_dumps = Some(n);
            done.footer += &format!("flight recorder: {n} dump(s) in {dir}\n");
        } else if let Some(rec) = &self.recorder {
            // `--dump` is `observe`'s; the reason is the file-name prefix.
            done.dump_path = rec.trigger_dump("observe-cli");
            if let Some(p) = &done.dump_path {
                done.footer += &format!("flight recorder dumped to {}\n", p.display());
            }
        }
        // With `--serve-max-requests N` the server exits by itself after N
        // requests (deterministic for CI smoke tests); otherwise it serves
        // until killed.
        if let Some(addr) = &x.serve {
            let limit = (x.serve_max_requests > 0).then_some(x.serve_max_requests);
            let server = coop_telemetry::serve_with_limit(self.hub(), addr, limit)
                .map_err(|e| CliError::failure(format!("cannot serve on '{addr}': {e}")))?;
            let bound = server.addr();
            eprintln!(
                "serving telemetry on http://{bound} \
                 (/metrics /healthz /trace/recent /summary /tenants /slo){}",
                match limit {
                    Some(n) => format!(", exiting after {n} request(s)"),
                    None => ", ctrl-c to stop".to_string(),
                }
            );
            server.join();
            done.footer += &format!("served telemetry on http://{bound}\n");
            done.served = Some(bound.to_string());
        }
        if format == OutputFormat::Prom {
            return Ok(self.hub.registry().to_prometheus());
        }
        report(&done)
    }
}
