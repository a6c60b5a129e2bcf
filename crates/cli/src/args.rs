//! Argument parsing (plain `std`, no external parser).
//!
//! argv is lexed once (`Flags::lex`) into positionals and `(flag, value)`
//! entries. Each subcommand is a plain struct whose `take` constructor
//! removes the flags it owns from that bag, and whatever is left afterwards
//! is a usage error naming the flag and the subcommand — so a flag's scope
//! *is* the constructor that asks for it. The structs hold checked values
//! only (every cross-field rule runs in `take`), which is why their fields
//! are not writable from outside the crate. What each flag means is said
//! once, in [`USAGE`].

use crate::{CliError, Result};
use memsim::EngineKind;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand and its arguments.
    pub command: Command,
    /// Requested stdout format (`--format text|json|prom`; `--json` is an
    /// alias for `--format json`), one the subcommand can print.
    pub format: OutputFormat,
}

/// Stdout format (`--format text|json|prom`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable text (default).
    #[default]
    Text,
    /// Structured JSON.
    Json,
    /// Prometheus text exposition of the run's telemetry hub.
    Prom,
}

impl OutputFormat {
    /// Parses a `--format` value.
    pub(crate) fn parse(s: &str) -> Result<OutputFormat> {
        match s {
            "text" => Ok(OutputFormat::Text),
            "json" => Ok(OutputFormat::Json),
            "prom" => Ok(OutputFormat::Prom),
            other => Err(CliError::usage(format!(
                "unknown --format '{other}' (text|json|prom)"
            ))),
        }
    }

    /// The `--format` spelling.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            OutputFormat::Text => "text",
            OutputFormat::Json => "json",
            OutputFormat::Prom => "prom",
        }
    }
}

/// Application placement, as written on the command line.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PlacementArg {
    /// `local`
    #[default]
    Local,
    /// `nodeK`
    Node(usize),
    /// `spread`
    Spread,
}

/// One `--app name:placement:ai` argument.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AppArg {
    /// Application name.
    pub name: String,
    /// Placement.
    pub placement: PlacementArg,
    /// Arithmetic intensity (FLOP/byte).
    pub ai: f64,
}

/// One `--perturb node:factor[:at_s]` argument for `coop-cli drift`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbArg {
    /// Node whose bandwidth changes.
    pub node: usize,
    /// Multiplier on the node's nominal bandwidth.
    pub factor: f64,
    /// Simulated time the change takes effect, seconds (default 0).
    pub at_s: f64,
}

/// Search method for `coop-cli search`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMethod {
    /// Greedy constructive (default).
    #[default]
    Greedy,
    /// Exhaustive over uniform allocations.
    Exhaustive,
    /// Hill climbing.
    Hill,
    /// Simulated annealing.
    Anneal,
}

impl SearchMethod {
    fn parse(s: &str) -> Result<SearchMethod> {
        match s {
            "greedy" => Ok(SearchMethod::Greedy),
            "exhaustive" => Ok(SearchMethod::Exhaustive),
            "hill" => Ok(SearchMethod::Hill),
            "anneal" => Ok(SearchMethod::Anneal),
            m => Err(CliError::usage(format!(
                "unknown --method '{m}' (greedy|exhaustive|hill|anneal)"
            ))),
        }
    }

    /// The `--method` spelling (also the `method` metric label).
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            SearchMethod::Greedy => "greedy",
            SearchMethod::Exhaustive => "exhaustive",
            SearchMethod::Hill => "hill",
            SearchMethod::Anneal => "anneal",
        }
    }
}

/// Subcommands; see [`USAGE`] for what each one and each of its flags does.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `detect`
    Detect,
    /// `machines`
    Machines,
    /// `show`
    Show(ShowArgs),
    /// `solve`
    Solve(SolveArgs),
    /// `search`
    Search(SearchArgs),
    /// `sweep`
    Sweep(SweepArgs),
    /// `pareto`
    Pareto(ParetoArgs),
    /// `simulate`
    Simulate(SimulateArgs),
    /// `observe`
    Observe(ObserveArgs),
    /// `trace`
    Trace(TraceArgs),
    /// `drift`
    Drift(DriftArgs),
    /// `chaos`
    Chaos(ChaosArgs),
    /// `top`
    Top(TopArgs),
    /// `help`
    Help,
}

/// Where a run's telemetry goes once the run is over: each field is the
/// flag of the same name, set only by the subcommands whose `take` asks for
/// it. `Session` installs what they need and `Session::finish` acts on them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Exports {
    pub(crate) metrics: Option<String>,
    pub(crate) trace_out: Option<String>,
    pub(crate) slo_report: Option<String>,
    pub(crate) flight_dir: Option<String>,
    pub(crate) dump: Option<String>,
    pub(crate) serve: Option<String>,
    pub(crate) serve_max_requests: u64,
}

/// Declares a subcommand's arguments once: the plain struct, and the `take`
/// constructor that fills each field from the getter written beside it —
/// in the order written, so that is also the order usage errors are met in —
/// and then holds the finished value to its cross-field rules, if any.
macro_rules! subcommand {
    (
        $(#[$meta:meta])*
        $name:ident($f:ident) { $($field:ident: $ty:ty = $get:expr,)* }
        $(rules |$x:ident| $rules:block)?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $(pub(crate) $field: $ty,)*
        }

        impl $name {
            fn take($f: &mut Flags) -> Self {
                let taken = $name { $($field: $get,)* };
                $(let $x = &taken; $rules)?
                taken
            }
        }
    };
}

subcommand! {
    /// `show` arguments.
    ShowArgs(f) {
        machine: String = f.machine(),
    }
}

subcommand! {
    /// `solve` arguments; `counts` has one entry per app.
    SolveArgs(f) {
        counts: Vec<usize> = f.required("--counts", parse_counts),
        apps: Vec<AppArg> = f.apps(),
        machine: String = f.machine(),
        explain: bool = f.switch("--explain"),
    }
    rules |x| {
        let (counts, apps) = (x.counts.len(), x.apps.len());
        f.check(counts == apps, format!("--counts has {counts} entries for {apps} apps"));
    }
}

subcommand! {
    /// `search` arguments; `threads` is at least 1.
    SearchArgs(f) {
        machine: String = f.machine(),
        apps: Vec<AppArg> = f.apps(),
        method: SearchMethod = f.values("--method", SearchMethod::parse).pop().unwrap_or_default(),
        keep_alive: bool = f.switch("--keep-alive"),
        seed: u64 = f.parsed("--seed", "u64").unwrap_or(0),
        threads: usize = {
            let n = f.parsed("--threads", "usize").unwrap_or(1);
            f.check(n > 0, "--threads must be at least 1");
            n
        },
        metrics: Option<String> = f.string("--metrics"),
    }
}

subcommand! {
    /// `sweep` arguments: exactly one app.
    SweepArgs(f) {
        machine: String = f.machine(),
        app: AppArg = {
            let mut apps = f.apps();
            f.check(apps.len() <= 1, "sweep takes exactly one --app");
            apps.pop().unwrap_or_default()
        },
    }
}

subcommand! {
    /// `pareto` arguments.
    ParetoArgs(f) {
        machine: String = f.machine(),
        apps: Vec<AppArg> = f.apps(),
    }
}

subcommand! {
    /// `simulate` arguments; `scenario` is set unless `write_template` is.
    /// `faults` stay as typed until the command runs.
    SimulateArgs(f) {
        scenario: Option<String> = f.string("--scenario"),
        write_template: bool = f.switch("--write-template"),
        faults: Vec<String> = f.strings("--fault"),
        no_reclaim: bool = f.switch("--no-reclaim"),
        engine: EngineKind = f.engine(),
        export: Exports = Exports {
            metrics: f.string("--metrics"),
            ..Exports::default()
        },
    }
    rules |x| {
        let input = x.write_template || x.scenario.is_some();
        f.check(input, "simulate needs --scenario <file> or --write-template");
    }
}

subcommand! {
    /// `observe` arguments.
    ObserveArgs(f) {
        machine: String = f.machine_or_tiny(),
        iterations: usize = f.parsed("--iterations", "usize").unwrap_or(30),
        export: Exports = Exports {
            trace_out: f.string("--trace-out"),
            metrics: f.string("--metrics"),
            dump: f.string("--dump"),
            ..f.serve()
        },
    }
}

subcommand! {
    /// `trace` arguments; `query` is the task id or name substring.
    TraceArgs(f) {
        query: String = {
            let query = f.positional();
            f.check(query.is_some(), "trace needs a task id or name substring");
            query.unwrap_or_default()
        },
        from: Option<String> = f.string("--from"),
        machine: String = f.machine_or_tiny(),
        iterations: usize = f.parsed("--iterations", "usize").unwrap_or(30),
    }
}

subcommand! {
    /// `drift` arguments.
    DriftArgs(f) {
        scenario: Option<String> = f.string("--scenario"),
        perturbations: Vec<PerturbArg> = f.values("--perturb", parse_perturb),
        decision_period_s: f64 = f.float("--decision-period", "seconds").unwrap_or(0.01),
        duration_s: f64 = f.float("--duration", "seconds").unwrap_or(0.2),
        ewma_alpha: f64 = f.float("--ewma", "0..1").unwrap_or(0.3),
        cusum_k: f64 = f.float("--cusum-k", "f64").unwrap_or(0.05),
        cusum_h: f64 = f.float("--cusum-h", "f64").unwrap_or(0.5),
        reoptimize: bool = f.switch("--reoptimize"),
        engine: EngineKind = f.engine(),
        export: Exports = Exports {
            trace_out: f.string("--trace-out"),
            metrics: f.string("--metrics"),
            ..Exports::default()
        },
    }
}

subcommand! {
    /// `chaos` arguments. `faults` stay as typed for the agent's fault-rule
    /// parser.
    ChaosArgs(f) {
        machine: String = f.machine_or_tiny(),
        runtimes: usize = f.parsed("--runtimes", "usize").unwrap_or(3),
        ticks: u64 = f.parsed("--ticks", "u64").unwrap_or(12),
        tick_interval_ms: u64 = f.parsed("--tick-interval", "milliseconds").unwrap_or(10),
        kill_at: u64 = f.parsed("--kill-at", "tick index").unwrap_or(2),
        revive_at: Option<u64> = f.parsed("--revive-at", "tick index"),
        deadline_ms: u64 = f.parsed("--deadline", "milliseconds").unwrap_or(50),
        faults: Vec<String> = f.strings("--fault"),
        runaway: Option<(usize, u64)> = f.values("--runaway", parse_runaway).pop(),
        export: Exports = Exports {
            trace_out: f.string("--trace-out"),
            metrics: f.string("--metrics"),
            flight_dir: f.string("--flight-dir"),
            slo_report: f.string("--slo-report"),
            ..Exports::default()
        },
    }
    rules |x| {
        f.check(x.runtimes >= 2, "chaos needs --runtimes >= 2");
        f.check(x.ticks > 0, "--ticks must be at least 1");
        f.check(x.kill_at < x.ticks, "--kill-at must be before --ticks");
        f.check(
            x.revive_at.is_none_or(|r| r > x.kill_at && r < x.ticks),
            "--revive-at must fall after --kill-at and before --ticks",
        );
        if let Some((app, at)) = x.runaway {
            let n = x.runtimes;
            f.check(app < n, format!("--runaway targets app{app} but there are only {n} runtimes"));
            f.check(at < x.ticks, "--runaway tick must be before --ticks");
        }
    }
}

subcommand! {
    /// `top` arguments. `outages` stay as typed until the command runs.
    TopArgs(f) {
        machine: String = f.machine_or_tiny(),
        duration_s: f64 = f.float("--duration", "seconds").unwrap_or(0.2),
        decision_period_s: f64 = f.float("--decision-period", "seconds").unwrap_or(0.01),
        outages: Vec<String> = f.strings("--outage"),
        export: Exports = f.serve(),
    }
    rules |x| {
        let positive = x.duration_s > 0.0 && x.decision_period_s > 0.0;
        f.check(positive, "top needs positive --duration and --decision-period");
    }
}

/// Usage text: the one description of every subcommand and flag. A flag is
/// accepted by exactly the subcommands whose block lists it (the tests hold
/// the blocks to what the parser takes).
pub const USAGE: &str = "\
coop-cli — NUMA-aware core allocation toolkit

USAGE:
  coop-cli <COMMAND> [OPTIONS]

A flag is accepted only by the commands that list it below; any other flag,
or a --format the command cannot print, is a usage error (exit 2).

COMMANDS:
  detect  [--format text|json]
                               show the host topology (Linux sysfs; falls back to 1 node)
  machines                     list preset machines
  show    --machine <M> [--format text|json]
                               print a machine description (JSON either way)
  solve   --machine <M> --app <SPEC>... --counts <a,b,..> [--explain]
          [--format text|json]
                               score a uniform per-node allocation with the model
  search  --machine <M> --app <SPEC>... [--method greedy|exhaustive|hill|anneal]
          [--keep-alive] [--seed N] [--threads N] [--metrics <PATH>]
          [--format text|json]
                               find a good allocation; --threads fans the
                               exhaustive scan out across workers (result is
                               bit-identical at any thread count) and races
                               a multi-seed portfolio for hill/anneal
  sweep   --machine <M> --app <SPEC> [--format text|json]
                               thread-scaling curve for one application
  pareto  --machine <M> --app <SPEC>... [--format text|json]
                               throughput/fairness Pareto frontier
  simulate --scenario <FILE> | --write-template  [--metrics <PATH>]
          [--fault <app:down_at_s[:up_at_s]>...] [--no-reclaim]
          [--engine slice|event] [--format text|json|prom]
                               run (or emit a template for) a declarative
                               memsim scenario; --fault kills an app
                               mid-run (and optionally revives it), with
                               its cores fair-shared among the survivors
                               unless --no-reclaim; --engine picks the
                               time-sliced or discrete-event simulator
                               core (default event; see docs/performance.md)
  observe [--machine <M>] [--iterations N] [--trace-out <PATH>] [--metrics <PATH>]
          [--serve <ADDR> [--serve-max-requests N]] [--dump <DIR>]
          [--format text|json|prom]
                               run the Figure-1 producer-consumer pipeline
                               with an agent and the memory simulator on one
                               telemetry hub; export the merged trace/metrics;
                               --serve exposes /metrics, /healthz,
                               /trace/recent, /summary, /tenants and /slo
                               over HTTP after the run (until killed, or for
                               N requests); --dump writes a flight-recorder
                               snapshot of recent events into DIR
  trace   <TASK> [--from <DUMP>] [--machine <M>] [--iterations N]
          [--format text|json]
                               reconstruct the causal span chain
                               (spawn -> release -> enqueue -> steal ->
                               start -> finish) for a task and print its
                               critical path with per-hop wall time and
                               cross-node attribution; TASK is a task id
                               (7 or task7) or a name substring; --from
                               reads a flight-recorder dump instead of
                               running a fresh traced pipeline
  drift   [--scenario <FILE>] [--perturb <node:factor[:at_s]>...]
          [--decision-period S] [--duration S] [--reoptimize]
          [--ewma A] [--cusum-k K] [--cusum-h H]
          [--trace-out <PATH>] [--metrics <PATH>] [--engine slice|event]
          [--format text|json|prom]
                               run a scenario under model supervision: the
                               analytic model predicts each decision tick,
                               the simulator measures it (optionally on a
                               perturbed machine), and the drift detector
                               reports residuals and alarms; --reoptimize
                               lets the agent's model-guided policy decide
                               the allocation, as the agent does; --engine
                               picks the simulator core for each tick
  chaos   [--machine <M>] [--runtimes N] [--ticks N] [--tick-interval MS]
          [--kill-at T] [--revive-at T] [--deadline MS]
          [--fault <kind[=millis][@from[..until]][~prob]>...]
          [--runaway <app[:tick]>]
          [--trace-out <PATH>] [--metrics <PATH>] [--flight-dir <DIR>]
          [--slo-report <PATH>] [--format text|json|prom]
                               run live runtimes under a supervised agent,
                               kill app0 mid-run, and report detection,
                               eviction, core reclamation, and recovery;
                               --fault injects extra protocol faults
                               (delay|hang|error|disconnect|garbage|
                               wrong-response) into app0's handle;
                               --flight-dir installs a black-box flight
                               recorder that dumps recent events into DIR
                               whenever the supervisor marks a runtime
                               Suspected or Dead; --slo-report writes the
                               victim's SLO burn-rate report as JSON;
                               --runaway wedges a spinning task into
                               runtime appN at the given tick (default 1)
                               so the fuel/watchdog machinery preempts,
                               contains, and books it
  top     [--machine <M>] [--duration S] [--decision-period S]
          [--outage <app:down_at_s[:up_at_s]>...]
          [--serve <ADDR> [--serve-max-requests N]] [--format text|json|prom]
                               run a supervised two-tenant simulation with
                               per-tenant accounting and print the resource
                               ledger (tasks, CPU time per node, delivered
                               vs entitled share, locality, Jain index)
                               plus the SLO burn-rate report; --outage
                               kills an app mid-run (cores fair-shared to
                               the survivor) and optionally revives it;
                               --serve exposes /tenants and /slo over HTTP
                               after the run; --format json prints exactly
                               what /tenants serves
  help                         this text

OUTPUT:
  prom is the Prometheus exposition of the run's telemetry hub, and
  --json is short for --format json. --metrics writes that hub to PATH
  (.json -> summary JSON, otherwise Prometheus text); --trace-out writes
  its merged Perfetto/Chrome trace.

APP SPEC:   name:placement:ai      placement = local | node<K> | spread
MACHINE:    preset name (paper-model, paper-crossnode, paper-skylake,
            dual-socket, knl, tiny, host) or a path to machine JSON
";

/// Field `what` of a colon-separated `flag` value.
pub(crate) fn field<T: std::str::FromStr>(
    flag: &str,
    spec: &str,
    what: &str,
    text: &str,
) -> Result<T> {
    text.parse()
        .map_err(|_| CliError::usage(format!("bad {what} '{text}' in {flag} '{spec}'")))
}

/// The colon-separated parts of a `flag` value, `min..=max` of them.
pub(crate) fn parts<'a>(
    flag: &str,
    spec: &'a str,
    shape: &str,
    count: std::ops::RangeInclusive<usize>,
) -> Result<Vec<&'a str>> {
    let parts: Vec<&str> = spec.split(':').collect();
    if !count.contains(&parts.len()) {
        return Err(CliError::usage(format!(
            "bad {flag} '{spec}': expected {shape}"
        )));
    }
    Ok(parts)
}

fn parse_app(spec: &str) -> Result<AppArg> {
    let parts = parts("--app", spec, "name:placement:ai", 3..=3)?;
    let placement = match parts[1] {
        "local" => PlacementArg::Local,
        "spread" => PlacementArg::Spread,
        p if p.starts_with("node") => PlacementArg::Node(
            p[4..]
                .parse()
                .map_err(|_| CliError::usage(format!("bad placement '{p}' in --app '{spec}'")))?,
        ),
        p => {
            return Err(CliError::usage(format!(
                "unknown placement '{p}' in --app '{spec}' (use local, nodeK, or spread)"
            )))
        }
    };
    Ok(AppArg {
        name: parts[0].to_string(),
        placement,
        ai: field("--app", spec, "AI", parts[2])?,
    })
}

fn parse_perturb(spec: &str) -> Result<PerturbArg> {
    let parts = parts("--perturb", spec, "node:factor[:at_s]", 2..=3)?;
    Ok(PerturbArg {
        node: field("--perturb", spec, "node", parts[0])?,
        factor: field("--perturb", spec, "factor", parts[1])?,
        at_s: match parts.get(2) {
            Some(t) => field("--perturb", spec, "at_s", t)?,
            None => 0.0,
        },
    })
}

fn parse_runaway(spec: &str) -> Result<(usize, u64)> {
    let parts = parts("--runaway", spec, "app[:tick]", 1..=2)?;
    // Accept both `1` and the runtime's name form `app1`.
    let app = parts[0].strip_prefix("app").unwrap_or(parts[0]);
    let app = app
        .parse()
        .map_err(|_| CliError::usage(format!("bad app '{}' in --runaway '{spec}'", parts[0])))?;
    let tick = match parts.get(1) {
        Some(t) => field("--runaway", spec, "tick", t)?,
        None => 1,
    };
    Ok((app, tick))
}

fn parse_counts(spec: &str) -> Result<Vec<usize>> {
    spec.split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .map_err(|_| CliError::usage(format!("bad --counts entry '{t}'")))
        })
        .collect()
}

/// One `--flag [value]` of argv.
struct Entry {
    /// Index of the flag token in argv.
    at: usize,
    flag: String,
    /// The token after the flag, unless that is itself a `--flag`.
    value: Option<String>,
}

/// argv after lexing, shrinking as a subcommand's `take` removes what it
/// owns. Neither the getters nor `take` fail: a missing or malformed value
/// and a broken cross-field rule are kept in `error` and reported by
/// [`done`](Flags::done), after any flag nobody asked for — a misspelt flag
/// is named before the "required" error it causes.
struct Flags {
    /// The subcommand, once `parse` has read it.
    command: String,
    entries: Vec<Entry>,
    /// Non-flag tokens with their argv index, in argv order.
    positionals: Vec<(usize, String)>,
    /// The first usage error met.
    error: Option<CliError>,
    /// Every flag a getter asked for (the scope tests read ownership here).
    #[cfg(test)]
    asked: Vec<&'static str>,
}

impl Flags {
    /// A `--token` is a flag and takes the next token as its value unless
    /// that is a `--token` too; everything else is a positional.
    fn lex(argv: &[String]) -> Flags {
        let mut entries = Vec::new();
        let mut positionals = Vec::new();
        let mut tokens = argv.iter().enumerate().peekable();
        while let Some((at, token)) = tokens.next() {
            if token.starts_with("--") {
                let value = tokens
                    .next_if(|(_, next)| !next.starts_with("--"))
                    .map(|(_, next)| next.clone());
                entries.push(Entry {
                    at,
                    flag: token.clone(),
                    value,
                });
            } else {
                positionals.push((at, token.clone()));
            }
        }
        Flags {
            command: String::new(),
            entries,
            positionals,
            error: None,
            #[cfg(test)]
            asked: Vec::new(),
        }
    }

    /// Records a usage error unless `ok`; the first one recorded is kept.
    fn check(&mut self, ok: bool, message: impl Into<String>) {
        if !ok && self.error.is_none() {
            self.error = Some(CliError::usage(message));
        }
    }

    /// Removes every `flag` entry, in argv order.
    fn remove(&mut self, flag: &'static str) -> Vec<Entry> {
        #[cfg(test)]
        self.asked.push(flag);
        let (taken, rest) = std::mem::take(&mut self.entries)
            .into_iter()
            .partition(|e| e.flag == flag);
        self.entries = rest;
        taken
    }

    /// A flag without a value. The token lexed as its value goes back among
    /// the positionals (`--json solve ...`).
    fn switch(&mut self, flag: &'static str) -> bool {
        let taken = self.remove(flag);
        for e in &taken {
            if let Some(v) = &e.value {
                self.positionals.push((e.at + 1, v.clone()));
            }
        }
        self.positionals.sort_by_key(|p| p.0);
        !taken.is_empty()
    }

    /// Every value of `flag` in argv order, each through `parse`.
    fn values<T>(&mut self, flag: &'static str, parse: impl Fn(&str) -> Result<T>) -> Vec<T> {
        let mut out = Vec::new();
        for e in self.remove(flag) {
            let parsed = match &e.value {
                Some(v) => parse(v),
                None => Err(CliError::usage(format!("{flag} requires a value"))),
            };
            match parsed {
                Ok(v) => out.push(v),
                Err(err) => self.check(false, err.message),
            }
        }
        out
    }

    fn strings(&mut self, flag: &'static str) -> Vec<String> {
        self.values(flag, |v| Ok(v.to_string()))
    }

    /// The last `flag` given wins.
    fn string(&mut self, flag: &'static str) -> Option<String> {
        self.strings(flag).pop()
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &'static str, expected: &str) -> Option<T> {
        let bad = || CliError::usage(format!("bad {flag} (expected {expected})"));
        self.values(flag, |v| v.parse().map_err(|_| bad())).pop()
    }

    /// A finite `f64` (`inf` and `nan` parse as floats but are no duration
    /// or threshold).
    fn float(&mut self, flag: &'static str, expected: &str) -> Option<f64> {
        let bad = || CliError::usage(format!("bad {flag} (expected {expected})"));
        let finite = |v: &str| v.parse().ok().filter(|x: &f64| x.is_finite());
        self.values(flag, |v| finite(v).ok_or_else(bad)).pop()
    }

    /// The last `flag` given, which must be given.
    fn required<T: Default>(&mut self, flag: &'static str, parse: impl Fn(&str) -> Result<T>) -> T {
        let value = self.values(flag, parse).pop();
        self.check(value.is_some(), format!("{flag} is required"));
        value.unwrap_or_default()
    }

    fn machine(&mut self) -> String {
        self.required("--machine", |v| Ok(v.to_string()))
    }

    fn machine_or_tiny(&mut self) -> String {
        self.string("--machine").unwrap_or_else(|| "tiny".into())
    }

    fn apps(&mut self) -> Vec<AppArg> {
        let apps = self.values("--app", parse_app);
        self.check(!apps.is_empty(), "at least one --app is required");
        apps
    }

    fn engine(&mut self) -> EngineKind {
        let parse = |v: &str| {
            let unknown = || CliError::usage(format!("unknown --engine '{v}' (slice|event)"));
            EngineKind::parse(v).ok_or_else(unknown)
        };
        self.values("--engine", parse).pop().unwrap_or_default()
    }

    fn serve(&mut self) -> Exports {
        Exports {
            serve: self.string("--serve"),
            serve_max_requests: self.parsed("--serve-max-requests", "u64").unwrap_or(0),
            ..Exports::default()
        }
    }

    /// The next positional, if any.
    fn positional(&mut self) -> Option<String> {
        (!self.positionals.is_empty()).then(|| self.positionals.remove(0).1)
    }

    /// Called once the subcommand has taken everything it owns: a flag
    /// still here belongs to another subcommand or to none.
    fn done(&mut self) -> Result<()> {
        let command = &self.command;
        if let Some(e) = self.entries.first() {
            return Err(CliError::usage(format!(
                "unknown flag '{}' for '{command}'",
                e.flag
            )));
        }
        if let Some((_, p)) = self.positionals.first() {
            return Err(CliError::usage(format!(
                "unexpected argument '{p}' for '{command}'"
            )));
        }
        self.error.take().map_or(Ok(()), Err)
    }
}

/// Parses argv (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Cli> {
    parse(&mut Flags::lex(argv))
}

fn parse(f: &mut Flags) -> Result<Cli> {
    use OutputFormat::{Json, Prom, Text};
    let json = f.switch("--json");
    let format = f.values("--format", OutputFormat::parse).pop();
    f.command = f.positional().unwrap_or_else(|| "help".to_string());
    // Each subcommand beside the formats it can print.
    let (command, formats): (Command, &[OutputFormat]) = match f.command.as_str() {
        "help" | "-h" => (Command::Help, &[Text]),
        "machines" => (Command::Machines, &[Text]),
        "detect" => (Command::Detect, &[Text, Json]),
        "show" => (Command::Show(ShowArgs::take(f)), &[Text, Json]),
        "solve" => (Command::Solve(SolveArgs::take(f)), &[Text, Json]),
        "search" => (Command::Search(SearchArgs::take(f)), &[Text, Json]),
        "sweep" => (Command::Sweep(SweepArgs::take(f)), &[Text, Json]),
        "pareto" => (Command::Pareto(ParetoArgs::take(f)), &[Text, Json]),
        "trace" => (Command::Trace(TraceArgs::take(f)), &[Text, Json]),
        "simulate" => (
            Command::Simulate(SimulateArgs::take(f)),
            &[Text, Json, Prom],
        ),
        "observe" => (Command::Observe(ObserveArgs::take(f)), &[Text, Json, Prom]),
        "drift" => (Command::Drift(DriftArgs::take(f)), &[Text, Json, Prom]),
        "chaos" => (Command::Chaos(ChaosArgs::take(f)), &[Text, Json, Prom]),
        "top" => (Command::Top(TopArgs::take(f)), &[Text, Json, Prom]),
        cmd => return Err(CliError::usage(format!("unknown command '{cmd}'"))),
    };
    // `--json` is an alias for `--format json`; an explicit `--format`
    // wins when both appear.
    let format = format.unwrap_or(if json { Json } else { Text });
    let can: Vec<&str> = formats.iter().map(OutputFormat::as_str).collect();
    let (name, can) = (format.as_str(), can.join("|"));
    let refused = format!("'{}' cannot print --format {name} ({can})", f.command);
    f.check(formats.contains(&format), refused);
    f.done()?;
    Ok(Cli { command, format })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_solve() {
        let cli = parse_args(&argv(
            "solve --machine paper-model --app mem:local:0.5 --app comp:local:10 --counts 2,2",
        ))
        .unwrap();
        match cli.command {
            Command::Solve(SolveArgs {
                machine,
                apps,
                counts,
                ..
            }) => {
                assert_eq!(machine, "paper-model");
                assert_eq!(apps.len(), 2);
                assert_eq!(apps[0].name, "mem");
                assert_eq!(apps[0].placement, PlacementArg::Local);
                assert!((apps[1].ai - 10.0).abs() < 1e-12);
                assert_eq!(counts, vec![2, 2]);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert_ne!(cli.format, OutputFormat::Json);
    }

    #[test]
    fn parses_search_with_options() {
        let cli = parse_args(&argv(
            "search --machine tiny --app a:node1:0.25 --method anneal --keep-alive --seed 7 \
             --threads 4 --json",
        ))
        .unwrap();
        assert_eq!(cli.format, OutputFormat::Json);
        match cli.command {
            Command::Search(SearchArgs {
                apps,
                method,
                keep_alive,
                seed,
                threads,
                ..
            }) => {
                assert_eq!(apps[0].placement, PlacementArg::Node(1));
                assert_eq!(method, SearchMethod::Anneal);
                assert!(keep_alive);
                assert_eq!(seed, 7);
                assert_eq!(threads, 4);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Threads default to 1 and must be positive.
        let cli = parse_args(&argv("search --machine tiny --app a:local:1")).unwrap();
        match cli.command {
            Command::Search(SearchArgs { threads, .. }) => assert_eq!(threads, 1),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&argv("search --machine tiny --app a:local:1 --threads 0")).is_err());
        assert!(parse_args(&argv("search --machine tiny --app a:local:1 --threads x")).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_args(&argv("solve --machine m --app bad --counts 1")).is_err());
        assert!(parse_args(&argv("solve --machine m --app a:local:x --counts 1")).is_err());
        assert!(parse_args(&argv("solve --machine m --app a:mars:1 --counts 1")).is_err());
        assert!(parse_args(&argv("solve --app a:local:1 --counts 1")).is_err());
        assert!(parse_args(&argv("solve --machine m --app a:local:1 --counts 1,2")).is_err());
        assert!(parse_args(&argv("bogus")).is_err());
        assert!(parse_args(&argv("search --machine m")).is_err());
        assert!(parse_args(&argv("sweep --machine m --app a:local:1 --app b:local:1")).is_err());
        assert!(parse_args(&argv(
            "solve --machine m --app a:local:1 --counts 1 --method warp"
        ))
        .is_err());
    }

    #[test]
    fn empty_argv_is_help() {
        assert_eq!(parse_args(&[]).unwrap().command, Command::Help);
        assert_eq!(parse_args(&argv("help")).unwrap().command, Command::Help);
    }

    #[test]
    fn parses_observe_with_defaults_and_overrides() {
        let cli = parse_args(&argv("observe")).unwrap();
        match cli.command {
            Command::Observe(ObserveArgs {
                machine,
                iterations,
                export:
                    Exports {
                        trace_out,
                        metrics,
                        serve,
                        serve_max_requests,
                        dump,
                        ..
                    },
            }) => {
                assert_eq!(machine, "tiny");
                assert_eq!(iterations, 30);
                assert_eq!(trace_out, None);
                assert_eq!(metrics, None);
                assert_eq!(serve, None);
                assert_eq!(serve_max_requests, 0);
                assert_eq!(dump, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse_args(&argv(
            "observe --machine dual-socket --iterations 5 --trace-out /tmp/t.json --metrics /tmp/m.prom",
        ))
        .unwrap();
        match cli.command {
            Command::Observe(ObserveArgs {
                machine,
                iterations,
                export: Exports {
                    trace_out, metrics, ..
                },
                ..
            }) => {
                assert_eq!(machine, "dual-socket");
                assert_eq!(iterations, 5);
                assert_eq!(trace_out.as_deref(), Some("/tmp/t.json"));
                assert_eq!(metrics.as_deref(), Some("/tmp/m.prom"));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&argv("observe --iterations bogus")).is_err());
    }

    #[test]
    fn parses_observe_serve_and_dump_flags() {
        let cli = parse_args(&argv(
            "observe --serve 127.0.0.1:9464 --serve-max-requests 3 --dump /tmp/flight",
        ))
        .unwrap();
        match cli.command {
            Command::Observe(ObserveArgs {
                export:
                    Exports {
                        serve,
                        serve_max_requests,
                        dump,
                        ..
                    },
                ..
            }) => {
                assert_eq!(serve.as_deref(), Some("127.0.0.1:9464"));
                assert_eq!(serve_max_requests, 3);
                assert_eq!(dump.as_deref(), Some("/tmp/flight"));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&argv("observe --serve")).is_err());
        assert!(parse_args(&argv("observe --serve-max-requests nope")).is_err());
    }

    #[test]
    fn parses_trace_command() {
        let cli = parse_args(&argv("trace task7")).unwrap();
        match cli.command {
            Command::Trace(TraceArgs {
                query,
                from,
                machine,
                iterations,
            }) => {
                assert_eq!(query, "task7");
                assert_eq!(from, None);
                assert_eq!(machine, "tiny");
                assert_eq!(iterations, 30);
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse_args(&argv(
            "trace stage --from /tmp/flight-dump.json --machine dual-socket --iterations 4",
        ))
        .unwrap();
        match cli.command {
            Command::Trace(TraceArgs {
                query,
                from,
                machine,
                iterations,
            }) => {
                assert_eq!(query, "stage");
                assert_eq!(from.as_deref(), Some("/tmp/flight-dump.json"));
                assert_eq!(machine, "dual-socket");
                assert_eq!(iterations, 4);
            }
            other => panic!("wrong command {other:?}"),
        }
        // The task query is mandatory.
        assert!(parse_args(&argv("trace")).is_err());
    }

    #[test]
    fn chaos_collects_flight_dir() {
        let cli = parse_args(&argv("chaos --flight-dir /tmp/blackbox")).unwrap();
        match cli.command {
            Command::Chaos(ChaosArgs {
                export: Exports { flight_dir, .. },
                ..
            }) => {
                assert_eq!(flight_dir.as_deref(), Some("/tmp/blackbox"))
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse_args(&argv("chaos")).unwrap();
        match cli.command {
            Command::Chaos(ChaosArgs {
                export: Exports { flight_dir, .. },
                ..
            }) => assert_eq!(flight_dir, None),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn metrics_flag_attaches_to_search_and_simulate() {
        let cli = parse_args(&argv(
            "search --machine tiny --app a:local:1 --metrics m.json",
        ))
        .unwrap();
        match cli.command {
            Command::Search(SearchArgs { metrics, .. }) => {
                assert_eq!(metrics.as_deref(), Some("m.json"))
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse_args(&argv("simulate --write-template --metrics m.prom")).unwrap();
        match cli.command {
            Command::Simulate(SimulateArgs {
                export: Exports { metrics, .. },
                ..
            }) => assert_eq!(metrics.as_deref(), Some("m.prom")),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_format_flag_and_json_alias() {
        let cli = parse_args(&argv("observe --format prom")).unwrap();
        assert_eq!(cli.format, OutputFormat::Prom);
        assert_ne!(cli.format, OutputFormat::Json);

        let cli = parse_args(&argv("observe --format json")).unwrap();
        assert_eq!(cli.format, OutputFormat::Json);

        let cli = parse_args(&argv("observe --json")).unwrap();
        assert_eq!(cli.format, OutputFormat::Json);

        // Explicit --format beats the --json alias.
        let cli = parse_args(&argv("observe --json --format prom")).unwrap();
        assert_eq!(cli.format, OutputFormat::Prom);
        assert_ne!(cli.format, OutputFormat::Json);

        assert!(parse_args(&argv("observe --format yaml")).is_err());
    }

    #[test]
    fn parses_drift_command() {
        let cli = parse_args(&argv(
            "drift --perturb 0:0.5:0.1 --perturb 1:0.8 --decision-period 0.02 \
             --duration 0.3 --ewma 0.4 --cusum-k 0.1 --cusum-h 0.8 --format json",
        ))
        .unwrap();
        match cli.command {
            Command::Drift(DriftArgs {
                scenario,
                perturbations,
                decision_period_s,
                duration_s,
                ewma_alpha,
                cusum_k,
                cusum_h,
                reoptimize,
                ..
            }) => {
                assert_eq!(scenario, None);
                assert!(!reoptimize, "reoptimize is opt-in");
                assert_eq!(
                    perturbations,
                    vec![
                        PerturbArg {
                            node: 0,
                            factor: 0.5,
                            at_s: 0.1
                        },
                        PerturbArg {
                            node: 1,
                            factor: 0.8,
                            at_s: 0.0
                        },
                    ]
                );
                assert!((decision_period_s - 0.02).abs() < 1e-12);
                assert!((duration_s - 0.3).abs() < 1e-12);
                assert!((ewma_alpha - 0.4).abs() < 1e-12);
                assert!((cusum_k - 0.1).abs() < 1e-12);
                assert!((cusum_h - 0.8).abs() < 1e-12);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&argv("drift --perturb bogus")).is_err());
        assert!(parse_args(&argv("drift --perturb 0:x")).is_err());
        assert!(parse_args(&argv("drift --duration nope")).is_err());

        let cli = parse_args(&argv("drift --reoptimize")).unwrap();
        match cli.command {
            Command::Drift(DriftArgs { reoptimize, .. }) => assert!(reoptimize),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_chaos_with_defaults_and_overrides() {
        let cli = parse_args(&argv("chaos")).unwrap();
        match cli.command {
            Command::Chaos(ChaosArgs {
                machine,
                runtimes,
                ticks,
                tick_interval_ms,
                kill_at,
                revive_at,
                deadline_ms,
                faults,
                ..
            }) => {
                assert_eq!(machine, "tiny");
                assert_eq!(runtimes, 3);
                assert_eq!(ticks, 12);
                assert_eq!(tick_interval_ms, 10);
                assert_eq!(kill_at, 2);
                assert_eq!(revive_at, None);
                assert_eq!(deadline_ms, 50);
                assert!(faults.is_empty());
            }
            other => panic!("wrong command {other:?}"),
        }

        let cli = parse_args(&argv(
            "chaos --machine dual-socket --runtimes 4 --ticks 20 --tick-interval 5 \
             --kill-at 3 --revive-at 9 --deadline 25 --fault delay=2@0..4 --fault error@5",
        ))
        .unwrap();
        match cli.command {
            Command::Chaos(ChaosArgs {
                machine,
                runtimes,
                ticks,
                kill_at,
                revive_at,
                deadline_ms,
                faults,
                ..
            }) => {
                assert_eq!(machine, "dual-socket");
                assert_eq!(runtimes, 4);
                assert_eq!(ticks, 20);
                assert_eq!(kill_at, 3);
                assert_eq!(revive_at, Some(9));
                assert_eq!(deadline_ms, 25);
                assert_eq!(faults, vec!["delay=2@0..4", "error@5"]);
            }
            other => panic!("wrong command {other:?}"),
        }

        // Kill/revive ordering is validated at parse time.
        assert!(parse_args(&argv("chaos --kill-at 12")).is_err());
        assert!(parse_args(&argv("chaos --kill-at 3 --revive-at 2")).is_err());
        assert!(parse_args(&argv("chaos --ticks 0")).is_err());
        assert!(parse_args(&argv("chaos --runtimes many")).is_err());
    }

    #[test]
    fn parses_top_with_defaults_and_overrides() {
        let cli = parse_args(&argv("top")).unwrap();
        match cli.command {
            Command::Top(TopArgs {
                machine,
                duration_s,
                decision_period_s,
                outages,
                export:
                    Exports {
                        serve,
                        serve_max_requests,
                        ..
                    },
            }) => {
                assert_eq!(machine, "tiny");
                assert!((duration_s - 0.2).abs() < 1e-12);
                assert!((decision_period_s - 0.01).abs() < 1e-12);
                assert!(outages.is_empty());
                assert_eq!(serve, None);
                assert_eq!(serve_max_requests, 0);
            }
            other => panic!("wrong command {other:?}"),
        }

        let cli = parse_args(&argv(
            "top --machine dual-socket --duration 0.1 --decision-period 0.02 \
             --outage 1:0.03:0.07 --serve 127.0.0.1:0 --serve-max-requests 2 --format json",
        ))
        .unwrap();
        assert_eq!(cli.format, OutputFormat::Json);
        match cli.command {
            Command::Top(TopArgs {
                machine,
                duration_s,
                outages,
                export:
                    Exports {
                        serve,
                        serve_max_requests,
                        ..
                    },
                ..
            }) => {
                assert_eq!(machine, "dual-socket");
                assert!((duration_s - 0.1).abs() < 1e-12);
                assert_eq!(outages, vec!["1:0.03:0.07"]);
                assert_eq!(serve.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(serve_max_requests, 2);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&argv("top --outage")).is_err());
    }

    #[test]
    fn chaos_collects_slo_report_path() {
        let cli = parse_args(&argv("chaos --slo-report /tmp/slo.json")).unwrap();
        match cli.command {
            Command::Chaos(ChaosArgs {
                export: Exports { slo_report, .. },
                ..
            }) => {
                assert_eq!(slo_report.as_deref(), Some("/tmp/slo.json"))
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse_args(&argv("chaos")).unwrap();
        match cli.command {
            Command::Chaos(ChaosArgs {
                export: Exports { slo_report, .. },
                ..
            }) => assert_eq!(slo_report, None),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn chaos_parses_runaway_flag() {
        let cli = parse_args(&argv("chaos --runaway 1:4")).unwrap();
        match cli.command {
            Command::Chaos(ChaosArgs { runaway, .. }) => assert_eq!(runaway, Some((1, 4))),
            other => panic!("wrong command {other:?}"),
        }
        // `appN` name form and the default tick.
        let cli = parse_args(&argv("chaos --runaway app2")).unwrap();
        match cli.command {
            Command::Chaos(ChaosArgs { runaway, .. }) => assert_eq!(runaway, Some((2, 1))),
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse_args(&argv("chaos")).unwrap();
        match cli.command {
            Command::Chaos(ChaosArgs { runaway, .. }) => assert_eq!(runaway, None),
            other => panic!("wrong command {other:?}"),
        }
        // Out-of-range app or tick is rejected at parse time.
        assert!(parse_args(&argv("chaos --runaway 9")).is_err());
        assert!(parse_args(&argv("chaos --runaway 1:99")).is_err());
        assert!(parse_args(&argv("chaos --runaway bogus:x")).is_err());
    }

    #[test]
    fn simulate_collects_fault_flags() {
        let cli = parse_args(&argv(
            "simulate --scenario s.json --fault 1:0.05 --fault 0:0.02:0.08 --no-reclaim",
        ))
        .unwrap();
        match cli.command {
            Command::Simulate(SimulateArgs {
                faults, no_reclaim, ..
            }) => {
                assert_eq!(faults, vec!["1:0.05", "0:0.02:0.08"]);
                assert!(no_reclaim);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn engine_flag_parses_and_defaults_to_event() {
        let cli = parse_args(&argv("simulate --write-template")).unwrap();
        match cli.command {
            Command::Simulate(SimulateArgs { engine, .. }) => assert_eq!(engine, EngineKind::Event),
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse_args(&argv("simulate --write-template --engine slice")).unwrap();
        match cli.command {
            Command::Simulate(SimulateArgs { engine, .. }) => assert_eq!(engine, EngineKind::Slice),
            other => panic!("wrong command {other:?}"),
        }
        // Case-insensitive, and shared by drift; `chaos` runs live runtimes
        // and no simulator, so the flag is not its to take.
        let cli = parse_args(&argv("drift --engine EVENT")).unwrap();
        match cli.command {
            Command::Drift(DriftArgs { engine, .. }) => assert_eq!(engine, EngineKind::Event),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&argv("chaos --engine slice")).is_err());
        assert!(parse_args(&argv("simulate --write-template --engine warp")).is_err());
        assert!(parse_args(&argv("drift --engine")).is_err());
    }

    #[test]
    fn node_placement_parses_index() {
        let app = parse_app("x:node12:0.5").unwrap();
        assert_eq!(app.placement, PlacementArg::Node(12));
        assert!(parse_app("x:node:0.5").is_err());
    }
}

/// A flag's scope is the constructor that asks for it: these tests read
/// ownership from what `take` asked of [`Flags`] on a minimal invocation,
/// and hold the parser and [`USAGE`] to it.
#[cfg(test)]
mod scope_tests {
    use super::*;
    use coop_alloc::cases;
    use std::collections::{BTreeMap, BTreeSet};

    /// Every subcommand beside a smallest invocation that parses.
    const MINIMAL: [(&str, &str); 14] = [
        ("help", "help"),
        ("detect", "detect"),
        ("machines", "machines"),
        ("show", "show --machine tiny"),
        ("solve", "solve --machine tiny --app a:local:1 --counts 1"),
        ("search", "search --machine tiny --app a:local:1"),
        ("sweep", "sweep --machine tiny --app a:local:1"),
        ("pareto", "pareto --machine tiny --app a:local:1"),
        ("simulate", "simulate --write-template"),
        ("observe", "observe"),
        ("trace", "trace task7"),
        ("drift", "drift"),
        ("chaos", "chaos"),
        ("top", "top"),
    ];

    /// The two flags `parse` takes itself, before any subcommand.
    const GLOBAL: [&str; 2] = ["--json", "--format"];

    /// A value `flag` accepts next to any minimal invocation of a
    /// subcommand that owns it; `None` for a switch.
    fn sample(flag: &str) -> Option<&'static str> {
        Some(match flag {
            "--json" | "--keep-alive" | "--explain" | "--write-template" | "--no-reclaim"
            | "--reoptimize" => return None,
            "--machine" => "tiny",
            "--app" => "a:local:1",
            "--counts" => "1",
            "--method" => "hill",
            "--engine" => "event",
            "--format" => "json",
            "--perturb" => "0:0.5:0.1",
            "--fault" | "--outage" => "1:0.03:0.07",
            "--runaway" => "1:4",
            "--serve" => "127.0.0.1:0",
            "--decision-period" => "0.02",
            "--duration" | "--cusum-k" => "0.1",
            "--ewma" => "0.4",
            "--cusum-h" => "0.8",
            "--ticks" => "20",
            "--revive-at" => "9",
            "--deadline" => "25",
            "--seed"
            | "--threads"
            | "--iterations"
            | "--runtimes"
            | "--tick-interval"
            | "--kill-at"
            | "--serve-max-requests" => "3",
            "--metrics" | "--trace-out" | "--scenario" | "--dump" | "--from" | "--flight-dir"
            | "--slo-report" => "some/path",
            other => panic!("no sample value for {other}"),
        })
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// The flags the subcommand's constructor asked for, `GLOBAL` aside.
    fn owned(minimal: &str) -> BTreeSet<&'static str> {
        let mut flags = Flags::lex(&argv(minimal));
        parse(&mut flags).unwrap_or_else(|e| panic!("'{minimal}' must parse: {e}"));
        let asked = flags.asked.into_iter();
        asked.filter(|f| !GLOBAL.contains(f)).collect()
    }

    fn all_flags() -> BTreeSet<&'static str> {
        let owned = MINIMAL.iter().flat_map(|(_, minimal)| owned(minimal));
        owned.chain(GLOBAL).collect()
    }

    #[test]
    fn a_flag_parses_only_under_the_subcommands_that_own_it() {
        let all = all_flags();
        assert_eq!(all.len(), 39, "{all:?}");
        for (name, minimal) in MINIMAL {
            let owned = owned(minimal);
            for flag in all.iter().filter(|f| !GLOBAL.contains(f)) {
                let given = format!("{minimal} {flag} {}", sample(flag).unwrap_or_default());
                let parsed = parse_args(&argv(&given));
                if owned.contains(flag) {
                    // A second `--app` would need a second `--counts` entry.
                    if !minimal.contains(flag) {
                        assert!(parsed.is_ok(), "'{given}': {parsed:?}");
                    }
                    continue;
                }
                let err = parsed.expect_err(&given);
                assert_eq!(err.code, 2, "'{given}': {err}");
                assert!(
                    err.message.contains(&format!("'{flag}'"))
                        && err.message.contains(&format!("'{name}'")),
                    "'{given}' must name the flag and the subcommand: {err}"
                );
            }
        }
    }

    /// The `COMMANDS:` part of `USAGE`, split at the lines that start a
    /// subcommand (two spaces, then its name).
    fn usage_blocks() -> BTreeMap<String, String> {
        let commands = USAGE
            .split("COMMANDS:\n")
            .nth(1)
            .expect("a COMMANDS section");
        let commands = commands
            .split("\nOUTPUT:")
            .next()
            .expect("an OUTPUT section");
        let mut blocks: BTreeMap<String, String> = BTreeMap::new();
        let mut current = String::new();
        for line in commands.lines() {
            if line.starts_with("  ") && !line.starts_with("   ") {
                current = line.split_whitespace().next().expect("a name").to_string();
            }
            *blocks.entry(current.clone()).or_default() += &format!("{line}\n");
        }
        blocks
    }

    #[test]
    fn usage_lists_exactly_what_each_subcommand_takes() {
        let blocks = usage_blocks();
        let names: Vec<&str> = blocks.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = MINIMAL.iter().map(|(name, _)| *name).collect();
        expected.sort_unstable();
        assert_eq!(names, expected);

        for (name, minimal) in MINIMAL {
            let block = &blocks[name];
            let listed: BTreeSet<&str> = block
                .match_indices("--")
                .map(|(at, _)| {
                    let rest = &block[at..];
                    let end = rest[2..].find(|c: char| c != '-' && !c.is_ascii_lowercase());
                    &rest[..end.map_or(rest.len(), |e| e + 2)]
                })
                .filter(|f| !GLOBAL.contains(f))
                .collect();
            assert_eq!(listed, owned(minimal), "USAGE block of '{name}'");

            // `[--format a|b|c]` in the block is what the subcommand prints;
            // no such line means text only.
            let printable = match block.split("--format ").nth(1) {
                Some(rest) => rest.split(']').next().expect("a closing bracket"),
                None => "text",
            };
            for format in ["text", "json", "prom"] {
                let given = format!("{minimal} --format {format}");
                let parsed = parse_args(&argv(&given));
                if printable.split('|').any(|f| f == format) {
                    assert!(parsed.is_ok(), "'{given}': {parsed:?}");
                    continue;
                }
                let err = parsed.expect_err(&given);
                assert_eq!(err.code, 2, "'{given}': {err}");
                assert!(
                    err.message.contains(format) && err.message.contains(&format!("'{name}'")),
                    "'{given}' must name the format and the subcommand: {err}"
                );
            }
        }
    }

    #[test]
    fn a_misspelt_flag_is_named_before_the_error_it_causes() {
        let err = parse_args(&argv(
            "solve --verbos --machine tiny --app a:local:1 --counts 1",
        ))
        .unwrap_err();
        assert!(err.message.contains("'--verbos'"), "{err}");
        // Here `--machin` swallowed the machine, so `--machine` is missing too.
        let err = parse_args(&argv("solve --machin tiny --app a:local:1 --counts 1")).unwrap_err();
        assert!(err.message.contains("'--machin'"), "{err}");
        // A switch gives the token after it back: the subcommand is found,
        // and a stray word is an error rather than silently dropped.
        assert!(parse_args(&argv(
            "--json solve --machine tiny --app a:local:1 --counts 1"
        ))
        .is_ok());
        let err = parse_args(&argv("machines extra")).unwrap_err();
        assert!(err.message.contains("'extra'"), "{err}");
        // `inf` parses as a float; it is not a duration.
        for hostile in ["inf", "nan", "1e999"] {
            assert!(parse_args(&argv(&format!("top --duration {hostile}"))).is_err());
        }
    }

    #[test]
    fn mutated_argv_is_parsed_or_refused_never_a_panic() {
        const BASES: [&str; 10] = [
            "solve --machine tiny --app a:local:1 --app b:spread:2 --counts 1,2 --explain",
            "search --machine tiny --app a:node1:0.25 --method anneal --keep-alive --seed 7 \
             --threads 4 --metrics m.json --json",
            "sweep --machine paper-model --app mem:local:0.5 --format json",
            "simulate --scenario s.json --fault 1:0.05 --no-reclaim --engine event \
             --metrics m.prom --format prom",
            "observe --machine dual-socket --iterations 5 --trace-out t.json \
             --serve 127.0.0.1:0 --serve-max-requests 3 --dump d",
            "trace stage --from flight.json --machine tiny --iterations 4",
            "drift --perturb 0:0.5:0.1 --decision-period 0.02 --duration 0.3 --ewma 0.4 \
             --cusum-k 0.1 --cusum-h 0.8 --reoptimize --engine event --format json",
            "chaos --runtimes 4 --ticks 20 --tick-interval 5 --kill-at 3 --revive-at 9 \
             --deadline 25 --fault delay=2@0..4 --runaway 1:4 --flight-dir d --slo-report s",
            "top --duration 0.1 --decision-period 0.02 --outage 1:0.03:0.07 --serve 127.0.0.1:0",
            "pareto --machine tiny --app a:local:0.5 --app b:local:4",
        ];
        let huge = "x".repeat(10_000);
        let hostile = ["", "-1", "1e999", "nan", "18446744073709551616", &huge];
        let flags: Vec<&str> = all_flags().into_iter().collect();

        cases::check(0xc11_a465, 2000, |g| {
            let mut tokens = argv(g.pick::<&str>(&BASES));
            for _ in 0..g.size(1..4) {
                let at = g.range(0..tokens.len().max(1));
                match g.range(0..7u8) {
                    0 if !tokens.is_empty() => drop(tokens.remove(at)),
                    1 if !tokens.is_empty() => tokens.insert(at, tokens[at].clone()),
                    2 if !tokens.is_empty() => {
                        let other = g.range(0..tokens.len());
                        tokens.swap(at, other);
                    }
                    3 => tokens.truncate(at),
                    4 if !tokens.is_empty() => tokens[at] = g.pick(&hostile).to_string(),
                    // A flag as the last token: no value follows it.
                    5 => tokens.push(g.pick(&flags).to_string()),
                    // A misspelt flag directly before a real one.
                    _ => {
                        let misspelt = g.pick(&flags);
                        tokens.insert(at, misspelt[..misspelt.len() - 1].to_string());
                    }
                }
            }
            // Parsing is all that happens: nothing runs until `execute`.
            if let Err(e) = parse_args(&tokens) {
                assert_eq!(e.code, 2, "{tokens:?}: {e}");
                assert!(!e.message.is_empty());
            }
        });
    }
}
