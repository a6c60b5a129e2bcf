//! Metric records, the metric catalogue's fixed parts, and everything the
//! benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// The seed used when none is given, and the one the recorded baseline was
/// taken with.
pub const DEFAULT_SEED: u64 = 20200518;
/// Held out: never used while the benchmark was tuned. A claim made with
/// the default seed must also hold with this one.
pub const HELD_OUT_SEED: u64 = 77003;

/// The layers, by crate.
pub const LAYERS: [&str; 9] = [
    "topology",
    "roofline",
    "core",
    "agent",
    "runtime",
    "memsim",
    "telemetry",
    "workloads",
    "distsim",
];

/// End-to-end metrics with the share by which each may worsen; mirrors
/// `BENCHMARK.json`.
pub const END_TO_END_BOUNDS: [(&str, f64); 5] = [
    ("setup_s", 0.25),
    ("ops_per_s", 0.15),
    ("op_us_p50", 0.15),
    ("cpu_us_per_op", 0.15),
    ("peak_rss_mb", 0.20),
];

/// Metrics that are simulated or counted, not timed: they must repeat bit
/// for bit for a given seed, whatever the host does.
pub const EXACT: [&str; 25] = [
    "roofline.full_solves",
    "roofline.delta_solves",
    "core.hillclimb_evals",
    "core.hillclimb_regret_pct",
    "core.cache_hits",
    "core.cache_misses",
    "core.cache_hit_ratio",
    "agent.commands_issued",
    "agent.poll_errors",
    "agent.evictions",
    "agent.readmissions",
    "agent.evict_to_reclaim_ticks",
    "ctl_chaos.sim_gflops",
    "ctl_chaos.regret_pct",
    "ctl_chaos.reaction_ticks",
    "runtime.tasks_panicked",
    "memsim.events",
    "memsim.segments",
    "memsim.par2_identical",
    "memsim.slice_event_rel_err",
    "memsim.alarms",
    "ctl_paper.sim_gflops",
    "ctl_paper.model_err_pct",
    "fleet_diurnal.sim_gflops",
    "fleet_outages.sim_gflops",
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }

    pub fn is_exact(&self) -> bool {
        EXACT.contains(&self.name.as_str())
    }
}

/// The outcome of one run of one workload.
pub struct Run {
    /// Operations attempted (output checks included) and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One line per failure, as far as they were kept.
    pub notes: Vec<String>,
}

/// Reads back a line written by [`result_json`]. Not a JSON parser: it
/// relies on that function's exact layout.
pub fn parse_result(line: &str) -> Option<Run> {
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(key)? + key.len()..];
        rest.split([',', '}']).next().map(str::trim)
    };
    let attempted = field("\"attempted\": ")?.parse().ok()?;
    let failed = field("\"failed\": ")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = Vec::new();
    for entry in body.split("\"}").filter(|e| e.contains("{\"value\": ")) {
        let (name, rest) = entry
            .trim_start_matches([',', ' '])
            .split_once("\": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        metrics.push(Metric::new(
            name.trim_start_matches('"'),
            value.parse().ok()?,
            unit,
        ));
    }
    Some(Run {
        attempted,
        failed,
        metrics,
        notes: Vec::new(),
    })
}

/// The one JSON object the driver reads from the last line of stdout.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN or infinity; such a run is already marked incorrect.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn print_header(seed: u64, seconds: f64, smoke: bool) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("coopbench: the control-loop benchmark");
    println!("  deps: std stand-ins (benchmarks/shims; numbers say nothing about the real crossbeam/parking_lot/serde_json)");
    println!("  nproc: {nproc}");
    println!("  cpu: {}", cpu_model());
    println!("  rustc: {}", command_line("rustc", &["--version"]));
    println!("  commit: {}", command_line("git", &["rev-parse", "HEAD"]));
    println!("  seed: {seed} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED})");
    println!("  seconds per workload: {seconds}");
    println!("  smoke: {smoke}");
}

/// Prints, per workload and metric, how far two sets of runs are apart.
/// Exact metrics must agree bit for bit; returns how many do not.
pub fn print_agreement(
    first: &BTreeMap<(String, String), Metric>,
    second: &BTreeMap<(String, String), Metric>,
) -> u64 {
    println!("\n== agreement of set 1 and set 2 ==");
    let mut mismatched = 0;
    for (key, a) in first {
        let Some(b) = second.get(key) else { continue };
        let (workload, name) = key;
        if a.is_exact() {
            let same = a.value.to_bits() == b.value.to_bits();
            mismatched += u64::from(!same);
            println!(
                "  {workload:<14} {name:<40} exact  {}",
                if same { "identical" } else { "DIFFERS" }
            );
            continue;
        }
        let base = a.value.abs().max(f64::MIN_POSITIVE);
        let diff = (b.value - a.value).abs() / base;
        let bound = END_TO_END_BOUNDS.iter().find(|(n, _)| n == name);
        match bound {
            Some((_, bound)) => println!(
                "  {workload:<14} {name:<40} {:>8.4} of bound {bound:.2}{}",
                diff,
                if diff > *bound { "  OVER" } else { "" }
            ),
            None => println!("  {workload:<14} {name:<40} {diff:>8.4}"),
        }
    }
    mismatched
}
