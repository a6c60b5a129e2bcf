//! `coopbench`: the control-loop benchmark.
//!
//! Two ways to run it:
//!
//! * `coopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!   runs one workload and prints one JSON object as its last line: the
//!   end-to-end metrics (`--trace 0`, tracing off) or the per-layer table
//!   (`--trace 1`: a traced run of the workload plus the layer probes).
//! * `coopbench [--seed <n>] [--seconds <s>] [--sets <k>] [--smoke]` runs
//!   all five workloads that way, each in a process of its own, untraced and
//!   then traced, and prints every metric by name with its unit; `--sets 2`
//!   does it twice, alternating workload order, and prints how well the
//!   sets agree.

mod checks;
mod gen;
mod layers;
mod measure;
mod report;
mod trace;
mod workloads;

use measure::{cpu_seconds, max, median, min, peak_rss_mb, pin_to_one_cpu, tail, timed};
use report::{Metric, Run, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::{Depth, Tracer};
use workloads::{Meter, Workload};

/// Set-ups per run; the reported set-up time is the fastest (see
/// [`run_plain`] for why not the median).
const SETUPS: usize = 9;

struct Args {
    workload: Option<String>,
    seed: u64,
    /// Measured seconds per workload; 10 unless given (1 with `--smoke`).
    seconds: Option<f64>,
    trace: bool,
    sets: usize,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        sets: 1,
        smoke: false,
        // `cargo run` exports the package directory; a bare binary writes
        // next to where it is started.
        out: std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| PathBuf::from("out"), |d| PathBuf::from(d).join("out")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workloads::info(&value).ok_or_else(|| bad("a workload name"))?;
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("between 0 and 600 seconds"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--sets" => {
                args.sets = value.parse().map_err(|_| bad("a whole number"))?;
                if !(1..=8).contains(&args.sets) {
                    return Err(bad("between 1 and 8"));
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 1.0 } else { 10.0 })
    }
}

fn set_up(name: &str, seed: u64, smoke: bool) -> (f64, Box<dyn Workload>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            Workload::finish(previous, &mut Meter::default());
        }
        let (s, w) = timed(|| workloads::setup(name, seed, smoke));
        times.push(s);
        kept = Some(w);
    }
    (min(&times), kept.expect("at least one set-up ran"))
}

/// Every timed end-to-end metric is the best round of the run. The host is
/// shared: neighbours steal 5-10% of the CPU in bursts, and the median round
/// of a ten-second run swings by a third from one run to the next, while its
/// fastest round — the one the neighbours left alone — repeats within a few
/// percent. Rounds of one workload all do the same amount of work.
fn run_plain(info: &workloads::Info, seed: u64, seconds: f64, smoke: bool) -> Run {
    pin_to_one_cpu();
    let (setup_s, mut workload) = set_up(info.name, seed, smoke);
    let mut meter = Meter::default();
    let mut tracer = Tracer::new(Depth::Off);
    let budget = Duration::from_secs_f64(seconds);
    let mut round_rates = Vec::new();
    let mut round_cpu_us = Vec::new();
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while t0.elapsed() < budget {
        let ops_before = meter.ops;
        let cpu_before = cpu_seconds();
        let t = Instant::now();
        workload.round(rounds, &mut meter, &mut tracer);
        let wall_s = t.elapsed().as_secs_f64();
        let ops = (meter.ops - ops_before).max(1) as f64;
        round_rates.push(ops / wall_s);
        round_cpu_us.push((cpu_seconds() - cpu_before) * 1e6 / ops);
        rounds += 1;
    }
    workload.finish(&mut meter);

    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", max(&round_rates), "1/s"),
        Metric::new("op_us_p50", min(&meter.op_us), "us"),
        Metric::new("cpu_us_per_op", min(&round_cpu_us), "us"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    // Not gated, because they do not repeat within a tenth on this host:
    // the median and the highest percentile with ten samples beyond it.
    let samples = if meter.single_op_us.is_empty() {
        &meter.op_us
    } else {
        &meter.single_op_us
    };
    let (percentile, tail_us) = tail(samples);
    eprintln!(
        "{}: {rounds} rounds, {} ops; op_us over {} samples: median {:.3}, p{percentile} {tail_us:.3}",
        info.name,
        meter.ops,
        samples.len(),
        median(samples),
    );
    Run {
        attempted: meter.ops.max(1),
        failed: meter.failed,
        metrics,
        notes: meter.notes,
    }
}

/// A traced run of one workload: rounds alternate between root-only and
/// full tracing on the same inputs, so the difference is the tracing cost.
fn run_traced(info: &workloads::Info, seed: u64, seconds: f64, smoke: bool, out: &Path) -> Run {
    let name = info.name;
    pin_to_one_cpu();
    let mut workload = workloads::setup(name, seed, smoke);
    let mut meter = Meter::default();
    let mut roots = Tracer::new(Depth::Roots);
    let mut full = Tracer::new(Depth::Full);
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while t0.elapsed() < budget || rounds < 2 {
        // Alternate which depth goes first, so drift hits both alike.
        if rounds.is_multiple_of(2) {
            workload.round(rounds, &mut meter, &mut roots);
            workload.round(rounds, &mut meter, &mut full);
        } else {
            workload.round(rounds, &mut meter, &mut full);
            workload.round(rounds, &mut meter, &mut roots);
        }
        rounds += 1;
    }
    workload.finish(&mut meter);

    let root_ns = |t: &Tracer| -> f64 {
        t.spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64)
            .sum()
    };
    let (plain_ns, traced_ns) = (root_ns(&roots), root_ns(&full));
    let mut metrics = vec![Metric::new(
        "trace.overhead_pct",
        100.0 * (traced_ns - plain_ns) / plain_ns,
        "%",
    )];
    metrics.push(Metric::new(
        "trace.replay_coverage_pct",
        100.0 * full.root_coverage(),
        "%",
    ));
    let self_ns = full.self_ns_by_layer();
    let accounted: u64 = self_ns.values().sum();
    // Self times add up to the rounds' spans unless a replay ran longer
    // than the call it replays.
    metrics.push(Metric::new(
        "trace.self_sum_pct",
        100.0 * accounted as f64 / traced_ns,
        "%",
    ));
    for layer in report::LAYERS.iter().chain(["harness"].iter()) {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        metrics.push(Metric::new(
            &format!("trace.self_pct.{layer}"),
            100.0 * ns as f64 / accounted.max(1) as f64,
            "%",
        ));
    }
    metrics.push(Metric::new(
        "trace.spans",
        full.spans().len() as f64,
        "count",
    ));

    let mut notes = meter.notes;
    let path = out.join(format!("trace-{name}.json"));
    let written =
        std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, full.to_json(name)));
    if let Err(e) = written {
        notes.push(format!("could not write {}: {e}", path.display()));
    }
    Run {
        attempted: meter.ops.max(1),
        failed: meter.failed,
        metrics,
        notes,
    }
}

/// The driver's entry: one workload, one JSON line.
fn drive(args: &Args, info: &workloads::Info) -> ExitCode {
    let (anchors, broken) = checks::anchors();
    let mut run = if args.trace {
        // The probes first: the traced run confines the process to one CPU.
        let table = layers::suite(args.seed, args.smoke);
        let mut run = run_traced(info, args.seed, args.seconds(), args.smoke, &args.out);
        run.metrics.splice(0..0, table.metrics);
        run.attempted += table.failures.len() as u64;
        run.failed += table.failures.len() as u64;
        run.notes.extend(table.failures);
        run
    } else {
        run_plain(info, args.seed, args.seconds(), args.smoke)
    };
    run.attempted += anchors;
    run.failed += broken.len() as u64;
    run.notes.extend(broken);
    for note in &run.notes {
        eprintln!("FAILED: {note}");
    }
    let correct = run.failed == 0 && run.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        report::result_json(correct, run.attempted, run.failed, &run.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One full set, for the agreement report: `(workload, metric)` -> value.
/// The layer table is filed under the workload name `layers`.
struct Set {
    values: BTreeMap<(String, String), Metric>,
    failed: u64,
}

/// Runs one workload in a process of its own, exactly as the driver does,
/// and reads its result line back. `None` if it printed no result.
fn run_child(args: &Args, name: &str, seconds: f64, trace: bool) -> Option<Run> {
    let exe = std::env::current_exe().ok()?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        child.arg("--smoke");
    }
    // The child's stderr (round counts, failed checks) goes straight through.
    let output = child.stderr(Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    report::parse_result(stdout.lines().last()?)
}

fn run_set(args: &Args, set: usize) -> Set {
    let mut order: Vec<&workloads::Info> = workloads::ALL.iter().collect();
    if set % 2 == 1 {
        order.reverse();
    }
    let mut values = BTreeMap::new();
    let mut failed = 0u64;
    let mut record = |workload: &str, m: Metric| {
        values.insert((workload.to_string(), m.name.clone()), m);
    };

    println!(
        "\n== set {} of {}: end-to-end metrics (tracing off) ==",
        set + 1,
        args.sets
    );
    for info in &order {
        println!("{} (op = one {})\n  why: {}", info.name, info.op, info.why);
        let Some(run) = run_child(args, info.name, args.seconds(), false) else {
            println!("  FAILED: the run printed no result");
            failed += 1;
            continue;
        };
        failed += run.failed;
        let share = run.failed as f64 / run.attempted as f64;
        for m in run
            .metrics
            .into_iter()
            .chain([Metric::new("ops_failed_share", share, "share")])
        {
            println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            record(info.name, m);
        }
    }

    println!("\n== set {}: traced runs ==", set + 1);
    let mut table: Option<Vec<Metric>> = None;
    for info in &order {
        println!("{}", info.name);
        let Some(run) = run_child(args, info.name, args.seconds() / 2.0, true) else {
            println!("  FAILED: the run printed no result");
            failed += 1;
            continue;
        };
        failed += run.failed;
        let (trace, layers): (Vec<Metric>, Vec<Metric>) = run
            .metrics
            .into_iter()
            .partition(|m| m.name.starts_with("trace."));
        for m in trace {
            println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            record(info.name, m);
        }
        // Every traced run carries the layer table; its exact entries must
        // not depend on which workload was traced alongside.
        match &table {
            None => table = Some(layers),
            Some(first) => {
                for (a, b) in first.iter().zip(&layers) {
                    if a.is_exact() && a.value.to_bits() != b.value.to_bits() {
                        println!("  FAILED: {} differs from the first traced run", a.name);
                        failed += 1;
                    }
                }
            }
        }
    }

    println!("\n== set {}: per-layer table ==", set + 1);
    for m in table.unwrap_or_default() {
        println!(
            "  {:<40} {:>18.6} {}{}",
            m.name,
            m.value,
            m.unit,
            if m.is_exact() { "  (exact)" } else { "" }
        );
        record("layers", m);
    }
    Set { values, failed }
}

fn full_report(args: &Args) -> ExitCode {
    report::print_header(args.seed, args.seconds(), args.smoke);
    let sets: Vec<Set> = (0..args.sets).map(|s| run_set(args, s)).collect();
    let mut failed = sets.iter().map(|s| s.failed).sum::<u64>();
    if let [first, second, ..] = sets.as_slice() {
        failed += report::print_agreement(&first.values, &second.values);
    }
    if args.smoke {
        println!("\nsmoke: true -- shrunk inputs; this output is not a measurement");
    }
    println!("\noutput checks failed: {failed}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("coopbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_deref().and_then(workloads::info) {
        Some(info) => drive(&args, info),
        None => full_report(&args),
    }
}
