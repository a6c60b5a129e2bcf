//! `BENCH_work.json`: exact work counts of workload-shaped runs, which do
//! not depend on the host, the build's code layout or the time of day.
//!
//! Each cell is what a run asked of the allocator, counted by the
//! workspace's counting `#[global_allocator]` (memsim's
//! `tests/counting/mod.rs`): a steady `ctl_paper` decision tick, fixed or
//! re-optimizing, on both engines (calls and bytes); what a `ctl_paper` run
//! pays besides its ticks; one `fleet_outages` run, and its segments; one
//! `fleet_diurnal` run per tenant, and its segments, events and wake-ups;
//! what each fleet run pays besides its segments (calls and bytes); a
//! quiet and a commanding `Agent::tick` over eight runtimes, and one that
//! evicts a runtime and contains another, and the allocator calls and
//! threads of an agent's 240-tick life with a kill and a revive; a
//! `live_squeeze` round's spawn (calls and bytes) and execution, per task,
//! and the calls, bytes and threads of its set-up (two runtimes, an agent,
//! two endpoints). The runs are the budget tests' (memsim's, the
//! agent's and the runtime's `tests/work/mod.rs`), which hold their
//! measurements to these cells. Beside them, the search layer's: the
//! agent's cold search (evaluations and calls), one sequential exhaustive
//! scan (calls), and the agent's exact decision, cold (columns and calls)
//! and reusing its table (calls), run here.
//!
//! The test measures every cell and compares them with the committed file.
//! On any difference it rewrites the file — the cells, the rustc that
//! measured them and the commit their tree was based on (`-dirty` when it
//! had uncommitted changes) — and fails, so a change that moves a cell
//! commits the new file with it. Run it with
//! `cargo test --workspace --test bench_work -- --nocapture`: built for
//! the whole workspace, as the tier-1 `cargo test` is, so both read the
//! same cells.

#[path = "../../agent/tests/work/mod.rs"]
mod agent_work;
#[path = "../../memsim/tests/counting/mod.rs"]
mod counting;
#[path = "../../memsim/tests/fleets/mod.rs"]
mod fleets;
#[path = "../../memsim/tests/work/mod.rs"]
mod memsim_work;
#[path = "../../runtime/tests/work/mod.rs"]
mod runtime_work;

use coop_alloc::search::{ExhaustiveSearch, GreedySearch, ModelOracle};
use coop_alloc::{ColumnTable, Objective, ScoreCache};
use coop_telemetry::json::{self, Value};
use coop_workloads::apps::{model_mix, skylake_mix};
use memsim::EngineKind;
use numa_topology::presets::{paper_model_machine, paper_skylake_machine};
use roofline_numa::AppSpec;
use std::process::Command;
use std::sync::Arc;

/// The first line `program args` prints, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The search layer's cells: the evaluations and allocator calls of the
/// agent's cold search on a coupled mix — one `GreedySearch::run_model` on
/// a fresh `ModelOracle` (thread floor 1, fresh score cache) over the
/// Table III mix on the paper's Skylake — and the allocator calls of one
/// sequential `ExhaustiveSearch::run` over the paper machine's uniform
/// space; then the agent's exact decision on `ctl_chaos`'s shape (eight
/// NUMA-local applications, AI 1/32 to 32, on the paper machine's 4 × 8):
/// the columns and allocator calls of a cold one, which builds its table,
/// and the allocator calls of a live-set change (one application evicted)
/// that reuses it.
fn search() -> [(String, f64); 6] {
    let objective = Objective::TotalGflops;
    let (machine, specs) = (paper_skylake_machine(), skylake_mix());
    let oracle = ModelOracle::new(&machine, &specs, &objective)
        .expect("the Table III mix is valid")
        .with_min_threads(1);
    let cache = Arc::new(ScoreCache::new(oracle.fingerprint()));
    let mut oracle = oracle
        .with_cache(cache)
        .expect("the cache was keyed from the oracle");
    let (cold, cold_cost) =
        counting::cost_of(|| GreedySearch::new().run_model(&machine, &mut oracle));
    let cold = cold.expect("the cold search succeeds");
    let (machine, specs) = (paper_model_machine(), model_mix());
    let (scan, scan_cost) =
        counting::cost_of(|| ExhaustiveSearch::new().run(&machine, &specs, &objective));
    scan.expect("the uniform space is under the limit");
    let chaos: Vec<AppSpec> = (0..8)
        .map(|i| {
            AppSpec::numa_local(
                &format!("app{i}"),
                2f64.powf(f64::from(i) * 10.0 / 7.0 - 5.0),
            )
        })
        .collect();
    let (exact, exact_cost) =
        counting::cost_of(|| ColumnTable::search(&machine, &chaos, &objective));
    let exact = exact.expect("eight local applications fit the exact path");
    let table = ColumnTable::build(&machine, &chaos, &objective).expect("and build its table");
    let survivors: Vec<usize> = (1..8).collect();
    let (reused, reuse_cost) = counting::cost_of(|| table.decide(&survivors));
    reused.expect("the survivors are decided from the same table");
    [
        ("search.cold.evaluations".into(), cold.evaluations as f64),
        ("search.cold.calls".into(), cold_cost.calls as f64),
        ("search.exhaustive.calls".into(), scan_cost.calls as f64),
        ("search.separable.columns".into(), exact.evaluations as f64),
        ("search.separable.calls".into(), exact_cost.calls as f64),
        (
            "search.separable.reuse_calls".into(),
            reuse_cost.calls as f64,
        ),
    ]
}

/// Every cell, in file order.
fn measure() -> Vec<(String, f64)> {
    let mut cells = Vec::new();
    for engine in [EngineKind::Event, EngineKind::Slice] {
        for reoptimize in [true, false] {
            cells.extend(memsim_work::ctl_paper_tick(reoptimize, engine));
        }
    }
    cells.extend(memsim_work::ctl_paper_setup());
    cells.extend(memsim_work::fleet_outages_run());
    cells.extend(memsim_work::fleet_outages_setup());
    cells.extend(memsim_work::fleet_diurnal_run());
    cells.extend(memsim_work::fleet_diurnal_setup());
    cells.push(agent_work::agent_tick(false));
    cells.push(agent_work::agent_tick(true));
    cells.push(agent_work::agent_chaos_tick());
    cells.extend(agent_work::agent_episode());
    cells.extend(runtime_work::live_squeeze());
    cells.extend(runtime_work::live_squeeze_setup());
    cells.extend(search());
    cells
}

/// A whole count as an integer, anything else as a float.
fn cell_value(v: f64) -> Value {
    if v.fract() == 0.0 {
        Value::Int(v as i128)
    } else {
        Value::Float(v)
    }
}

/// One test, so that no other thread of this binary allocates while a run
/// is counted.
#[test]
fn bench_work_json_is_what_the_runs_do() {
    let measured = Value::Object(
        measure()
            .into_iter()
            .map(|(name, v)| (name, cell_value(v)))
            .collect(),
    );
    let committed = std::fs::read_to_string(counting::BENCH_WORK)
        .ok()
        .and_then(|text| json::parse(&text).ok());
    let committed_cells = committed
        .as_ref()
        .map_or(&Value::Null, |file| &file["cells"]);
    if *committed_cells == measured {
        return;
    }

    let mut changes = Vec::new();
    for (name, now) in measured.as_object().expect("cells are an object") {
        let was = &committed_cells[name.as_str()];
        if was != now {
            changes.push(format!("  {name}: {} -> {}", was.write(), now.write()));
        }
    }
    for (name, _) in committed_cells.as_object().unwrap_or_default() {
        if measured.get(name).is_none() {
            changes.push(format!("  {name}: removed"));
        }
    }
    let file = Value::Object(vec![
        (
            "about".into(),
            Value::Str(
                "Exact work counts of workload-shaped runs, written by \
                 `cargo test --workspace --test bench_work`; see that test."
                    .into(),
            ),
        ),
        (
            "commit".into(),
            Value::Str(first_line_of(
                "git",
                &["describe", "--always", "--dirty", "--abbrev=7"],
            )),
        ),
        (
            "rustc".into(),
            Value::Str(first_line_of(
                &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
                &["--version"],
            )),
        ),
        ("cells".into(), measured),
    ]);
    std::fs::write(counting::BENCH_WORK, file.write_pretty() + "\n")
        .expect("BENCH_work.json is writable");
    panic!(
        "BENCH_work.json did not match the runs; rewritten, commit it:\n{}",
        changes.join("\n")
    );
}
