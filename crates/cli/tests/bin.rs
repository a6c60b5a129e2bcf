//! End-to-end tests of the actual `coop-cli` binary (process spawn).

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_coop-cli"))
}

#[test]
fn binary_prints_table_1_total() {
    let out = cli()
        .args([
            "solve",
            "--machine",
            "paper-model",
            "--app",
            "mem1:local:0.5",
            "--app",
            "mem2:local:0.5",
            "--app",
            "mem3:local:0.5",
            "--app",
            "comp:local:10",
            "--counts",
            "1,1,1,5",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("254.00 GFLOPS"), "stdout:\n{stdout}");
}

#[test]
fn binary_usage_error_exits_2() {
    let out = cli().args(["solve"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error:"), "stderr:\n{stderr}");
    assert!(stderr.contains("USAGE"), "usage shown on usage errors");
}

#[test]
fn binary_help_exits_0() {
    let out = cli().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("COMMANDS"));
}

#[test]
fn binary_json_output_parses() {
    let out = cli()
        .args([
            "search",
            "--machine",
            "tiny",
            "--app",
            "a:local:0.5",
            "--app",
            "b:local:4",
            "--keep-alive",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let v = coop_telemetry::json::parse_bytes(&out.stdout).unwrap();
    assert!(v["score_gflops"].as_f64().unwrap() > 0.0);
}

/// FNV-1a (64 bit) of a run's stdout.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every deterministic invocation beside the digest of the stdout it
/// printed at 3d2ee90, before `args.rs` and `commands/` were rewritten (two
/// runs each, byte-identical, debug and release alike). The `simulate`,
/// `drift` and `top --format prom` rows were taken again at the commit that
/// deleted `--sim-threads`: each is its 685ff2c stdout less the thread-count
/// echo (text and JSON member) and the two sharded-engine series, shown byte
/// for byte before the digest was replaced. The two slice-engine `--fault …
/// --format json` rows were taken again when sample midpoints came to be
/// computed from ticks: their 6c06162 stdout with `times_s`' 0.005…02 →
/// 0.005, 0.035 → 0.034…96 and 0.045…05 → 0.045 (last digit of a printed
/// float, four apps each), shown byte-equal likewise. `scenario.json` is
/// `simulate --write-template`'s output in the working directory.
/// The keep-alive exhaustive row was taken again when that scan came to run
/// on the model oracle: its stdout with `0 full` → `28 full` solves (the
/// 17 starved candidates are penalised without one), shown byte-equal.
/// The six `drift … --reoptimize` rows were taken again when the agent's
/// policy came to decide them: each is byte-equal to the same row without
/// `--reoptimize` at that commit's parent, run on `scenario.json` with the
/// policy's cold greedy rows `[[8,10,10,8],[1,0,0,1],[1,0,0,1],[10,10,10,10]]`
/// in place of (1,1,1,17). They were taken again when the policy came to
/// decide NUMA-local mixes exactly: each is byte-equal to the same row
/// without `--reoptimize` at that commit's parent, run on `scenario.json`
/// with the exact decision's rows `[[0,0,0,1],[0,0,0,1],[0,0,0,1],[20,20,20,17]]`
/// in place of (1,1,1,17).
/// The 21 `simulate`/`drift` rows without `--engine` and the two
/// `top --format prom` rows were taken again when the event heap became the
/// default cut source: each is byte-equal to its parent's stdout with the
/// event engine named (`--engine event`; `top` names it in its supervisor
/// config) and jitter drawn per (seed, thread, segment), as the change draws.
/// `hill`/`anneal` stay single-threaded here: two seeds racing one score
/// cache move the printed hit counts by one under load. `help`, `chaos`,
/// `observe`, `trace` and `top --format json` (wall-clock fields, live
/// runtimes) stay on their structural tests.
const GOLDEN: &[(&str, u64)] = &[
    ("machines", 0xaceb60c940d6885f),
    ("show --machine paper-model", 0x356912fce37df9e2),
    ("show --machine paper-skylake", 0x49d4928b1420fb0f),
    ("show --machine tiny", 0x6a16b8538e1106ab),
    ("solve --machine paper-model --app mem1:local:0.5 --app mem2:local:0.5 --app mem3:local:0.5 --app comp:local:10 --counts 1,1,1,5", 0x5bd606e7946062a5),
    ("solve --machine paper-model --app mem1:local:0.5 --app mem2:local:0.5 --app mem3:local:0.5 --app comp:local:10 --counts 2,2,2,2 --explain", 0xf0e55c0a6849e908),
    ("solve --machine paper-model --app mem1:local:0.5 --app mem2:local:0.5 --app mem3:local:0.5 --app comp:local:10 --counts 1,1,1,5 --json", 0x1033b795c6b3b6a6),
    ("solve --machine paper-model --app mem1:local:0.5 --app mem2:local:0.5 --app mem3:local:0.5 --app comp:local:10 --counts 1,1,1,5 --format json", 0x1033b795c6b3b6a6),
    ("search --machine paper-model --app mem:local:0.5 --app comp:local:10 --method greedy --seed 7", 0xacbfe8a52b7875a9),
    ("search --machine paper-model --app mem:local:0.5 --app comp:local:10 --method exhaustive --seed 7", 0x5843238594943397),
    ("search --machine paper-model --app mem:local:0.5 --app comp:local:10 --method exhaustive --keep-alive --threads 2", 0xb84e55ff057eb2c3),
    ("search --machine paper-model --app mem:local:0.5 --app comp:local:10 --method hill --seed 7", 0xdd7e2e1ec5f04362),
    ("search --machine paper-model --app mem:local:0.5 --app comp:local:10 --method anneal --seed 7", 0xc54d15b1fa721436),
    ("search --machine paper-skylake --app mem:local:0.03125 --app bad:node0:0.0625 --method hill --seed 11 --keep-alive", 0x8f6beadde7710acd),
    ("search --machine paper-skylake --app mem:local:0.03125 --app bad:node0:0.0625 --method anneal --seed 11 --keep-alive --json", 0xb95e3f5684fd4280),
    ("search --machine tiny --app a:local:0.5 --app b:spread:4 --method greedy --json", 0xfc27fc5a40713695),
    ("sweep --machine paper-model --app mem:local:0.5", 0x1164708005fcafd1),
    ("sweep --machine paper-model --app mem:local:0.5 --json", 0xf7bf01c150b5f8ea),
    ("pareto --machine paper-model --app mem:local:0.5 --app comp:local:10", 0x8fdff9ca3ef09e08),
    ("pareto --machine tiny --app a:local:0.5 --app b:local:4 --json", 0xf4e988d625318038),
    ("simulate --write-template", 0x7af9043d61fd0e2c),
    ("simulate --scenario scenario.json", 0x53fd783e3d102c0c),
    ("simulate --scenario scenario.json --fault 3:0.02", 0xf3dd92a57cc0548f),
    ("simulate --scenario scenario.json --format json", 0x1d8139f5373df9e9),
    ("simulate --scenario scenario.json --fault 3:0.02 --format json", 0x1ba934757b8a442d),
    ("simulate --scenario scenario.json --format prom", 0xada7d27af1d5d217),
    ("simulate --scenario scenario.json --fault 3:0.02 --format prom", 0x8e3b4491ab1d333e),
    ("simulate --scenario scenario.json --engine slice", 0x16d768a9efff4346),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine slice", 0xee3430a60cb7f3f9),
    ("simulate --scenario scenario.json --engine slice --format json", 0x2c9342db2d39fe70),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine slice --format json", 0xec4c2b5334866522),
    ("simulate --scenario scenario.json --engine slice --format prom", 0x0ff1d10491fa1fbf),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine slice --format prom", 0xa3fc182f9346c7a6),
    ("simulate --scenario scenario.json --engine event", 0x53fd783e3d102c0c),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine event", 0xf3dd92a57cc0548f),
    ("simulate --scenario scenario.json --engine event --format json", 0x1d8139f5373df9e9),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine event --format json", 0x1ba934757b8a442d),
    ("simulate --scenario scenario.json --engine event --format prom", 0xada7d27af1d5d217),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine event --format prom", 0x8e3b4491ab1d333e),
    ("simulate --scenario scenario.json --fault 3:0.02:0.06 --fault 0:0.01 --no-reclaim", 0x4b808619cc0e1a7f),
    ("simulate --scenario scenario.json --json", 0x1d8139f5373df9e9),
    ("drift", 0x6de4fea2248634a8),
    ("drift --reoptimize", 0xb2e9dd269b281790),
    ("drift --perturb 0:0.2:0.1", 0xb75000f650eb975e),
    ("drift --perturb 0:0.2:0.1 --reoptimize", 0xb4b61c78069536cf),
    ("drift --format json", 0x0e51f01bac7144b9),
    ("drift --reoptimize --format json", 0x4ed9ba2507eb4ce3),
    ("drift --perturb 0:0.2:0.1 --format json", 0x3b7c911e42e7a129),
    ("drift --perturb 0:0.2:0.1 --reoptimize --format json", 0x4ed9ba2507eb4ce3),
    ("drift --format prom", 0xd1e0b94cf3308d50),
    ("drift --reoptimize --format prom", 0x28af8df613431bf1),
    ("drift --perturb 0:0.2:0.1 --format prom", 0x138bdce5b1df4cd2),
    ("drift --perturb 0:0.2:0.1 --reoptimize --format prom", 0x45170ac9d0f34746),
    ("drift --scenario scenario.json --duration 0.1 --engine event", 0x48594d59d9d93aee),
    ("drift --duration 0.1 --engine event --json", 0x5518a25fde5d5c50),
    ("drift --perturb 0:0.5:0.05 --perturb 1:0.8 --decision-period 0.02 --duration 0.3 --ewma 0.4 --cusum-k 0.1 --cusum-h 0.8", 0x51b9f3a0e4879e5a),
    ("top", 0xb8882ccabf771c32),
    ("top --outage 1:0.03:0.07", 0x4f474599a93c0f2e),
    ("top --format prom", 0xdde2e1857e41d215),
    ("top --outage 1:0.03:0.07 --format prom", 0x8747305e51329a4e),
    ("top --machine dual-socket --duration 0.1 --decision-period 0.02", 0xaff72fc37e4e374a),
];

#[test]
fn deterministic_stdout_is_what_it_was_before_the_rewrite() {
    let dir = std::env::temp_dir().join(format!("coop-cli-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &str| {
        let out = cli()
            .args(args.split_whitespace())
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "`{args}` failed: {out:?}");
        out.stdout
    };
    std::fs::write(dir.join("scenario.json"), run("simulate --write-template")).unwrap();
    let moved: Vec<String> = GOLDEN
        .iter()
        .filter_map(|(args, digest)| {
            let stdout = run(args);
            let got = fnv1a(&stdout);
            (got != *digest).then(|| {
                let stdout = String::from_utf8_lossy(&stdout);
                format!("`{args}`: digest {got:#018x}, was {digest:#018x}; stdout:\n{stdout}")
            })
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

#[test]
fn misplaced_flags_and_formats_exit_2_naming_both() {
    let solve = "solve --machine tiny --app a:local:1 --counts 1";
    for (args, flag, command) in [
        (
            "machines --kill-at 3 --cusum-h 9".to_string(),
            "--kill-at",
            "machines",
        ),
        (format!("{solve} --revive-at 5"), "--revive-at", "solve"),
        (
            "chaos --engine event --sim-threads 4".to_string(),
            "--engine",
            "chaos",
        ),
        (format!("{solve} --format prom"), "prom", "solve"),
        (
            format!("solve --verbos {}", &solve[6..]),
            "--verbos",
            "solve",
        ),
        (
            "simulate --scenario s.json --sim-threads 2".to_string(),
            "--sim-threads",
            "simulate",
        ),
    ] {
        let out = cli()
            .args(args.split_whitespace())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "`{args}`");
        assert!(out.stdout.is_empty(), "`{args}` must not run");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.contains(flag) && first.contains(&format!("'{command}'")),
            "`{args}`: {first}"
        );
    }
}

/// One `DecisionTick` is kept per decision tick, so a duration over period
/// ratio that cannot be held is refused like any other failed run — not a
/// `capacity overflow` panic (101) or a failed allocation's abort (134).
#[test]
fn too_many_decision_ticks_exit_1_not_a_panic_or_an_abort() {
    for args in [
        "drift --duration 1e9 --decision-period 1e-9",
        "drift --duration 1e6 --decision-period 1e-6",
        "top --duration 1e9 --decision-period 1e-9",
    ] {
        let out = cli()
            .args(args.split_whitespace())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "`{args}`: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("too many decision ticks"),
            "`{args}`: {stderr}"
        );
    }
}

/// Each `search --threads` is an OS thread (and, for `hill` and `anneal`,
/// a seed), so a count past the cap is refused like any other failed run —
/// not a failed spawn's abort (134) or a panic (101).
#[test]
fn too_many_search_threads_exit_1_not_a_panic_or_an_abort() {
    for method in ["hill", "anneal", "exhaustive", "greedy"] {
        let args = format!(
            "search --machine tiny --app a:local:0.5 --app b:local:4 --method {method} --threads 50000"
        );
        let out = cli()
            .args(args.split_whitespace())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "`{args}`: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("--threads 50000"), "`{args}`: {stderr}");
    }
}

/// `trace --from` reads a flight dump: a real one and one cut short by a
/// crash assemble (exit 0); garbage and the binary dumps of earlier
/// versions are refused like any other failed run (exit 1), never with a
/// panic (101) or an abort (134).
#[test]
fn trace_from_a_flight_dump_exits_0_and_from_garbage_exits_1() {
    use coop_telemetry::{hop, hop_args, ArgValue, FlightRecorder, TelemetryHub, TRACE_CAT};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("coop-cli-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let hub = TelemetryHub::new();
    let rec = Arc::new(FlightRecorder::new(64));
    assert!(hub.install_flight_recorder(Arc::clone(&rec)));
    let track = hub.register_track("runtime:traced");
    for task in 0..3u64 {
        for (k, name) in [hop::SPAWNED, hop::STARTED, hop::FINISHED]
            .into_iter()
            .enumerate()
        {
            let mut args = hop_args(task, 0);
            if name == hop::SPAWNED {
                args.push(("task_name".into(), ArgValue::Str(format!("stage{task}"))));
            }
            let ts = task * 10 + k as u64;
            hub.record_instant_at(0, track, 0, TRACE_CAT, name, ts, args);
        }
    }
    let real = dir.join("flight-real.json");
    rec.dump_to(&real).unwrap();
    let bytes = std::fs::read(&real).unwrap();
    let mut old_binary = b"COOPFREC\x01\x00".to_vec();
    old_binary.extend_from_slice(&[7; 48]);
    for (file, contents, code) in [
        ("real.json", bytes.clone(), 0),
        ("truncated.json", bytes[..bytes.len() - 20].to_vec(), 0),
        ("garbage.json", b"\x00\xffnot a dump]".to_vec(), 1),
        ("old.bin", old_binary, 1),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, contents).unwrap();
        let out = cli()
            .args(["trace", "stage", "--from"])
            .arg(&path)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(code), "{file}: {out:?}");
        if code == 0 {
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(stdout.contains("\"stage0\""), "{file}: {stdout}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A scenario file is input from outside the program: one that asks for
/// more threads than a host can hold, or for more time steps than it can
/// walk, is refused like any other failed run (exit 1) at once — never
/// killed for its memory (137), aborted by a failed allocation (134),
/// panicked (101) or left running.
#[test]
fn hostile_scenario_files_exit_1_not_a_kill_or_a_hang() {
    let dir = std::env::temp_dir().join(format!("coop-cli-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut threads = memsim::scenario::template();
    threads.effects.allow_oversubscription = true;
    threads.assignments[0].threads[0][0] = 1_000_000_000;
    let mut duration = memsim::scenario::template();
    duration.duration_s = 1e12;
    for (file, scenario) in [("threads.json", threads), ("duration.json", duration)] {
        std::fs::write(dir.join(file), scenario.to_json()).unwrap();
        let mut child = cli()
            .args(["simulate", "--scenario", file])
            .current_dir(&dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if std::time::Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                panic!("`simulate --scenario {file}` still running after 10 s");
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        assert_eq!(status.code(), Some(1), "{file}: {status:?} {stderr}");
        assert!(stderr.contains("budget"), "{file}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
