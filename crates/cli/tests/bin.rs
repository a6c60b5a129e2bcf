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
/// runs each, byte-identical, debug and release alike). `scenario.json` is
/// `simulate --write-template`'s output in the working directory.
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
    ("search --machine paper-model --app mem:local:0.5 --app comp:local:10 --method exhaustive --keep-alive --threads 2", 0x34f43662ec2dfdab),
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
    ("simulate --scenario scenario.json", 0x9bb1fb808763c1dc),
    ("simulate --scenario scenario.json --fault 3:0.02", 0x04fec168478f058d),
    ("simulate --scenario scenario.json --format json", 0x07371c3ed198462a),
    ("simulate --scenario scenario.json --fault 3:0.02 --format json", 0x6110dbd642a213a8),
    ("simulate --scenario scenario.json --format prom", 0x7a1785ff361c1fcc),
    ("simulate --scenario scenario.json --fault 3:0.02 --format prom", 0x76bee8426703621b),
    ("simulate --scenario scenario.json --engine slice", 0x9bb1fb808763c1dc),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine slice", 0x04fec168478f058d),
    ("simulate --scenario scenario.json --engine slice --format json", 0x07371c3ed198462a),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine slice --format json", 0x6110dbd642a213a8),
    ("simulate --scenario scenario.json --engine slice --format prom", 0x7a1785ff361c1fcc),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine slice --format prom", 0x76bee8426703621b),
    ("simulate --scenario scenario.json --engine event", 0x8f29b242eae6e472),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine event", 0xf569c619473e2243),
    ("simulate --scenario scenario.json --engine event --format json", 0x637b5109e0783b73),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine event --format json", 0x9baf08f1764f4be7),
    ("simulate --scenario scenario.json --engine event --format prom", 0x49a55815c11c1dc0),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine event --format prom", 0x0829adf02683f8af),
    ("simulate --scenario scenario.json --engine event --sim-threads 2", 0x8f33f442eaefa91d),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine event --sim-threads 2", 0x50e6d5d0795085e0),
    ("simulate --scenario scenario.json --engine event --sim-threads 2 --format json", 0xc4a4f9018b3ae9d8),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine event --sim-threads 2 --format json", 0x862a00e96e7c7f3c),
    ("simulate --scenario scenario.json --engine event --sim-threads 2 --format prom", 0x0735803aed800bd4),
    ("simulate --scenario scenario.json --fault 3:0.02 --engine event --sim-threads 2 --format prom", 0x7d91ee7a86cd390b),
    ("simulate --scenario scenario.json --fault 3:0.02:0.06 --fault 0:0.01 --no-reclaim", 0x975b199baabc7edb),
    ("simulate --scenario scenario.json --json", 0x07371c3ed198462a),
    ("drift", 0x26f3b881bbdae836),
    ("drift --reoptimize", 0x26f3b881bbdae836),
    ("drift --perturb 0:0.2:0.1", 0x7399c4c2b4185e4c),
    ("drift --perturb 0:0.2:0.1 --reoptimize", 0x7399c4c2b4185e4c),
    ("drift --format json", 0xacdec3c797252c39),
    ("drift --reoptimize --format json", 0xacdec3c797252c39),
    ("drift --perturb 0:0.2:0.1 --format json", 0x21a7e3d90598e51a),
    ("drift --perturb 0:0.2:0.1 --reoptimize --format json", 0x21a7e3d90598e51a),
    ("drift --format prom", 0x96008ecc64150ce9),
    ("drift --reoptimize --format prom", 0x96008ecc64150ce9),
    ("drift --perturb 0:0.2:0.1 --format prom", 0xbd51b7a4ae13b486),
    ("drift --perturb 0:0.2:0.1 --reoptimize --format prom", 0xbd51b7a4ae13b486),
    ("drift --scenario scenario.json --duration 0.1 --engine event", 0x8d4a07598ecfc762),
    ("drift --duration 0.1 --engine event --sim-threads 2 --json", 0xc67584cba892df11),
    ("drift --perturb 0:0.5:0.05 --perturb 1:0.8 --decision-period 0.02 --duration 0.3 --ewma 0.4 --cusum-k 0.1 --cusum-h 0.8", 0x94cb715ca2b60408),
    ("top", 0xb8882ccabf771c32),
    ("top --outage 1:0.03:0.07", 0x4f474599a93c0f2e),
    ("top --format prom", 0xb720ac9736986914),
    ("top --outage 1:0.03:0.07 --format prom", 0x29d374eb3cf5aa4b),
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
