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
