//! `scenario_smoke` reports a bad path, an invalid scenario file, or a
//! valid file whose stream yields no requests as one line on stderr and
//! exit status 1, never as a panic. A flag or a second argument is a
//! usage error: one line and exit status 2.

use std::process::Command;

fn run(arg: &std::path::Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario_smoke"))
        .arg(arg)
        .output()
        .expect("scenario_smoke runs");
    (
        out.status.code(),
        String::from_utf8(out.stderr).expect("UTF-8 stderr"),
    )
}

fn assert_one_line_failure(arg: &std::path::Path, needle: &str) {
    let (code, stderr) = run(arg);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
}

#[test]
fn missing_directory_exits_1_with_one_line() {
    let dir = std::env::temp_dir().join("scenario_smoke_cli_missing_dir");
    assert_one_line_failure(&dir, "scenario_smoke_cli_missing_dir");
}

#[test]
fn invalid_scenario_file_exits_1_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("scenario_smoke_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    std::fs::write(dir.join("broken.json"), r#"{"num_requests": 0}"#).expect("write file");
    assert_one_line_failure(&dir, "broken.json");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario_smoke"))
        .args(args)
        .output()
        .expect("scenario_smoke runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains("usage: scenario_smoke"), "stderr: {stderr}");
    assert!(stdout.is_empty(), "stdout: {stdout}");
}

#[test]
fn flag_is_a_usage_error() {
    assert_usage_error(&["--help"]);
}

#[test]
fn extra_argument_is_a_usage_error() {
    // The shipped scenario directory is valid: the run must refuse the
    // stray argument rather than smoke the directory and drop it.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    assert_usage_error(&[dir, "--json"]);
}

/// A one-phase Poisson scenario at `rate` req/s with a 100-request
/// budget, written as `<dir>/<name>` in a fresh temp directory.
fn poisson_scenario_dir(name: &str, rate: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("scenario_smoke_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let json = r#"{
      "seed": 1,
      "num_requests": 100,
      "samples_per_variant": 2,
      "phases": [
        {
          "start_s": 0.0,
          "mix": "multi-cnn",
          "process": {"model": "poisson", "rate": RATE},
          "slo_multiplier": 10.0
        }
      ]
    }"#
    .replace("RATE", rate);
    std::fs::write(dir.join(name), json).expect("write file");
    dir
}

#[test]
fn scenario_with_an_empty_stream_exits_1_naming_the_file() {
    // Valid input: a Poisson rate of 1e-300 req/s passes validation,
    // but its first arrival lies past the end of the clock, so the
    // stream yields nothing to serve.
    let dir = poisson_scenario_dir("vanishing.json", "1e-300");
    assert_one_line_failure(&dir, "vanishing.json");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn scenario_whose_stream_ends_before_its_budget_is_served() {
    // At 1e-10 req/s the second arrival already lies past the end of
    // the clock: the stream yields 1 of its 100 budgeted requests, and
    // that one request is what must complete.
    let dir = poisson_scenario_dir("sparse.json", "1e-10");
    let out = Command::new(env!("CARGO_BIN_EXE_scenario_smoke"))
        .arg(&dir)
        .output()
        .expect("scenario_smoke runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("1 requests streamed"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
