//! `scenario_smoke` reports a bad path or an invalid scenario file as
//! one line on stderr and exit status 1, never as a panic.

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
