//! `fleet_sweep` rejects a missing `--json` path, or one that looks
//! like a flag, with one usage line on stderr and exit status 2 before
//! running the grid, so it never writes a file named after a flag.

use std::process::Command;

fn assert_usage_error(case: &str, args: &[&str]) {
    let dir = std::env::temp_dir().join(format!("fleet_sweep_cli_{case}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_fleet_sweep"))
        .args(args)
        .current_dir(&dir)
        .env("DYSTA_QUICK", "1")
        .output()
        .expect("fleet_sweep runs");
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr: {stderr}");
    assert!(
        stderr.contains("usage: fleet_sweep"),
        "{args:?}: stderr: {stderr}"
    );
    let written: Vec<_> = std::fs::read_dir(&dir).expect("read temp dir").collect();
    assert!(
        written.is_empty(),
        "{args:?}: fleet_sweep wrote {written:?}"
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn json_followed_by_a_flag_exits_2_and_writes_no_file() {
    assert_usage_error("flag", &["--json", "--threads"]);
}

#[test]
fn json_without_a_path_exits_2() {
    assert_usage_error("missing", &["--json"]);
}
