//! `trace_check` reads only `--trace PATH`: an unknown flag prints one
//! usage line on stderr and exits with status 2 before running the
//! scenario, so it never writes a trace file.

use std::process::Command;

#[test]
fn unknown_flag_exits_2_with_one_line_and_writes_no_file() {
    let dir = std::env::temp_dir().join(format!("trace_check_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_check"))
        .arg("--bogus")
        .current_dir(&dir)
        .output()
        .expect("trace_check runs");
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains("usage: trace_check"), "stderr: {stderr}");
    let written: Vec<_> = std::fs::read_dir(&dir).expect("read temp dir").collect();
    assert!(written.is_empty(), "trace_check wrote {written:?}");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
