//! End-to-end tests of the `mtracecheck` command-line tool, driving the
//! compiled binary as a user would.

use std::process::{Command, Output};

mod common;
use common::temp_dir;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mtracecheck"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn no_arguments_prints_usage() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn configs_lists_all_21() {
    let out = run(&["configs"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert_eq!(
        text.matches("ARM-").count() + text.matches("x86-").count(),
        21
    );
    assert!(text.contains("ARM-7-200-128"));
}

#[test]
fn litmus_filters_by_name_and_rejects_unknown() {
    let out = run(&["litmus", "SB"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("=== SB ==="));
    assert!(text.contains("SC: 3 allowed outcomes"));
    assert!(text.contains("TSO: 4 allowed outcomes"));

    let out = run(&["litmus", "NOPE"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no litmus test named"));
}

#[test]
fn campaign_validates_clean_hardware() {
    let out = run(&[
        "campaign",
        "--isa",
        "arm",
        "--threads",
        "2",
        "--ops",
        "15",
        "--addrs",
        "8",
        "--iters",
        "200",
        "--tests",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("no memory consistency violations"));
}

#[test]
fn campaign_detects_injected_bug3() {
    let out = run(&[
        "campaign",
        "--isa",
        "x86",
        "--threads",
        "7",
        "--ops",
        "100",
        "--addrs",
        "64",
        "--words-per-line",
        "4",
        "--bug",
        "3",
        "--iters",
        "200",
        "--tests",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(1), "bug 3 must fail the campaign");
    assert!(String::from_utf8_lossy(&out.stderr).contains("exposed violations"));
}

#[test]
fn campaign_degraded_run_exits_with_code_3() {
    // A zero wall-clock budget deterministically quarantines every test:
    // the campaign completes, reports, and signals the partial verdict
    // through the dedicated exit code (0 clean, 1 violations/error,
    // 2 usage, 3 degraded).
    let out = run(&[
        "campaign",
        "--isa",
        "arm",
        "--threads",
        "2",
        "--ops",
        "10",
        "--addrs",
        "8",
        "--iters",
        "20",
        "--tests",
        "2",
        "--time-budget-ms",
        "0",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "degraded completion is distinct from clean (0), failure (1) and usage (2)"
    );
    let text = stdout(&out);
    assert!(text.contains("DEGRADED RUN"), "{text}");
    assert!(text.contains("2 quarantined"), "{text}");
}

#[test]
fn render_emits_instrumented_assembly() {
    let out = run(&[
        "render",
        "--isa",
        "arm",
        "--threads",
        "2",
        "--ops",
        "6",
        "--addrs",
        "2",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("---- thread 0"));
    assert!(text.contains("sig0"));
}

#[test]
fn program_subcommand_checks_a_litmus_file() {
    let dir = temp_dir("program");
    let path = dir.join("sb.litmus");
    std::fs::write(
        &path,
        "addrs 2\nthread 0: st 0; ld 1\nthread 1: st 1; ld 0\n",
    )
    .unwrap();
    let out = run(&[
        "program",
        path.to_str().unwrap(),
        "--mcm",
        "tso",
        "--iters",
        "1000",
        "--enumerate",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("TSO: 4 allowed outcomes"));
    assert!(text.contains("0 violations"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn program_subcommand_reports_parse_errors() {
    let dir = temp_dir("parse-error");
    let path = dir.join("bad.litmus");
    std::fs::write(&path, "addrs 2\nthread 0: frobnicate\n").unwrap();
    let out = run(&["program", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn collect_then_check_roundtrip() {
    let dir = temp_dir("collect");
    let out = run(&[
        "collect",
        "--isa",
        "arm",
        "--threads",
        "2",
        "--ops",
        "10",
        "--addrs",
        "4",
        "--iters",
        "150",
        "--tests",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let logs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .collect();
    assert_eq!(logs.len(), 2, "one log per test");

    let out = run(&["check", dir.to_str().unwrap(), "--isa", "arm"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("all 2 logs check clean"));
    std::fs::remove_dir_all(&dir).ok();
}
