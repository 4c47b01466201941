//! The benchmark's correctness gate, exercised on short runs: honest runs
//! pass, a server that tampers with its answers fails the run, and the
//! count cells repeat exactly for a seed.
//!
//! The in-process runs share nothing a test compares: each has its own
//! ports and store directory, and the count cells (which read a
//! process-wide counter) are compared across separate processes.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use perfbench::bench::{run, Config, Report, Workload};
use std::time::Duration;

fn quick(workload: Workload, seed: u64, tamper: bool, trace: bool) -> Report {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("gate-{}-{seed}-{tamper}-{trace}", workload.name()));
    let mut cfg = Config::new(workload, seed, 1.0, trace, dir);
    cfg.tamper = tamper;
    cfg.setup_repeats = 1;
    cfg.segments = 2;
    cfg.probe_batches = 4;
    cfg.warmup = Duration::from_millis(100);
    run(&cfg)
}

fn assert_honest(r: &Report) {
    assert!(r.correct, "honest run failed: {:?}", r.problems);
    assert_eq!(r.failed, 0);
    assert!(r.attempted > 0);
    assert!(r.metrics.iter().all(|m| m.value.is_finite()));
}

fn assert_tamper_caught(r: &Report) {
    assert!(!r.correct, "a tampered run must fail");
    assert!(r.failed > 0);
    assert!(
        r.problems.iter().any(|p| p.contains("verification failed")),
        "{:?}",
        r.problems
    );
}

#[test]
fn honest_select_cold_run_is_correct() {
    assert_honest(&quick(Workload::SelectCold, 3, false, false));
}

#[test]
fn tampered_select_answers_fail_the_run() {
    assert_tamper_caught(&quick(Workload::SelectCold, 3, true, false));
}

#[test]
fn honest_traced_sql_hot_run_is_correct() {
    let r = quick(Workload::SqlHot, 4, false, true);
    assert_honest(&r);
    let hit = r
        .metrics
        .iter()
        .find(|m| m.name == "server.cache_hit_ratio")
        .unwrap();
    assert!(
        hit.value > 0.9,
        "sql_hot must be served from the VO cache: {}",
        hit.value
    );
}

#[test]
fn tampered_sql_answers_fail_the_run() {
    assert_tamper_caught(&quick(Workload::SqlHot, 4, true, false));
}

/// The count cells of one run of the harness binary, as printed. A
/// separate process per run: the hash-operation counter is process-wide.
fn printed_counts(seed: &str, trace: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("counts-{trace}"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "churn",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .arg("--data-dir")
        .arg(&dir)
        .output()
        .expect("harness runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    assert!(line.starts_with(r#"{"correct":true"#), "{line}");
    let start = line.find(r#""counts":"#).expect("count cells");
    let end = start + line[start..].find('}').expect("closed object");
    line[start..=end].to_string()
}

#[test]
fn churn_counts_repeat_exactly_for_a_seed() {
    assert_eq!(printed_counts("5", "0"), printed_counts("5", "1"));
}
