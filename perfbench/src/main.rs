//! `perfbench --workload <select_cold|sql_hot|churn> --seed <n>
//! --seconds <s> --trace <0|1> --data-dir <dir> [--spans <file>]`
//!
//! Runs one workload and prints one JSON line: `correct`, `attempted`,
//! `failed`, `metrics` (end-to-end, or per-layer with `--trace 1`) and
//! `detail` (sample counts, count cells, server configuration).

use perfbench::bench::{run, Config, Workload};
use perfbench::stats::Json;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let usage = "usage: perfbench --workload <select_cold|sql_hot|churn> --seed <n> \
                 --seconds <s> --trace <0|1> --data-dir <dir> [--spans <file>]";
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(data_dir)) = (
        get("--workload").and_then(Workload::parse),
        get("--seed").and_then(|s| s.parse::<u64>().ok()),
        get("--seconds")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0),
        get("--trace").and_then(|t| match t {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
        get("--data-dir").map(PathBuf::from),
    ) else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let mut cfg = Config::new(workload, seed, seconds, trace, data_dir);
    cfg.spans_out = get("--spans").map(PathBuf::from);
    let report = run(&cfg);
    for p in &report.problems {
        eprintln!("perfbench: {p}");
    }
    let mut metrics = Json::new();
    for m in &report.metrics {
        let mut v = Json::new();
        v.num("value", m.value).str("unit", m.unit);
        metrics.obj(m.name, &v);
    }
    let mut out = Json::new();
    out.boolean("correct", report.correct)
        .int("attempted", report.attempted)
        .int("failed", report.failed)
        .obj("metrics", &metrics)
        .obj("detail", &report.detail);
    println!("{}", out.render());
    ExitCode::SUCCESS
}
