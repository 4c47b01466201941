#!/usr/bin/env python3
"""Verified-answer benchmark entry point.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload select_cold --seed 1 --seconds 13 --trace 0

builds the `perfbench` harness from source (release, offline), runs it and
prints one JSON line: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics, or the per-layer ones with `--trace 1`). The full
result, with the host fingerprint, the server configuration, the store's
flush policy and the sample counts, is written under `.bench_out/results/`.

Compare two of those results (refused when their host fingerprints differ):

    python3 perfbench/run.py compare A.json B.json

The deterministic count cells of every run are kept in a ledger per
(workload, seed, seconds, host); a run whose counts drift from an earlier
run with the same inputs fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fingerprint():
    model, flags = "unknown", ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = value.strip()
            if key.strip() == "flags" and not flags:
                flags = value
    except OSError:
        pass
    return {
        "cpu_model": model,
        "cores": os.cpu_count(),
        "sha_ni": "sha_ni" in flags.split(),
        "kernel": platform.release(),
    }


def fingerprint_id(fp):
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:12]


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return target / "release" / "perfbench"


# The count cells: deterministic for a seed, so any drift is a bug.
COUNT_KEYS = ["answers", "rows", "result_bytes", "vo_bytes", "hash_ops",
              "sigs_verified", "batch_sigs", "batch_log_bytes", "batch_delta_bytes"]


def check_ledger(args, fp, counts):
    """Returns a problem string if the counts drift from an earlier run
    with the same inputs on the same host, else None (recording them)."""
    cells = {k: counts.get(k) for k in COUNT_KEYS}
    path = OUT / "counts" / (f"{args.workload}-seed{args.seed}-s{args.seconds}"
                             f"-{fingerprint_id(fp)}.json")
    if path.exists():
        earlier = json.loads(path.read_text())
        drift = {k: (earlier.get(k), v) for k, v in cells.items() if earlier.get(k) != v}
        if drift:
            return f"count cells drifted from an earlier run with the same seed: {drift}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cells, sort_keys=True))
    return None


def run(args):
    binary = build()
    fp = fingerprint()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    data_dir = OUT / "data" / tag
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", str(data_dir)]
    if args.trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(OUT / "spans" / f"{tag}.csv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: harness exited with {done.returncode}")
    result = json.loads(lines[-1])
    detail = result.pop("detail")
    problem = check_ledger(args, fp, detail["counts"])
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        result["correct"] = False
    record = dict(result, detail=detail, fingerprint=fp, fingerprint_id=fingerprint_id(fp),
                  workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, finished=time.time())
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}-{int(time.time())}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if result["correct"] else 1)


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def compare(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    if a["fingerprint"] != b["fingerprint"]:
        sys.exit(f"perfbench: refusing to compare results from different hosts:\n"
                 f"  {a['fingerprint']}\n  {b['fingerprint']}")
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        sys.exit("perfbench: refusing to compare different workloads or trace modes")
    spec = bounds()
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        change = (vb - va) / va if va else float("nan")
        m = spec.get(name, {})
        worse = change if m.get("better") == "lower" else -change
        verdict = ""
        if "bound" in m:
            verdict = "WORSE" if worse > m["bound"] else "ok"
        print(f"{name:34s} {va:14.4f} {vb:14.4f} {change:+8.2%} {ma['unit']:8s} {verdict}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(sys.argv[2], sys.argv[3])
    p = argparse.ArgumentParser(description="Verified-answer benchmark")
    p.add_argument("--workload", required=True, choices=["select_cold", "sql_hot", "churn"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    run(p.parse_args())


if __name__ == "__main__":
    main()
