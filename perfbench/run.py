#!/usr/bin/env python3
"""End-to-end GaeaQL benchmark: build, run one workload, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

The benchmark is built from source with dune (release profile, build
directory .bench_build/dune).  The run prints two JSON lines: first every
metric the run measured (with host metadata), then, as the last line, the
result object with exactly the metrics BENCHMARK.json declares for the
mode: its end_to_end metrics untraced (--trace 0), its per_layer metrics
traced (--trace 1).  Each run also appends its full record to
.bench_build/records.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark executable; exit non-zero when it cannot."""
    os.makedirs(".bench_build", exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("perfbench: build failed")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def host():
    return {
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "gaea_env": {k: v for k, v in os.environ.items() if k.startswith("GAEA_")},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {args.workload}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.stderr.write(r.stderr)
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith("{")]
    if r.returncode != 0 or not lines:
        sys.exit(f"perfbench: run failed with code {r.returncode}")
    run = json.loads(lines[-1])

    failed = run["failed"]
    metrics = {}
    for m in declared:
        got = run["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            sys.stderr.write(f"perfbench: metric {m['name']} not measured\n")
            failed += 1
            got = {"value": 0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": {**host(), **run.get("host", {})},
        "correct": run["correct"] and failed == run["failed"],
        "attempted": run["attempted"], "failed": failed,
        "metrics": run["metrics"],
    }
    os.makedirs(".bench_build", exist_ok=True)
    with open(os.path.join(".bench_build", "records.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": record["correct"], "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
