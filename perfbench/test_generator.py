#!/usr/bin/env python3
"""The benchmark's own test: the workload generator is a pure function
of its seed.  For every workload, the same seed gives a byte-identical
script and a different seed a different one.

Run from the root of a checkout:

    python3 perfbench/test_generator.py
"""

import json
import subprocess
import sys

import run

ROUNDS = 20


def script(workload, seed):
    r = subprocess.run([run.EXE, "--workload", workload, "--seed", str(seed),
                        "--dump-script", str(ROUNDS)],
                       capture_output=True, text=True, timeout=120, check=True)
    return r.stdout


def main():
    run.build()
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = []
    for w in workloads:
        a, b, c = script(w, 1), script(w, 1), script(w, 2)
        if not a.strip():
            failures.append(f"{w}: empty script")
        if a != b:
            failures.append(f"{w}: seed 1 gave two different scripts")
        if a == c:
            failures.append(f"{w}: seeds 1 and 2 gave the same script")
        print(f"{w}: {len(a.splitlines())} lines, "
              f"{'ok' if a == b and a != c else 'FAIL'}")
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
