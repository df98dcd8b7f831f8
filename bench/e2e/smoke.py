#!/usr/bin/env python3
"""Smoke test of bench_e2e: every workload at 1/50 scale with a traced pass.

    python3 smoke.py BENCH_E2E WORK_DIR

Fails unless bench_e2e exits 0 (every oracle passed and every layer rollup
balanced), its result carries every metric of BENCHMARK.json with the same
unit, each rollup sums to within 2% of its wall time, and e2e_diff.py calls
the result the same as itself.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    binary, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "run.json")
    proc = subprocess.run(
        [binary, "--scale", "0.02", "--seconds", "1", "--seed", "7",
         "--work-dir", work, "--out", out,
         "--trace-out", os.path.join(work, "trace.json")],
        capture_output=True, text=True)
    print(proc.stdout)
    errors = []
    if proc.returncode != 0:
        errors.append(f"bench_e2e exited {proc.returncode}: {proc.stderr}")

    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(out) as f:
        run = json.load(f)
    names = {w["name"] for w in bench["workloads"]}
    if names != {w["name"] for w in run["workloads"]}:
        errors.append("workloads differ from BENCHMARK.json")
    for w in run["workloads"]:
        for table, key in ((bench["end_to_end"], "metrics"),
                           (bench["per_layer"], "layers")):
            for m in table:
                got = w.get(key, {}).get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    errors.append(f"{w['name']}: {m['name']} missing or not "
                                  f"in {m['unit']}")
        rollup = w["rollup"]
        if abs(sum(rollup["self_s"].values()) - rollup["wall_s"]) > 0.02 * rollup["wall_s"]:
            errors.append(f"{w['name']}: layer rollup off its wall time")
        if w["failed"]:
            errors.append(f"{w['name']}: failures {w['failures']}")

    diff = subprocess.run(
        [sys.executable, os.path.join(HERE, "e2e_diff.py"), out, "--vs", out,
         "--min-runs", "1"], capture_output=True, text=True)
    print(diff.stdout)
    if diff.returncode != 0:
        errors.append(f"e2e_diff.py on a result against itself exited "
                      f"{diff.returncode}: {diff.stderr}")
    for e in errors:
        print("FAIL:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
