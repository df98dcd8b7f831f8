#!/usr/bin/env python3
"""Build bench_e2e from this checkout and run one workload.

    python3 bench/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of the repository.  The first call configures and
builds bench/e2e (with the library sources under src/) into
.bench_build/e2e; later calls only rebuild what changed.  Build output goes
to standard error; standard output is bench_e2e's, whose last line is the
JSON summary.  The exit status is bench_e2e's, or non-zero when the build
fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
SOURCE = os.path.join(ROOT, "bench", "e2e")


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources under src/ (run from the repo root)")
    steps = [["cmake", "--build", BUILD, "-j", "4"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", SOURCE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    build()
    work = os.path.join(ROOT, ".bench_build", "e2e-work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", work,
           "--out", os.path.join(work, "run.json")]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(work, "trace.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
