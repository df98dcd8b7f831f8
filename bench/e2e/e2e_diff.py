#!/usr/bin/env python3
"""Compare two sets of bench_e2e results, workload by end-to-end metric.

    python3 bench/e2e/e2e_diff.py BASE.json... --vs NEW.json... \
        [--benchmark BENCHMARK.json] [--min-runs 5]

Each file is a bench_e2e --out result (one or more workloads).  For every
workload and every end-to-end metric of BENCHMARK.json the tool prints both
sides' median and quartiles and a verdict:

  better      the new side wins at least 9 in 10 of the pairs (i-th base
              run against i-th new run; ties count for neither side) and
              the medians differ by more than the base side's quartile
              distance; or the spread is wider than the bound and every
              new run beats every base run
  worse       the new median is worse than the base median by more than
              the metric's bound
  unresolved  either side's quartile distance, as a share of its median,
              is wider than the bound (and not every new run is better)
  same        otherwise

A rise in a workload's share of failed operations is also "worse".  The
exit status is 1 when any pair is worse, 2 on unusable input, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def load_runs(paths):
    """{workload: {"metrics": {name: [values]}, "attempted": n, "failed": n}}"""
    out = {}
    for path in paths:
        with open(path) as f:
            run = json.load(f)
        for w in run["workloads"]:
            entry = out.setdefault(w["name"], {"metrics": {}, "attempted": 0,
                                               "failed": 0, "runs": 0})
            entry["runs"] += 1
            entry["attempted"] += w["attempted"]
            entry["failed"] += w["failed"]
            for name, m in w["metrics"].items():
                entry["metrics"].setdefault(name, []).append(m["value"])
    return out


def verdict(base, new, bound, higher_is_better):
    """Verdict of one workload x metric pair (see the module docstring)."""
    sign = -1 if higher_is_better else 1
    mb, mn = statistics.median(base), statistics.median(new)
    b1, b3 = quartiles(base)
    n1, n3 = quartiles(new)

    def share(lo, hi, med):
        return (hi - lo) / abs(med) if med else 0.0

    spread = max(share(b1, b3, mb), share(n1, n3, mn))
    worse_by = sign * (mn - mb) / abs(mb) if mb else 0.0
    every_new_better = all(sign * (x - y) < 0 for x in new for y in base)
    if spread > bound:
        return ("better" if every_new_better else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(mn - mb) > (b3 - b1):
        return "better", worse_by
    return "same", worse_by


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="+", help="base result files")
    ap.add_argument("--vs", nargs="+", required=True, dest="new",
                    help="new result files")
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    ap.add_argument("--min-runs", type=int, default=5)
    args = ap.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load_runs(args.base), load_runs(args.new)
    common = [w for w in base if w in new]
    if not common:
        print("e2e_diff: the two sets share no workload", file=sys.stderr)
        return 2
    for w in common:
        runs = min(base[w]["runs"], new[w]["runs"])
        if runs < args.min_runs:
            print(f"e2e_diff: {w} has {runs} runs on one side; "
                  f"need at least {args.min_runs}", file=sys.stderr)
            return 2

    counts = {}
    print(f"{'workload':14} {'metric':18} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'gain':>8} {'bound':>6}  verdict")
    for w in common:
        for m in metrics:
            b = base[w]["metrics"].get(m["name"])
            n = new[w]["metrics"].get(m["name"])
            if not b or not n:
                print(f"e2e_diff: {w} lacks {m['name']}", file=sys.stderr)
                return 2
            v, worse_by = verdict(b, n, m["bound"], m["better"] == "higher")
            counts[v] = counts.get(v, 0) + 1
            b1, b3 = quartiles(b)
            n1, n3 = quartiles(n)
            print(f"{w:14} {m['name']:18} "
                  f"{statistics.median(b):>12.5g} [{b1:.5g}, {b3:.5g}]".ljust(68) +
                  f" {statistics.median(n):>12.5g} [{n1:.5g}, {n3:.5g}]".ljust(35) +
                  f" {-worse_by:+8.2%} {m['bound']:6.2f}  {v}")
        fb = base[w]["failed"] / max(base[w]["attempted"], 1)
        fn = new[w]["failed"] / max(new[w]["attempted"], 1)
        v = "worse" if fn > fb else "same"
        counts[v] = counts.get(v, 0) + 1
        print(f"{w:14} {'failed_frac':18} {fb:>12.5g}".ljust(68) +
              f" {fn:>12.5g}".ljust(35) + f" {'':8} {'':6}  {v}")
    print("verdicts: " + ", ".join(f"{k} {c}" for k, c in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
