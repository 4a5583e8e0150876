#!/usr/bin/env python3
"""Paired host-speed comparison of two xpc_perfbench binaries.

    python3 tools/perf_pairs.py --parent OLD/xpc_perfbench \\
        --change NEW/xpc_perfbench --workload ycsb --seed 5 --pairs 10

Runs the two binaries alternately, PAIRS times each, swapping which one
goes first in every pair so drift in the host's speed falls on both
sides alike. Each run's end-to-end metrics are computed by
perfbench/run.py's end_to_end_metrics, the benchmark's own definitions.
For every metric it prints each side's median and quartiles, the
parent's interquartile range, and in how many pairs the change was
better (by BENCHMARK.json's "better" direction); a claimed gain should
win nearly every pair and move the median by more than the parent's
IQR.

Host speed alone may differ: the simulated digest of every rep must be
the same on both sides of each pair, or the script exits 1.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
import run  # noqa: E402  (perfbench/run.py)


def quartiles(xs):
    """(q1, median, q3) of @xs; a single value is all three."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def measure(binary, args):
    doc = run.drive(binary, args)
    digests = sorted({r["digest"] for r in doc["reps"]})
    failed = sum(r["failed"] for r in doc["reps"])
    return run.end_to_end_metrics(doc), digests, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="xpc_perfbench built from the parent commit")
    ap.add_argument("--change", required=True, type=Path,
                    help="xpc_perfbench built from the change")
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    mismatches = 0
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {}
        for side in order:
            pair[side] = measure(sides[side], cmd)
            runs[side].append(pair[side][0])
        (_, pd, pf), (_, cd, cf) = pair["parent"], pair["change"]
        note = ""
        if pd != cd:
            mismatches += 1
            note = "  DIGEST MISMATCH parent %s change %s" % (pd, cd)
        if pf or cf:
            note += "  failed ops: parent %d change %d" % (pf, cf)
        print("pair %d (%s first): digest %s%s" % (
            i + 1, order[0], ",".join(cd), note), flush=True)

    print("\n%s seed %d, %d pairs of %gs runs" % (
        args.workload, args.seed, args.pairs, args.seconds))
    print("%-24s %28s %28s %10s %6s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "parent IQR", "wins"))
    for name in better:
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pq, cq = quartiles(p), quartiles(c)
        sign = 1 if better[name] == "higher" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        print("%-24s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] "
              "%10.4g %3d/%d" % (name, pq[1], pq[0], pq[2], cq[1], cq[0],
                                 cq[2], pq[2] - pq[0], wins, args.pairs))
    if mismatches:
        print("perf_pairs: %d pair(s) with different simulated digests"
              % mismatches, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
