#!/usr/bin/env python3
"""A/B comparison of two source trees with the benchmark.

    python3 hostbench/ab.py --a /path/to/parent --b /path/to/change \
        [--pairs 10] [--workloads fig-detail,farm-mixed] [--seed0 1000]

Each tree is a checkout holding hostbench/ (it builds into its own
.bench_build). For pair i both sides run with seed seed0 + i, and the side
that runs first alternates. For every workload and end-to-end metric it
prints both medians and quartiles, the share of pairs B won (ties count for
neither) and the verdict: a gain needs B to win at least 9 of 10 pairs and
the medians to differ by more than A's quartile spread; a regression is a B
median worse than A's by more than the metric's bound; where A's own spread
is wider than the bound the metric is unresolved unless every B run beats
every A run. Given the same tree twice this is the A/A check; add
--unpaired to give B its own seeds (seed0 + pairs + i), so the two sets
are ten distinct seeds as well, and "spread" is then the quartile distance
over all runs of both sides as a share of their median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run(tree, workload, seed, seconds):
    cmd = ["python3", "hostbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # Each tree builds into its own directory, whatever the caller's
    # CARGO_TARGET_DIR says.
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(os.path.abspath(tree),
                                             ".bench_build"))
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("ab: %s failed in %s:\n%s" % (" ".join(cmd), tree,
                                               out.stderr[-2000:]))
    return json.loads(lines[-1])


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(a, b, bound, lower_better):
    sign = 1.0 if lower_better else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    spread = q3 - q1
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    share = wins / len(a)
    if share >= 0.9 and sign * (med_b - med_a) < 0 and \
            abs(med_b - med_a) > spread:
        return share, "GAIN"
    all_better = max(sign * y for y in b) < min(sign * x for x in a)
    if med_a != 0 and spread / abs(med_a) > bound and not all_better:
        return share, "unresolved (A spread %.1f%% > bound)" % (
            100 * spread / abs(med_a))
    if sign * (med_b - med_a) > bound * abs(med_a):
        return share, "REGRESSION (> %.0f%% bound)" % (100 * bound)
    return share, "no change within %.0f%% bound" % (100 * bound)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--a", required=True)
    ap.add_argument("--b", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--unpaired", action="store_true",
                    help="B runs with its own seeds instead of A's")
    args = ap.parse_args()

    with open(os.path.join(args.a, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    for wl in workloads:
        res = {"A": [], "B": []}
        for i in range(args.pairs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                tree = args.a if side == "A" else args.b
                seed = args.seed0 + i
                if side == "B" and args.unpaired:
                    seed += args.pairs
                res[side].append(run(tree, wl, seed, spec["run_seconds"]))
            sys.stderr.write("%s pair %d/%d done\n" % (wl, i + 1, args.pairs))
        for side in ("A", "B"):
            att = sum(r["attempted"] for r in res[side])
            fail = sum(r["failed"] for r in res[side])
            bad = sum(1 for r in res[side] if not r["correct"])
            print("%s %s: %d/%d operations failed, %d incorrect runs" %
                  (wl, side, fail, att, bad))
        print("%-16s %-12s %26s %26s %7s %7s  %s" % (
            "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
            "spread", "B wins", "verdict"))
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in res["A"]]
            b = [r["metrics"][m["name"]]["value"] for r in res["B"]]
            share, v = verdict(a, b, m["bound"], m["better"] == "lower")
            qa, qb = quartiles(a), quartiles(b)
            both = quartiles(a + b)
            spread = (both[1] - both[0]) / statistics.median(a + b)
            print("%-16s %-12s %9.4g [%6.4g,%6.4g] %9.4g [%6.4g,%6.4g] %6.1f%% "
                  "%6.0f%%  %s" % (wl, m["name"], statistics.median(a), qa[0],
                                   qa[1], statistics.median(b), qb[0], qb[1],
                                   100 * spread, 100 * share, v))


if __name__ == "__main__":
    main()
