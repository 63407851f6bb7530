#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 hostbench/run.py --workload fig-detail --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; the first run configures and
builds, later runs only re-check it. The last line of standard output is
the benchmark's JSON result. Exit 1 without a result when the build fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("fig-detail", "sampled-scaled", "mix-parallel", "farm-mixed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budgets (the benchmark's own test)")
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(bench_dir)
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_root = os.path.join(repo, out_root)
    build = os.path.join(out_root, "hostbench")
    os.makedirs(out_root, exist_ok=True)

    # A build directory configured from another checkout would compile that
    # checkout's sources (cmake keeps the first -S): refuse it.
    cache = os.path.join(build, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            src = [l.split("=", 1)[1].strip() for l in f
                   if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if src and os.path.realpath(src[0]) != os.path.realpath(bench_dir):
            sys.stderr.write("hostbench: %s was configured for %s, not %s\n" %
                             (build, src[0], bench_dir))
            return 1

    log_path = os.path.join(out_root, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(cache):
            steps.append(["cmake", "-S", bench_dir, "-B", build])
        steps.append(["cmake", "--build", build, "-j", str(os.cpu_count() or 1),
                      "--target", "hostbench", "spearrun", "spearfarm"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write("hostbench: build failed (%s); see %s\n" %
                                 (" ".join(cmd[:2]), log_path))
                return 1

    cmd = [os.path.join(build, "hostbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--repo", repo,
           "--tools", os.path.join(build, "spear", "tools"),
           "--work", os.path.join(out_root, "work")]
    if args.trace:
        cmd += ["--trace", os.path.join(
            out_root, "trace", "%s-%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=repo)


if __name__ == "__main__":
    sys.exit(main())
