#!/usr/bin/env python3
"""The benchmark's own test: every workload in smoke mode (tiny budgets),
untraced and traced. Checks that each run is correct, that every metric of
BENCHMARK.json is printed with its unit, that the check self-test fired,
and that only the farm's mix row fails.

    python3 hostbench/smoke_test.py      # from the checkout root; exit 0 = pass
"""
import json
import os
import re
import subprocess
import sys

SELF_TEST_CHECKS = 5


def main():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = ["python3", "hostbench/run.py", "--workload", wl, "--seed",
                   "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
            out = subprocess.run(cmd, cwd=repo, capture_output=True, text=True,
                                 timeout=600)
            lines = out.stdout.strip().splitlines()
            tag = "%s trace=%d" % (wl, trace)
            if out.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (tag, out.returncode,
                                                     out.stderr[-1000:]))
                continue
            res = json.loads(lines[-1])
            want = spec["per_layer" if trace else "end_to_end"]
            names = [m["name"] for m in want]
            if sorted(res["metrics"]) != sorted(names):
                problems.append("%s: metrics %s, want %s" %
                                (tag, sorted(res["metrics"]), sorted(names)))
            for m in want:
                got = res["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: %s printed as %s" %
                                    (tag, m["name"], got))
                line = [l for l in lines if l.split()[:1] == [m["name"]]]
                if not line or line[0].split()[-1] != m["unit"]:
                    problems.append("%s: no '%s <value> %s' line" %
                                    (tag, m["name"], m["unit"]))
            if not res["correct"]:
                problems.append("%s: incorrect\n%s" % (tag, out.stdout[-2000:]))
            want_failed = 1 if wl == "farm-mixed" else 0
            if res["failed"] != want_failed or res["attempted"] < 1:
                problems.append("%s: %d of %d failed, want %d" % (
                    tag, res["failed"], res["attempted"], want_failed))
            fired = re.search(r"self-test: (\d+)/(\d+) corrupted checks fired",
                              out.stdout)
            if not fired or fired.group(1) != fired.group(2) or \
                    int(fired.group(2)) < SELF_TEST_CHECKS:
                problems.append("%s: self-test did not fire every check" % tag)
            print("%-28s ok" % tag if not problems else "%-28s ..." % tag,
                  flush=True)
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
