#!/usr/bin/env python3
"""Steadiness tool: runs workloads back to back and reports the spread.

    python3 perfbench/steady.py [--workloads fig9,serve,compile] [--runs 10]
        [--first-seed 1] [--seconds S] [--repeat 1]

For each workload it runs `perfbench/run.py` --runs times, each with the
next seed, and prints for every end-to-end metric the median, the first
and third quartiles (Python's statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, the metric's bound from BENCHMARK.json and a third
of it. A spread above the bound fails, setup_s's too; a spread above a
third of the bound is flagged as not yet steady. With --repeat 2 the
whole set runs twice and the tool also checks that the second median is
not worse than the first by more than the bound.

Exits non-zero when a run fails or a check does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def collect(spec, workload, runs, first_seed, seconds):
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(runs):
        res = run_once(workload, first_seed + i, seconds)
        if res is None or not res["correct"]:
            print("  %s seed %d: FAILED" % (workload, first_seed + i))
            return None
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print("  %s seed %d: %s" % (workload, first_seed + i, ", ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items())), flush=True)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in workloads:
        medians = []
        for rep in range(args.repeat):
            print("%s, set %d:" % (workload, rep + 1), flush=True)
            values = collect(spec, workload, args.runs, args.first_seed,
                             seconds)
            if values is None:
                ok = False
                break
            medians.append({})
            print("  %-12s %12s %12s %12s %8s %7s %7s  verdict"
                  % ("metric", "median", "q1", "q3", "spread", "bound",
                     "bound/3"))
            for m in spec["end_to_end"]:
                v = values[m["name"]]
                q1, med, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                medians[-1][m["name"]] = med
                spread = (q3 - q1) / med if med else float("inf")
                verdict = "steady"
                if spread > m["bound"] / 3:
                    verdict = "not steady"
                if spread > m["bound"]:
                    verdict = "FAIL"
                    ok = False
                print("  %-12s %12.6g %12.6g %12.6g %8.4f %7.3f %7.3f  %s"
                      % (m["name"], med, q1, q3, spread, m["bound"],
                         m["bound"] / 3, verdict))
        if len(medians) == 2:
            print("  second set against the first:")
            for m in spec["end_to_end"]:
                a, b = medians[0][m["name"]], medians[1][m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= m["bound"] else "FAIL"
                ok &= verdict == "ok"
                print("  %-12s %12.6g -> %12.6g  worse by %+.4f (bound %.3f) %s"
                      % (m["name"], a, b, worse, m["bound"], verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
