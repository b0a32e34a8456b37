#!/usr/bin/env python3
"""Negative controls for the repository benchmark.

    python3 perfbench/selftest.py [--seconds 3]

Shows that the benchmark's output checks can fail:

  1. each workload, run with `--corrupt-reference` (one independent
     reference off by one: a Figure-9 checksum, a generated program's
     expected value, one serve request's `want`), must report
     `"correct": false` and exit non-zero;
  2. each workload run normally on the same seed must pass, so the
     failure above comes from the corrupted reference alone;
  3. the benchmark run in a directory holding only BENCHMARK.json and
     perfbench/ (no sources to build) must exit non-zero without
     printing a result.

Exits non-zero when any control does not behave as stated.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig9", "serve", "compile"]


def run(cwd, workload, seconds, corrupt, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", "0"]
    if corrupt:
        cmd.append("--corrupt-reference")
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600,
                          env=env)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    ok = True

    for workload in WORKLOADS:
        code, result, err = run(ROOT, workload, args.seconds, corrupt=False)
        clean = code == 0 and result and result["correct"]
        code_c, result_c, err_c = run(ROOT, workload, args.seconds,
                                      corrupt=True)
        caught = code_c != 0 and result_c is not None and \
            not result_c["correct"] and result_c["failed"] > 0
        detail = [l for l in err_c.splitlines() if "check failed" in l][:1]
        print("%-8s clean run passes: %-5s corrupted reference fails: %-5s %s"
              % (workload, bool(clean), caught,
                 detail[0].split(": ", 2)[-1] if detail else ""))
        ok &= bool(clean) and caught

    # A directory with only the benchmark's own files cannot build it.
    scratch = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
        code, result, _ = run(bare, "fig9", args.seconds, corrupt=False,
                              env=env)
        bare_ok = code != 0 and result is None
        print("bare     no sources: exit %d, result printed: %s -> %s"
              % (code, result is not None, "ok" if bare_ok else "WRONG"))
        ok &= bare_ok

    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
