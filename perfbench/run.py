#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload fig9|serve|compile --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. It builds the perceus libraries,
`perc` and the benchmark harness from the checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the harness, and prints two
lines on stdout: the fingerprint of the run, then one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the `end_to_end` ones BENCHMARK.json names; with --trace 1
the `per_layer` ones. The full result, every metric the harness measured,
is also written under <build>/perfbench-results/.

The exit code is 0 only when every output matched its reference. A build
failure, a missing BENCHMARK.json or sources outside perfbench/ exit
non-zero without a result line.

`--corrupt-reference` (used by selftest.py) corrupts one independent
reference, so the run must fail.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    """Configures and builds the harness and perc; returns True on success."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        # One build at a time per build directory.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                # A half-configured tree must not look configured next time.
                cache = os.path.join(out, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return False
        jobs = str(os.cpu_count() or 2)
        cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
               "perc"]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_id():
    """The git commit, or a digest of the sources when not in git."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=10)
            return rev.stdout.strip() + ("-dirty" if dirty.stdout.strip()
                                         else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "examples", "bench", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT,
                                                                        top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig9", "serve", "compile"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        log("no BENCHMARK.json at " + ROOT)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    if not build(out):
        log("build failed")
        return 3
    # Flush what the build wrote, so its writeback does not stall the
    # measurement.
    os.sync()

    results = os.path.join(os.path.dirname(out), "perfbench-results")
    cmd = [os.path.join(out, "perfbench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace,
           "--perc=" + os.path.join(out, "perc"),
           "--serve-file=" + os.path.join(HERE, "serve.perc"),
           "--out-dir=" + results,
           "--commit=" + source_id()]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    # The harness runs in its own process group, so a timeout stops it and
    # the server it started together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("harness timed out")
        return 4

    fingerprint, result = None, None
    for line in stdout.splitlines():
        if line.startswith("PERFBENCH_FINGERPRINT "):
            fingerprint = json.loads(line.split(" ", 1)[1])
        elif line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line.split(" ", 1)[1])
    if result is None:
        log("harness printed no result (exit %d)" % proc.returncode)
        return 5

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            log("harness did not measure " + m["name"])
            return 6
        if got["unit"] != m["unit"]:
            log("%s: unit %s, BENCHMARK.json says %s"
                % (m["name"], got["unit"], m["unit"]))
            return 6
        metrics[m["name"]] = got

    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump({"fingerprint": fingerprint, "result": result}, f, indent=1)

    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
