#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root.  The first run configures and builds the
library plus the benchmark program (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build); later runs reuse that tree.

The program prints a human-readable report.  This script adds the
set-up time (process start to the first timed operation, the median of
several launches) and prints, as the last line of standard output, one
JSON object: {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1; a layer the workload does not exercise reads 0).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("single-user", "fleet-closed", "fleet-open", "pixel-compose")

# setup_s is the median over the measured run plus set-up-only
# launches: up to SETUP_LAUNCHES of them, fewer (but at least two)
# once they have spent SETUP_BUDGET_S.
SETUP_LAUNCHES = 10
SETUP_BUDGET_S = 4.0
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "qvr_perfbench")
    if not os.access(exe, os.X_OK):
        fail("benchmark binary missing after build")
    return exe


def launch(cmd):
    """Run the program; return (stdout lines, set-up seconds)."""
    start = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    lines = proc.stdout.splitlines()
    setup = None
    for line in lines:
        if line.startswith("SETUP_DONE_NS "):
            setup = (int(line.split()[1]) - start) / 1e9
    if setup is None:
        fail("benchmark did not report its set-up time")
    return lines, setup


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    exe = build(bdir)
    workers = max(1, min(4, len(os.sched_getaffinity(0))))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workers", str(workers),
           "--trace-dir", os.path.join(bdir, "traces")]

    setups = []
    if not args.trace:
        spent = time.monotonic()
        while len(setups) < SETUP_LAUNCHES and (
                len(setups) < 2 or time.monotonic() - spent < SETUP_BUDGET_S):
            setups.append(launch(cmd + ["--setup-only"])[1])
    lines, setup = launch(cmd)
    setups.append(setup)

    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif not line.startswith("SETUP_DONE_NS "):
            print(line)
    if result is None:
        fail("benchmark printed no result")

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s"}
        print("\n  setup_s: median of %d launches: %s" % (
            len(setups), ", ".join("%.4f" % s for s in setups)))
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None and args.trace:
            # A layer this workload does not exercise.
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or not in %s" % (m["name"], m["unit"]))
        out[m["name"]] = got
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": out}))


if __name__ == "__main__":
    main()
