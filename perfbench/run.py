#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the ACN/QR-DTM stack.

One workload:
    python3 perfbench/run.py --workload bank-cpu --seed 1 --seconds 12 --trace 0

Every workload, untraced and traced, with a summary table that puts each
workload's traced commits/s beside its untraced value:
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

The first call configures and builds perfbench/CMakeLists.txt (which
compiles ../src) into .bench_build/perfbench; later calls rebuild
incrementally.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  A failed build or run exits
non-zero; a run that finds a correctness breach prints correct: false and
exits non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "acnbench")
WORKLOADS = ["bank-cpu", "tpcc-lan", "bank-xshard-wal", "bank-skew-hybrid",
             "bank-skew-sched"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no program sources at %s" % os.path.join(ROOT, "src"))
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "acnbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("perfbench: build step failed: %s" % " ".join(step))
            return False
    return True


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return None
    return result


def run_one(workload, seed, seconds, trace):
    """Run the benchmark binary once; returns (exit code, stdout, result)."""
    data_dir = os.path.join(BUILD_ROOT, "wal-data")
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--data-dir", data_dir]
    if trace:
        command += ["--trace-out",
                    os.path.join(BUILD_ROOT, "trace-%s.json" % workload)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              universal_newlines=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as timeout:
        log("perfbench: %s timed out" % workload)
        return 1, timeout.stdout or "", None
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return proc.returncode, proc.stdout, parse_result(proc.stdout)


def run_all(seed, seconds):
    """Each workload untraced then traced; prints a summary and one JSON."""
    rows = []
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, stdout, result = run_one(workload, seed, seconds, trace)
            sys.stdout.write(stdout.rsplit("\n", 2)[0] + "\n")
            if code != 0 or result is None:
                status = 1
                combined["correct"] = combined["correct"] and bool(
                    result and result["correct"])
                continue
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"]["%s.%s" % (workload, name)] = metric
        metrics = combined["metrics"]
        untraced = metrics.get(workload + ".commits_per_s", {}).get("value")
        traced = metrics.get(workload + ".trace.commits_per_s", {}).get("value")
        rows.append((workload, untraced, traced))
    print("\n%-18s %14s %14s %10s" % ("workload", "commits/s", "traced", "overhead"))
    for workload, untraced, traced in rows:
        if untraced and traced:
            print("%-18s %14.1f %14.1f %9.1f%%" % (
                workload, untraced, traced, 100.0 * (1 - traced / untraced)))
        else:
            print("%-18s %14s %14s %10s" % (workload, untraced, traced, "-"))
    print(json.dumps(combined))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build():
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, stdout, result = run_one(args.workload, args.seed, args.seconds,
                                   args.trace)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if code != 0:
        return code
    if result is None:
        log("perfbench: the benchmark printed no valid result line")
        return 1
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
