#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

    python3 perfbench/stability.py --runs 10 [--workload NAME ...] [--json FILE]

Runs `perfbench/run.py --trace 0` once per seed (seeds 1..runs) on each
workload, and prints for every end-to-end metric of BENCHMARK.json its
median and its spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  A spread above a
third of the metric's bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--json", help="write medians and spreads here")
    args = parser.parse_args()

    summary = {}
    flagged = False
    for workload in args.workload or names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(1, args.runs + 1):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE,
                                  universal_newlines=True)
            if proc.returncode != 0:
                print("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        print("\n%s (%d runs)" % (workload, args.runs))
        for metric in bench["end_to_end"]:
            series = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metric["bound"]
            flag = spread > bound / 3
            flagged = flagged or flag
            summary[workload][metric["name"]] = {
                "median": med, "spread": spread, "bound": bound,
                "values": series}
            print("  %-20s median %14.4f %-4s spread %6.3f  bound %.2f%s" % (
                metric["name"], med, metric["unit"], spread, bound,
                "  <-- above bound/3" if flag else ""))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
