#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload N times, each with its own seed, and prints for every
end-to-end metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json. Spreads above a third of
the bound are marked. It also checks that the share of failed operations
is the same in every run.

    python3 perfbench/steadiness.py --workload paper-stable --runs 10
    python3 perfbench/steadiness.py --workload bus-restart --runs 10 \\
        --other /path/to/other/checkout

With --other, runs alternate between this checkout and the other one
(each must hold perfbench/ and src/) and each side is summarised on its
own, together with the ratio of the medians. This is the source of the
bounds in BENCHMARK.json and of the spreads recorded in the README.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def summarise(label, results, bounds):
    print("== %s: %d runs" % (label, len(results)))
    shares = {r["failed"] / r["attempted"] for r in results}
    print("failed share per run: %s" % sorted(shares))
    names = list(results[0]["metrics"].keys())
    for i, r in enumerate(results):
        print("run %2d: %s" % (i + 1, " ".join(
            "%.4g" % r["metrics"][name]["value"] for name in names)))
    medians = {}
    print("%-26s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        medians[name] = med
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            mark = "  <-- above bound/3"
        print("%-26s %14.6g %14.6g %14.6g %8.4f %6s%s" %
              (name, med, q1, q3, spread,
               "-" if bound is None else "%.2f" % bound, mark))
    return medians


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--other", default=None,
                        help="second checkout to alternate with")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    roots = [ROOT] if args.other is None else [ROOT, os.path.abspath(args.other)]
    results = {root: [] for root in roots}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = roots if i % 2 == 0 else list(reversed(roots))
        for root in order:
            results[root].append(run_once(root, args.workload, seed, seconds))
            print("run %d seed %d done (%s)" % (i + 1, seed, root),
                  file=sys.stderr)

    medians = [summarise(root, results[root], bounds) for root in roots]
    if len(medians) == 2:
        print("== median ratio (other / this)")
        for name, value in medians[0].items():
            ratio = medians[1][name] / value if value else float("inf")
            print("%-26s %8.4f" % (name, ratio))


if __name__ == "__main__":
    main()
