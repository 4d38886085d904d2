#!/usr/bin/env python3
"""Builds and runs the peercache benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-stable --seed 1 --seconds 20 --trace 0

The first call configures and compiles the library sources under src/ and
the benchmark program under perfbench/cpp/ into .bench_build/perfbench
(Release); later calls only re-run the incremental build. Build output
goes to stderr, so the last line on stdout is the program's JSON result.
The exit status is the program's: 0 only when every correctness check
passed, 2 when the library sources are missing or the build fails.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "peercache_perfbench")


def build():
    """Configures on first use, then builds; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "peercache.h")):
        print("perfbench: library sources not found under src/", file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "2"])
        for step in steps:
            if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
                return False
    return True


def main():
    if not build():
        return 2
    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        return subprocess.call([BINARY] + sys.argv[1:] + ["--workdir", workdir])
    finally:
        for name in os.listdir(workdir):
            if name.endswith(".peercache"):
                os.remove(os.path.join(workdir, name))
        if not os.listdir(workdir):
            os.rmdir(workdir)


if __name__ == "__main__":
    sys.exit(main())
