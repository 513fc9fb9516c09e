#!/usr/bin/env python3
"""Builds the end-to-end PaQL benchmark from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload exact_mix --seed 1 --seconds 15 --trace 0

The first run configures and builds the program's library, pbserve and the
harness into .bench_build/e2ebench (Release); later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
harness's JSON result. The exit code is the harness's, or 1 when the build
fails (for instance when the program's sources are missing).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "pbbench", "pbserve"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("e2ebench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [os.path.join(BUILD, "pbbench")] + sys.argv[1:] + [
        "--pbserve", os.path.join(BUILD, "pbserve"), "--build-dir", BUILD]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
