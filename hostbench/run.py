#!/usr/bin/env python3
"""Builds the host-clock benchmark from this checkout and runs it.

    python3 hostbench/run.py --workload legacy --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/hostbench
(default .bench_build/hostbench) and is incremental. Build output goes to
stderr, so the benchmark's JSON result stays the last line of stdout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main():
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                         "hostbench")
    steps = [["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build, "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("hostbench: build failed")
    try:
        r = subprocess.run([os.path.join(build, "hostbench")] + sys.argv[1:],
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("hostbench: run timed out")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
