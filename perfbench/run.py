#!/usr/bin/env python3
"""Builds and runs the APQA service benchmark (service_bench.cc).

Run from the repository root:

    python3 perfbench/run.py --workload range-q6 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (and the library from src/)
into the directory named by CARGO_TARGET_DIR, default .bench_build; later
calls rebuild incrementally. The benchmark's stdout passes through unchanged,
so its last line is the JSON result. Build output goes to stderr.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run takes at most ~100 s; anything past this is a hang.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build(build_dir):
    tree = os.path.join(build_dir, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", tree, "--target", "service_bench",
         "-j", BUILD_JOBS],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(tree, "service_bench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    # The SP's journal and snapshot live here for the length of one run.
    state_dir = os.path.join(build_dir, "state-%d" % os.getpid())
    shutil.rmtree(state_dir, ignore_errors=True)
    try:
        proc = subprocess.run([binary] + sys.argv[1:] +
                              ["--state-dir", state_dir],
                              timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
