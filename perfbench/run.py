#!/usr/bin/env python3
"""Build and run the end-to-end debugging-loop benchmark.

    python3 perfbench/run.py --workload gdb-record --seed 1 --seconds 10 --trace 0

Workloads: gdb-record, step-inspect, time-travel, or all. The script
builds perfbench/ (which compiles the simulator straight from src/) with
CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset, then
runs the benchmark from the repository root. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
See perfbench/README.md for what is measured.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must end within 180 s; this leaves room to clean up.
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    scratch = os.path.join(out, "scratch-%d" % os.getpid())
    cmd = [os.path.join(out, "perfbench")] + sys.argv[1:] + [
        "--scratch", scratch]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
