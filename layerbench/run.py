#!/usr/bin/env python3
"""Build the layered MBPlib benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 layerbench/run.py --workload cold-trace --seed 1 --seconds 10 --trace 0

Every argument is passed to mbp_layerbench (see layerbench/src/main.cpp).
The build lives under $CARGO_TARGET_DIR (default .bench_build); build output
goes to stderr so that the last line of stdout is the benchmark's result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "mbp_layerbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "mbp_layerbench")


def main():
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(root, "layerbench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"layerbench: build failed: {err}", file=sys.stderr)
        return 1
    args = [exe, *sys.argv[1:]]
    if "--work-dir" not in sys.argv:
        args += ["--work-dir", os.path.join(root, "layerbench-work")]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
