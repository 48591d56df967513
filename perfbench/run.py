#!/usr/bin/env python3
"""Builds the benchmark and runs it once.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is its own cargo package
(perfbench/Cargo.toml) with path dependencies on the repository's crates;
it is built in release mode, offline, into $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is the run's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "fc-perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
