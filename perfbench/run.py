#!/usr/bin/env python3
"""Builds and runs the GENIE end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py \
        --workload <ann_stream|serve_mixed|remote_scatter> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the library straight from
src/ plus the benchmark binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only re-check the build. Build output and
the benchmark's diagnostics go to stderr; the last line of stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ann_stream", "serve_mixed", "remote_scatter")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", "4"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "genie_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("perfbench: benchmark printed no result", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
