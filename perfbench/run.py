#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one benchmark run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of the source tree. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench): a Release
CMake build of perfbench/CMakeLists.txt, which compiles the asyncit
library from the enclosing tree. Build output goes to build.log there,
never to stdout, so the last line of stdout is the benchmark's result
object. --trace 1 also writes the median traced call's per-rank ledger
(aggregates and span samples) to ledgers/ in the build directory.

Exits non-zero, printing no result, when the build or the run fails.
See perfbench/README.md for the workloads, metrics and seeds.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sim_lasso_delta", "sim_dense_1000", "threads_jacobi_2m",
             "threads_psgd_tap"]
DEFAULT_SEED = 1
# Held out: never used while tuning the benchmark or a change; a claimed
# gain must also hold on it.
HOLDOUT_SEED = 7919
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                print(f"perfbench: {cmd[0]} failed: {e}", file=sys.stderr)
                return False
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                print(f"perfbench: build failed ({' '.join(cmd)}):\n{tail}",
                      file=sys.stderr)
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        return 1
    ledgers = os.path.join(build_dir, "ledgers")
    os.makedirs(ledgers, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", ledgers]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
