#!/usr/bin/env python3
"""Builds railbench from source (first use only) and runs one workload.

Usage, from the root of the repository:

    python3 railbench/run.py --workload <torus_eager|pair_rdv_open|pair_eager_burst|all>
                             --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/railbench (CMake, Release). Build output goes
to stderr, so the last line on stdout is always the benchmark's JSON result.
With --trace 1 the first traced pass's spans are written as JSON lines to
.bench_build/spans/<workload>.jsonl. See railbench/README.md for the metrics.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "railbench")
EXE = os.path.join(BUILD, "railbench")


def build():
    """Configures once, then lets the build tool decide what is stale.

    A lock file serialises concurrent first runs on one checkout."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return configure_and_build()


def configure_and_build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not build():
        print("railbench: build failed", file=sys.stderr)
        return 1
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, args.workload + ".jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
