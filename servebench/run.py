#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the daemon under test
(`sample_cli serve`) and the benchmark program from source into
`.bench_build/servebench` (Release), then runs one measurement. Build
output goes to stderr; the last stdout line is the JSON result. Exits
non-zero when the build fails, the run fails, or any output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pipelined-draws", "cold-arrivals", "distilled-features")
BUILD_DIR = os.path.join(".bench_build", "servebench")


def build() -> None:
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "sample_cli", "servebench", "-j", jobs],
        check=True,
        stdout=sys.stderr,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"servebench: build failed: {error}", file=sys.stderr)
        return 2
    command = [
        os.path.join(BUILD_DIR, "servebench"),
        "--daemon", os.path.join(BUILD_DIR, "sample_cli"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
