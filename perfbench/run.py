#!/usr/bin/env python3
"""Build and run the PREPARE benchmark.

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the repository's src/ libraries plus the
prepare_perfbench program) with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs prepare_perfbench.
Build output goes to stderr; stdout carries only the program's lines, the
last of which is the result object. When --seed is the seed recorded in
perfbench/golden.json, the run must also reproduce the recorded decision
checksum. The exit code is non-zero when the build fails or any output
check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_mix", "consolidated", "trace_accuracy")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(directory):
    steps = (
        ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", directory, "-j", "2"],
    )
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    directory = build_dir()
    if not build(directory):
        return 1

    cmd = [
        os.path.join(directory, "prepare_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    if args.seed == golden["seed"]:
        cmd += ["--expect-checksum", golden["checksums"][args.workload]]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
