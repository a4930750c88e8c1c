#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md in this directory).

Run from the repository root:

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2e_bench/run.py --selftest

The first call configures and builds e2e_bench/ (which compiles the
repository's src/ tree) under $CARGO_TARGET_DIR, or .bench_build when that is
unset. The benchmark's own output is passed through; its last line is the
JSON result. A traced run also writes a Chrome trace under the build
directory's traces/ folder. The exit code is the benchmark's: 0 when every
output passed the correctness gate.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2e_bench")


def build(directory):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the repository's src/ tree is missing; nothing to build")
    configure = ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", directory, "--parallel", jobs,
                  "--target", "e2e_bench", "e2e_selftest"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(step)}")


def source_id():
    """The git commit when there is one, and a digest of the sources either way."""
    digest = hashlib.sha256()
    for top in ("src", "e2e_bench", "examples"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "no-git"
    return f"{commit}+src-{digest.hexdigest()[:16]}"


def expected_metrics(traced):
    """Metric names BENCHMARK.json promises for this kind of run, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"] for metric in spec["per_layer" if traced else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    directory = build_dir()
    build(directory)
    binaries = os.path.join(directory, "bin")
    if args.selftest:
        return subprocess.run([os.path.join(binaries, "e2e_selftest")], check=False).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    command = [os.path.join(binaries, "e2e_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", source_id()]
    if args.trace:
        traces = os.path.join(directory, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: the benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode

    result = json.loads(done.stdout.strip().splitlines()[-1])
    expected = expected_metrics(args.trace == 1)
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        print(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
