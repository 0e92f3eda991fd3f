#!/usr/bin/env python3
"""Runs one steerbench workload (see steerbench/BENCHMARK.md).

    python3 steerbench/run.py --workload solo_steer --seed 1 --seconds 10 --trace 0

Builds the benchmark and the steersim libraries from this checkout's
sources on first use (into $CARGO_TARGET_DIR, default .bench_build), then
runs the benchmark binary from the checkout root. Everything the benchmark
prints goes to stdout; its last line is the JSON result. Build output goes
to <build dir>/steerbench-build.log and, on failure, to stderr.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solo_steer", "solo_traced", "quad_fabric", "svc_mixed")


def fail(message, code=1):
    print(f"steerbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    log_path = os.path.join(build_dir, "steerbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    commands = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    commands.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for command in commands:
            result = subprocess.run(command, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT)
            if result.returncode != 0:
                log.close()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail(f"build failed: {' '.join(command)}")
    return os.path.join(build_dir, "steerbench")


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none (not a git checkout)"
    result = subprocess.run(
        ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
        capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where git is unavailable."""
    digest = hashlib.sha256()
    for top in ("src", "steerbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]", 2)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no steersim sources under {ROOT}/src", 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--git-describe", git_describe(),
               "--source-digest", source_digest(),
               "--out-dir", ".bench_out"]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
