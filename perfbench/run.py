#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the Joza-protected testbed.

Run from the repository root:

    python3 perfbench/run.py --workload wp_read --seed 1 --seconds 20 --trace 0

Workloads: wp_read, wp_write, sqlmap_scan, tenant_zipf (see BENCHMARK.json
for why each exists). The first run configures and compiles perfbench/, which
compiles the engine from src/, into $CARGO_TARGET_DIR (default .bench_build);
later runs only re-check the build. Build output goes to standard error. The
last line of standard output is the result JSON: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. A traced run also writes its
spans and self-time roll-up to <build dir>/traces/<workload>.spans.jsonl.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wp_read", "wp_write", "sqlmap_scan", "tenant_zipf")
# Limit on the measured run after the build (a first run also builds, which
# may take longer; later runs only spend about a second re-checking it).
DEADLINE_S = 165


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("engine sources (src/) not found beside perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "joza_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "joza_perfbench")


def bench_command(binary, workload, seed, seconds, trace, scratch,
                  extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", scratch]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload, overwritten by each traced run: a span log
        # is 15 to 25 MB.
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}.spans.jsonl")]
    return cmd + list(extra)


def scratch_dir(workload):
    path = os.path.join(build_dir(), "runs", f"{workload}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    scratch = scratch_dir(args.workload)
    try:
        proc = subprocess.run(
            bench_command(binary, args.workload, args.seed, args.seconds,
                          args.trace == 1, scratch),
            timeout=DEADLINE_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
