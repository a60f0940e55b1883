#!/usr/bin/env python3
"""Build and run the CAMO benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload via_rule --seed 1 --seconds 10 --trace 0

Builds the library and the harness from source (CMake, Release) under the
build root -- $CARGO_TARGET_DIR if set, else .bench_build -- then runs one
workload. Each run gets a fresh work directory (kernel cache) under the build
root, removed afterwards; a traced run's Chrome trace is kept as
<build root>/perfbench/traces/<workload>-seed<seed>.json. The harness prints
human-readable detail first; the last line of standard output is the JSON
result.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configure and build the harness; build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("library sources (CMakeLists.txt, src/) not found next to perfbench/")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "--target", "perfbench_harness",
                     "-j", jobs]):
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_harness")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    harness = build(build_root)
    work = os.path.join(build_root, "perfbench", "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    sys.stdout.flush()
    try:
        proc = subprocess.run(
            [harness, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work],
            timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 3
    finally:
        trace = os.path.join(work, "trace.json")
        if os.path.isfile(trace):
            kept = os.path.join(build_root, "perfbench", "traces",
                                f"{args.workload}-seed{args.seed}.json")
            os.makedirs(os.path.dirname(kept), exist_ok=True)
            os.replace(trace, kept)
            print(f"perfbench: chrome trace {kept}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
