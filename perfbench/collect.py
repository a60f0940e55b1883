#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/collect.py --seeds 1-10 [--workloads via_rule,via_camo]
                                 [--trace-seed 1] [--out summary.json]

Runs every workload once per seed untraced, then (with --trace-seed) once
traced, and prints per metric the median, the quartiles and the spread
(interquartile distance over the median, quartiles as
statistics.quantiles(values, n=4) gives them), with the sample count. The
spread is what BENCHMARK.json's bounds are judged against.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
    return result, wall


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    seeds = seeds_of(args.seeds)
    summary = {"seeds": seeds,
               "host": {"cpus": len(os.sched_getaffinity(0)), "machine": platform.machine()},
               "workloads": {}}
    for workload in args.workloads.split(","):
        values, walls = {}, []
        for seed in seeds:
            result, wall = run(workload, seed, bench["run_seconds"], 0)
            walls.append(wall)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)
        entry = {"runs": len(walls), "run_wall_s_median": statistics.median(walls),
                 "end_to_end": {}}
        print(f"\n{workload}: {len(walls)} runs, median run wall {statistics.median(walls):.1f} s")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            entry["end_to_end"][name] = {"n": len(vals), "median": med, "q1": q1, "q3": q3,
                                         "spread": spread}
            print(f"  {name:18s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f}")
        if args.trace_seed is not None:
            result, _ = run(workload, args.trace_seed, bench["run_seconds"], 1)
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
