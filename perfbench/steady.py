"""Steadiness check for the benchmark in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10 [--workloads kernel-forms,tables] [--counts]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and reports,
for every end-to-end metric, the median and the spread: the distance
between the first and third quartiles of the per-seed values as a share of
their median. A spread above a third of the metric's bound is flagged.

Each run's output is kept in .perfbench/steady/. With --counts it also
runs every workload twice with --trace 1 on the first seed and requires
each per-layer count (unit "count") to repeat exactly.
Exits 1 when a run fails, a spread is flagged or a count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.monotonic() - t0
    log = ROOT / ".perfbench" / "steady" / f"{workload}-seed{seed}-trace{trace}.txt"
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed items\n{proc.stderr}")
    print(f"  {workload} seed {seed} trace {trace}: {wall:.1f} s wall, {result['attempted']} items", flush=True)
    return result["metrics"]


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default="", help="comma separated; default all")
    ap.add_argument("--counts", action="store_true", help="also require per-layer counts to repeat")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in names:
        per_seed = [run(bench, workload, seed, 0) for seed in seeds]
        print(f"{workload}: {len(seeds)} seeds")
        for metric in bench["end_to_end"]:
            values = [m[metric["name"]]["value"] for m in per_seed]
            s = spread(values) if len(values) >= 2 else 0.0
            flag = ""
            if s > metric["bound"] / 3:
                flag = "  <- above a third of the bound"
                ok = False
            print(
                f"  {metric['name']:18s} median {statistics.median(values):12.6g} {metric['unit']:6s}"
                f" spread {s:7.2%} (bound {metric['bound']:.0%}){flag}"
            )
        if args.counts:
            first, second = (run(bench, workload, seeds[0], 1) for _ in range(2))
            for metric in bench["per_layer"]:
                if metric["unit"] != "count":
                    continue
                a, b = first[metric["name"]]["value"], second[metric["name"]]["value"]
                same = "repeats" if a == b else "DIFFERS"
                ok = ok and a == b
                print(f"  {metric['name']:30s} {a!r:>12} {b!r:>12} {same}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
