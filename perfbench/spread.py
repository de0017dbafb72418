#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage::

    python3 perfbench/spread.py --workload sentinel-pool --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per seed, one after another, each for
BENCHMARK.json's ``run_seconds``, and prints for each end-to-end metric its
median over the runs and the distance between the first and third quartile
as a share of that median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])

    for name, series in sorted(values.items()):
        median = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("nan")
        else:
            spread = float("nan")
        print(f"{name:15s} median {median:<14.6g} spread {spread:7.2%}"
              f"  bound {bounds[name]:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
