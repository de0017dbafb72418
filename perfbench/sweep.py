#!/usr/bin/env python3
"""Size sweep: time the simulator entry points from 10^3 to 10^6 steps.

Usage::

    python3 perfbench/sweep.py

Each point runs in a fresh child process, which times the one call with
``time.perf_counter`` and reports it; peak RSS comes from ``os.wait4``.
Before a point runs, its time is predicted from the previous points; a
point predicted to exceed the budget of BUDGET_S seconds is recorded as
skipped, not run, and so are all larger points of that function. The report gives
the least-squares log-log slope of time against steps over the points
that took at least 10 ms, so the complexity class shows: about 1 for a
linear pass, about 2 for a quadratic one. Fixed per-call costs flatten
the small sizes, so it also gives the slope between the two largest
points measured. The sweep is reported, not gated.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time

from run import SRC, WORK, environment, invoke

SIZES = (1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000)
FUNCTIONS = ("run_elastic", "run_entelechial", "run_antifragile", "simulate")
MIN_FIT_S = 0.01
BUDGET_S = 30.0  # per point
SEED = 17


def time_point(function: str, steps: int) -> float:
    """Build the inputs, then time one call (runs inside the child)."""
    sys.path.insert(0, str(SRC))
    from resilsim import channel, sentinel

    # The inputs of the channel-bursty and channel-walk workloads, at any size.
    if function == "simulate":
        fn, args = sentinel.simulate, (sentinel.Scenario(), steps, SEED)
    elif function == "run_antifragile":
        trace = channel.generate_trace(channel.BurstyChannel(
            p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=SEED), steps)
        config = channel.AntifragileEvolving(
            predictor=channel.WindowMax(8), epsilon=1.5, epochs_per_review=50,
            identity_profile=channel.Teleconferencing(jitter_bound=0.5))
        fn, args = channel.run_antifragile, (trace, config, channel.KnowledgeStore())
    else:
        trace = channel.generate_trace(channel.RandomWalkChannel(
            y0=3, step_prob=0.2, y_min=1, y_max=6, seed=SEED), steps)
        if function == "run_elastic":
            fn, args = channel.run_elastic, (trace, 7)
        else:
            fn, args = channel.run_entelechial, (trace, channel.EwmaPlusSlope(), 1.5)
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def slope(points: list[dict]) -> float | None:
    measured = [(math.log(p["steps"]), math.log(p["seconds"]))
                for p in points if p.get("seconds", 0.0) >= MIN_FIT_S]
    if len(measured) < 2:
        return None
    mean_x = sum(x for x, _ in measured) / len(measured)
    mean_y = sum(y for _, y in measured) / len(measured)
    sxx = sum((x - mean_x) ** 2 for x, _ in measured)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in measured)
    return sxy / sxx


def predict(points: list[dict], steps: int) -> float:
    """Time from the last two points' local slope, taken as at least 1."""
    last = points[-1]
    ratio = steps / last["steps"]
    exponent = 1.0
    if len(points) >= 2 and points[-2]["seconds"] >= MIN_FIT_S:
        before = points[-2]
        exponent = max(1.0, math.log(last["seconds"] / before["seconds"])
                       / math.log(last["steps"] / before["steps"]))
    return last["seconds"] * ratio ** exponent


def sweep(function: str) -> dict:
    work = WORK / f"sweep-{function}"
    work.mkdir(parents=True, exist_ok=True)
    points: list[dict] = []
    skipping = None
    for steps in SIZES:
        if skipping is None and points:
            seconds = predict(points, steps)
            if seconds > BUDGET_S:
                skipping = f"predicted {seconds:.1f} s > budget {BUDGET_S:g} s"
        if skipping is not None:
            points.append({"steps": steps, "skipped": skipping})
            continue
        run = invoke([sys.executable, __file__, "--point", function, str(steps)],
                     work, 3 * BUDGET_S)
        if run.exit_code != 0:
            raise SystemExit(f"{function} at {steps} steps: exit {run.exit_code}\n"
                             f"{run.stderr}")
        seconds = float((work / "point.txt").read_text())
        points.append({"steps": steps, "seconds": seconds,
                       "peak_rss_mb": run.peak_rss_mb})
        print(f"{function:16s} {steps:>9d} steps {seconds:9.4f} s "
              f"{run.peak_rss_mb:7.1f} MB", file=sys.stderr, flush=True)
    shutil.rmtree(work)
    measured = [point for point in points if "seconds" in point]
    return {"slope": slope(points), "slope_largest_two": slope(measured[-2:]),
            "points": points}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--point", nargs=2, metavar=("FUNCTION", "STEPS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point:
        seconds = time_point(args.point[0], int(args.point[1]))
        (WORK / f"sweep-{args.point[0]}" / "point.txt").write_text(repr(seconds))
        return 0
    report = {
        "environment": environment(),
        "seed": SEED,
        "budget_s": BUDGET_S,
        "functions": {name: sweep(name) for name in FUNCTIONS},
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
