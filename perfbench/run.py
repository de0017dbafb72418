#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the resilsim command line.

Each run drives the real CLI (``python -m resilsim``) as child processes,
one at a time: a closed loop with a single client. Run from the root of a
checkout::

    python3 perfbench/run.py --workload channel-bursty --seed 17 --seconds 30 --trace 0
    python3 perfbench/run.py --record-golden

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
plain and traced invocations (see ``traced.py``) and reports the
per-layer metrics. A detail report (samples, digests, environment) is
printed first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Timing uses ``time.perf_counter`` only; CPU time and peak RSS come from
``os.wait4`` for each child, never from ``RUSAGE_CHILDREN``, whose
``ru_maxrss`` is a high-water mark over every child so far.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from traced import SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
GOLDEN_PATH = HERE / "golden.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
TRACED = HERE / "traced.py"

RUN_BUDGET_S = 170.0  # every run must end within 180 s
MIN_REPS = 3
SETUP_REPS = 2  # after each measured invocation


# ---------------------------------------------------------------------------
# Workloads


def _bursty_config(seed: int) -> dict:
    """The README's 3-protocol channel config at 40 000 steps."""
    window_max = {"kind": "window_max", "window": 8}
    return {
        "channel": {"kind": "bursty", "p_enter": 0.05, "p_exit": 0.3,
                    "y_calm": 1, "y_burst": 5, "burst_correlated": True},
        "steps": 40_000,
        "seed": seed,
        "protocols": [
            {"kind": "elastic", "yield_point": 6},
            {"kind": "entelechial", "predictor": window_max, "epsilon": 1.5},
            {"kind": "antifragile", "predictor": window_max, "epsilon": 1.5,
             "epochs_per_review": 50,
             "identity_profile": {"kind": "teleconferencing", "jitter_bound": 0.5}},
        ],
    }


def _walk_config(seed: int) -> dict:
    return {
        "channel": {"kind": "random_walk", "y0": 3, "step_prob": 0.2,
                    "min": 1, "max": 6},
        "steps": 100_000,
        "seed": seed,
        "protocols": [
            {"kind": "elastic", "yield_point": 7},
            {"kind": "entelechial", "predictor": {"kind": "ewma_slope"},
             "epsilon": 1.5},
        ],
    }


@dataclass(frozen=True)
class Workload:
    default_seed: int
    subcommand: str
    config: Callable[[int], dict]
    steps: int  # simulated steps per invocation, for steps_per_s
    flags: tuple[str, ...] = ()

    def cli_args(self) -> list[str]:
        return [self.subcommand, "-c", "config.json", "-o", "out", *self.flags]


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    "channel-bursty": Workload(
        default_seed=17,
        subcommand="channel",
        config=_bursty_config,
        steps=3 * 40_000,
    ),
    "channel-walk": Workload(
        default_seed=5,
        subcommand="channel",
        config=_walk_config,
        steps=2 * 100_000,
    ),
    "sentinel-batch": Workload(
        default_seed=0,
        subcommand="sentinel",
        config=lambda seed: {"steps": 500, "seed": seed},
        # survival_rate also runs the no-canary baseline
        steps=200 * 500 * 2,
        flags=("--runs", "200"),
    ),
    "sentinel-pool": Workload(
        default_seed=3,
        subcommand="sentinel",
        config=lambda seed: {"pool_size": 10_000, "steps": 2_000, "seed": seed},
        steps=2_000,
        flags=("--curve", "100000"),
    ),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# Per-layer metrics that are not a span's ``calls`` or ``self_s``.
DERIVED = {
    "channel.store_hit_ratio": lambda stats: _ratio(stats["store_hits"],
                                                    stats["store_gets"]),
    "sentinel.steps_simulated": lambda stats: stats["steps_simulated"],
    "sentinel.useful_step_ratio": lambda stats: _ratio(stats["useful_steps"],
                                                       stats["steps_simulated"]),
    "cli.bytes_out": lambda stats: stats["bytes_out"],
}


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stderr: str


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def invoke(argv: list[str], cwd: Path, timeout: float) -> Invocation:
    """Run one child to completion; resources come from its own rusage."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        exit_code=proc.returncode,
        stderr=err_path.read_text(errors="replace")[-2000:],
    )


def digests(out_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def bytes_out(out_dir: Path) -> int:
    return sum(path.stat().st_size for path in out_dir.iterdir())


def prepare(work: Path, workload: Workload, seed: int) -> Path:
    """A directory holding config.json; every invocation passes that fixed path."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "config.json").write_text(
        json.dumps(workload.config(seed), indent=2, sort_keys=True) + "\n")
    return work


def fresh_out(work: Path) -> Path:
    """Each repetition writes into an empty directory, so the store starts cold."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    return out


def resilsim_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "resilsim", *args]


# ---------------------------------------------------------------------------
# Checks


@dataclass
class Ledger:
    """Invocations attempted and failed; a failure is a bad exit or wrong output."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, run: Invocation, problem: str | None = None) -> bool:
        self.attempted += 1
        if run.exit_code != 0:
            problem = f"exit {run.exit_code}: {run.stderr.strip()[-300:]}"
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
            return False
        return True


def digest_problem(got: dict[str, str], want: dict[str, str]) -> str | None:
    if got == want:
        return None
    differing = sorted(name for name in set(got) | set(want)
                       if got.get(name) != want.get(name))
    return f"output differs in {', '.join(differing)}"


# ---------------------------------------------------------------------------
# Reporting


def summarize(values: list[float]) -> dict:
    """Median, min and max, plus the highest percentile with ten samples
    beyond it, named only when it lies above the median (22 samples or more).
    """
    n = len(values)
    ordered = sorted(values)
    summary = {"n": n, "median": statistics.median(values),
               "min": ordered[0], "max": ordered[-1]}
    if n >= 22:
        summary[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    else:
        summary["tail"] = (f"not resolvable from {n} samples; "
                           "max is the slowest seen")
    return summary


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "timer": "time.perf_counter wall time; os.wait4 rusage per child for "
                 "CPU time and peak RSS; no pytest-benchmark",
        "loop": "closed loop, one client, one child process at a time",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Runs


def measure_setup(work: Path, ledger: Ledger, deadline: float) -> list[float]:
    """Wall times of ``resilsim --version``: interpreter, imports and parser."""
    walls = []
    for _ in range(SETUP_REPS):
        run = invoke(resilsim_argv(["--version"]), work, deadline - time.perf_counter())
        if ledger.record("setup", run):
            walls.append(run.wall_s)
    return walls


def golden_check(workload: Workload, golden: dict[str, str], work: Path,
                 ledger: Ledger, deadline: float) -> bool:
    """One invocation at the default seed, compared with the recorded digests."""
    cwd = prepare(work / "golden", workload, workload.default_seed)
    out = fresh_out(cwd)
    run = invoke(resilsim_argv(workload.cli_args()), cwd, deadline - time.perf_counter())
    problem = None if run.exit_code else digest_problem(digests(out), golden)
    return ledger.record(f"golden seed {workload.default_seed}", run, problem)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    work = WORK / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    plain: list[Invocation] = []
    traced: list[tuple[Invocation, dict]] = []
    setup: list[float] = []
    try:
        golden = json.loads(GOLDEN_PATH.read_text())[name]["files"]
        # Also the warm-up: it fills the page cache and compiles bytecode.
        golden_ok = golden_check(workload, golden, work, ledger, deadline)

        cwd = prepare(work / "measure", workload, seed)
        reference = golden if seed == workload.default_seed else None
        window_end = time.perf_counter() + seconds
        last = {False: 0.0, True: 0.0}  # duration of the last rep of each kind
        for attempt in itertools.count():
            use_tracer = trace and len(traced) < len(plain)
            reps = min(len(plain), len(traced)) if trace else len(plain)
            now = time.perf_counter()
            if reps >= MIN_REPS and now + last[use_tracer] > window_end:
                break
            if now >= window_end and attempt >= 4 * MIN_REPS:
                break  # nearly every invocation fails
            if attempt and now + 2 * max(last.values()) > deadline:
                break
            out = fresh_out(cwd)
            stats_path = cwd / "stats.json"
            args = workload.cli_args()
            argv = ([sys.executable, str(TRACED), str(stats_path), "--", *args]
                    if use_tracer else resilsim_argv(args))
            run = invoke(argv, cwd, deadline - now)
            got = digests(out) if out.is_dir() else {}
            problem = None
            if run.exit_code == 0:
                if reference is None:
                    reference = got
                problem = digest_problem(got, reference)
                if use_tracer:
                    stats = json.loads(stats_path.read_text())
                    stats["bytes_out"] = bytes_out(out)
                    if stats["missing"]:
                        # A vanished layer would read 0, a false gain.
                        problem = ("layer functions not found: "
                                   + ", ".join(stats["missing"]))
            if ledger.record(f"{'traced' if use_tracer else 'plain'} rep {attempt}",
                             run, problem):
                if use_tracer:
                    traced.append((run, stats))
                else:
                    plain.append(run)
            if not trace:
                # Spread the set-up samples over the window like the others.
                setup += measure_setup(work, ledger, deadline)
            last[use_tracer] = time.perf_counter() - now
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not plain or (trace and not traced):
        raise SystemExit("no successful invocation: " + "; ".join(ledger.failures[-3:]))

    samples = {
        "wall_s": [run.wall_s for run in plain],
        "cpu_s": [run.cpu_s for run in plain],
        "peak_rss_mb": [run.peak_rss_mb for run in plain],
        "steps_per_s": [workload.steps / run.wall_s for run in plain],
    }
    if trace:
        samples["traced_wall_s"] = [run.wall_s for run, _ in traced]
        metrics = per_layer_metrics(traced, samples)
    else:
        samples["setup_s"] = setup
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(statistics.median(samples["wall_s"]), "s"),
            "cpu_s": metric(statistics.median(samples["cpu_s"]), "s"),
            "steps_per_s": metric(statistics.median(samples["steps_per_s"]), "1/s"),
            "peak_rss_mb": metric(statistics.median(samples["peak_rss_mb"]), "MB"),
        }
    failed = len(ledger.failures)
    detail = {
        "workload": name,
        "seed": seed,
        "default_seed": workload.default_seed,
        "trace": int(trace),
        "seconds": seconds,
        "simulated_steps_per_invocation": workload.steps,
        "environment": environment(),
        "summary": {key: summarize(values) for key, values in samples.items() if values},
        "samples": samples,
        "golden_match": golden_ok,
        "digests": reference,
        "failed_frac": failed / ledger.attempted,
        "failures": ledger.failures,
        "run_s": time.perf_counter() - started,
    }
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def per_layer_metrics(traced: list[tuple[Invocation, dict]], samples: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json, as a median over traced invocations."""
    metrics = {}
    for entry in json.loads(BENCHMARK_PATH.read_text())["per_layer"]:
        name = entry["name"]
        if name == "trace.overhead_s":
            value = (statistics.median(samples["traced_wall_s"])
                     - statistics.median(samples["wall_s"]))
        elif name in DERIVED:
            value = statistics.median(DERIVED[name](stats) for _, stats in traced)
        else:
            span, _, kind = name.rpartition(".")  # kind is "calls" or "self_s"
            if span not in SPANS:
                raise SystemExit(f"per-layer metric {name}: {span} is not traced")
            value = statistics.median(stats[kind].get(span, 0) for _, stats in traced)
        metrics[name] = metric(value, entry["unit"])
    return metrics


def record_golden() -> None:
    """Write golden.json: sha256 of every output file at each default seed."""
    golden = {}
    for name, workload in WORKLOADS.items():
        cwd = prepare(WORK / f"golden-{name}", workload, workload.default_seed)
        out = fresh_out(cwd)
        run = invoke(resilsim_argv(workload.cli_args()), cwd, RUN_BUDGET_S)
        if run.exit_code != 0:
            raise SystemExit(f"{name}: exit {run.exit_code}\n{run.stderr}")
        golden[name] = {
            "seed": workload.default_seed,
            "args": workload.cli_args(),
            "config": workload.config(workload.default_seed),
            "files": digests(out),
        }
        shutil.rmtree(cwd)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the code in src/")
    args = parser.parse_args()
    if not (SRC / "resilsim" / "cli.py").is_file():
        print(f"error: no resilsim package under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    detail, result = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
