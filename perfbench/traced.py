#!/usr/bin/env python3
"""Run the resilsim CLI in-process with per-layer spans; write their totals.

Usage::

    python3 perfbench/traced.py STATS.json -- channel -c config.json -o out

The public functions of each layer are wrapped from here, without touching
the package: a wrapper replaces every module attribute that refers to the
original function (``resilsim.cli`` imports ``run_*``, ``simulate`` and the
writers by name; ``channel`` calls ``shooting`` through its own globals;
``survival_rate`` calls ``resilsim.sentinel.simulate``), and methods are
replaced on their class. Calls are single-threaded and nested, so a span's
self time is its duration minus the durations of the spans it directly
encloses. Spans are folded into per-name totals as they close instead of
being kept: the per-step wrappers close hundreds of thousands of spans.

STATS.json gets ``calls`` and ``self_s`` per name, the knowledge-store
``get`` hits, the sentinel steps simulated and the useful ones among them
(up to the step where the miner evacuated or died), and the names that
could not be found.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

SPANS = (
    "cli.main",
    "channel.generate_trace",
    "channel.run_elastic",
    "channel.run_entelechial",
    "channel.run_antifragile",
    "channel.burstiness",
    "channel.mean_step_fit",
    "channel.compare_runs",
    "channel.step_csv_rows",
    "channel.KnowledgeStore.get",
    "channel.KnowledgeStore.save",
    "fitness.shooting",
    "sentinel.simulate",
    "sentinel.survival_rate",
    "sentinel.estimate_supply",
    "sentinel.estimate_fit",
    "sentinel.CanaryPool.step_threatened",
    "sentinel.scenario_csv_rows",
    "sentinel.supply_fit_curve",
)
MODULES = ("cli", "channel", "fitness", "sentinel")


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.store_gets = 0
        self.store_hits = 0
        self.steps_simulated = 0
        self.useful_steps = 0
        self.missing: list[str] = []
        self._enclosing: list[list[float]] = []

    def wrap(self, name: str, fn):
        calls, self_s, enclosing = self.calls, self.self_s, self._enclosing
        clock = time.perf_counter
        observe = {
            "channel.KnowledgeStore.get": self._observe_get,
            "sentinel.simulate": self._observe_simulate,
        }.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            enclosing.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                enclosing.pop()
                calls[name] += 1
                self_s[name] += elapsed - children[0]
                if enclosing:
                    enclosing[-1][0] += elapsed
            if observe is not None:
                observe(result)
            return result

        return span

    def _observe_get(self, entry) -> None:
        self.store_gets += 1
        self.store_hits += entry is not None

    def _observe_simulate(self, run) -> None:
        steps = len(run.steps)
        ends = [s for s in (run.evacuation_step, run.miner_failed_step) if s is not None]
        self.steps_simulated += steps
        self.useful_steps += min(ends) + 1 if ends else steps

    def install(self) -> None:
        modules = [importlib.import_module(f"resilsim.{name}") for name in MODULES]
        for name in SPANS:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"resilsim.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "store_gets": self.store_gets,
            "store_hits": self.store_hits,
            "steps_simulated": self.steps_simulated,
            "useful_steps": self.useful_steps,
            "missing": self.missing,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("resilsim.cli")
    code = cli.main(cli_args)
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.to_dict(), handle, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
