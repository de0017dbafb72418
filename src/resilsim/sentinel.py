"""The coal-mine sentinel scenario.

An ambient ("the mine") flips randomly between a neutral and a threatening
state, signalled through a context figure the deployed monitoring system
("the miner") cannot perceive: their behaviors are incommensurable, so the
miner is unresilient toward the mine on its own. Bringing along a pool of
more susceptible companion systems ("canaries") that do perceive the
threat figure, and monitoring their failures, augments the miner's
perception organ into a social, collective one whose behavior now sits
above the mine's. The canary pool doubles as a live estimator of supply
and fit; evacuating when the supply estimate drops below the miner's
threshold turns the estimate into survival.

All randomness flows from a single per-run seed.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import sub
from typing import Iterator

from .behavior import BehaviorClass, BehaviorDescriptor, FigureSpec, commensurable
from .errors import EmptyPool, check_probability

# Smallest positive normal double; the estimation sentinel for outright
# undersupply. Serializes as the string "float_min".
FLOAT_MIN = sys.float_info.min
FLOAT_MIN_LABEL = "float_min"

THREAT_FIGURE = "t"

DEFAULT_MINE_FIGURES = frozenset({"t", "gas_level", "humidity", "temperature"})
DEFAULT_MINER_FIGURES = frozenset(
    {"gas_level", "humidity", "temperature", "vibration"}
)
DEFAULT_CANARY_FIGURES = frozenset({"t", "gas_level", "noise"})


def _monitor(figures: frozenset[str], social: bool = False) -> BehaviorDescriptor:
    """The monitor behavior of a system that purposefully perceives ``figures``."""
    return BehaviorDescriptor(BehaviorClass.PURPOSEFUL, FigureSpec.named(figures), social)


@dataclass(frozen=True)
class CoalMine:
    """Randomly behaving ambient with a threat figure in its context set."""

    figures: frozenset[str] = DEFAULT_MINE_FIGURES
    p_enter_ts: float = 0.01
    p_exit_ts: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "figures", frozenset(self.figures))
        if THREAT_FIGURE not in self.figures:
            raise ValueError(f"mine context set must include {THREAT_FIGURE!r}")
        check_probability("p_enter_ts", self.p_enter_ts)
        check_probability("p_exit_ts", self.p_exit_ts)

    @property
    def behavior(self) -> BehaviorDescriptor:
        return BehaviorDescriptor(
            BehaviorClass.RANDOM, FigureSpec.named(self.figures), social=False
        )


@dataclass(frozen=True)
class Miner:
    """Monitoring system that perceives everything except the threat figure."""

    figures: frozenset[str] = DEFAULT_MINER_FIGURES
    hazard_ts: float = 0.02
    evacuation_threshold: float = 25.0  # evacuate when estimated supply drops below

    def __post_init__(self) -> None:
        object.__setattr__(self, "figures", frozenset(self.figures))
        if THREAT_FIGURE in self.figures:
            raise ValueError(f"miner perception must not include {THREAT_FIGURE!r}")
        check_probability("hazard_ts", self.hazard_ts)

    @property
    def monitor_behavior(self) -> BehaviorDescriptor:
        return _monitor(self.figures)


@dataclass(frozen=True)
class Canary:
    """Sentinel system: simpler, threat-perceiving, far more susceptible."""

    figures: frozenset[str] = DEFAULT_CANARY_FIGURES
    hazard_ts: float = 0.3

    def __post_init__(self) -> None:
        object.__setattr__(self, "figures", frozenset(self.figures))
        if THREAT_FIGURE not in self.figures:
            raise ValueError(f"canary perception must include {THREAT_FIGURE!r}")
        check_probability("hazard_ts", self.hazard_ts)

    @property
    def monitor_behavior(self) -> BehaviorDescriptor:
        return _monitor(self.figures)


@dataclass(frozen=True)
class CollectiveMC:
    """Miner plus canary pool: a social, jointly perceiving collective.

    The relationship is parasitic rather than mutualistic: the miner's
    resilience is enhanced at the canaries' expense.
    """

    miner: Miner
    canary: Canary
    pool_size: int

    @property
    def monitor_behavior(self) -> BehaviorDescriptor:
        return _monitor(self.miner.figures | self.canary.figures, social=True)


@dataclass(frozen=True)
class Scenario:
    """Mine, miner, canary template and pool size.

    Construction checks the structural relations the scenario relies on.
    The canary perceives the threat figure and the miner does not (their
    own checks), and the miner strictly covers the rest of the mine's
    context. The paper's premise is checked with the calculus: the miner's
    and the canary's monitor behaviors are incommensurable (their
    perceptions are mutually non-nested). The rest of the premise follows:
    the joint perception of the social miner-plus-canary collective then
    strictly covers the mine's context set (the miner holds a figure
    outside it, the canary the threat figure), so ``detect_need_for_social``
    finds no need for a further social relation toward the mine.
    """

    mine: CoalMine = field(default_factory=CoalMine)
    miner: Miner = field(default_factory=Miner)
    canary: Canary = field(default_factory=Canary)
    pool_size: int = 100

    def __post_init__(self) -> None:
        if self.pool_size < 0:
            raise ValueError("pool_size must be non-negative")
        if not (self.mine.figures - {THREAT_FIGURE}) < self.miner.figures:
            raise ValueError(
                "miner must strictly cover the mine's context besides the threat figure"
            )
        if commensurable(self.miner.monitor_behavior, self.canary.monitor_behavior):
            raise ValueError("miner and canary perceptions must be mutually non-nested")

    def collective(self) -> CollectiveMC:
        return CollectiveMC(self.miner, self.canary, self.pool_size)


def detect_need_for_social(
    system_behavior: BehaviorDescriptor, environment_behavior: BehaviorDescriptor
) -> bool:
    """True when the system should consider establishing a social relation.

    Incommensurability with the environment means the system cannot even
    situate itself; undersupply means it is losing identity. Either way,
    augmenting perception through another system is the way out.
    """
    from .fitness import supply  # no command runs this test

    if not commensurable(system_behavior, environment_behavior):
        return True
    if system_behavior == environment_behavior:
        return False
    return supply(system_behavior, environment_behavior) < 0


class CanaryPool:
    """Mutable pool of deployed canaries; they fail and never recover.

    Canaries are interchangeable, so the pool keeps only how many are still
    alive: ``size``, ``failed`` and ``alive_count`` are O(1).
    """

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("pool size must be non-negative")
        self.size = size
        self.alive_count = size

    @property
    def failed(self) -> int:
        return self.size - self.alive_count

    def step_threatened(self, rng: random.Random, hazard: float) -> None:
        """Each live canary draws once from ``rng`` and dies below ``hazard``."""
        draw = rng.random
        deaths = 0
        for _ in range(self.alive_count):
            if draw() < hazard:
                deaths += 1
        self.alive_count -= deaths


def _supply(size: int, failed: int) -> float:
    """The pool's supply estimate |c|/2 - failed; the one place that states it."""
    return size / 2.0 - failed


def estimate_supply(pool: CanaryPool) -> float:
    """Probabilistic supply estimate from canary failures: |c|/2 - failed."""
    if pool.size < 1:
        raise EmptyPool("supply estimation needs at least one canary")
    return _supply(pool.size, pool.failed)


def estimate_fit(pool: CanaryPool) -> float:
    """Fit estimate from the supply estimate; FLOAT_MIN on undersupply. The
    pool's fit on the calculus surface, and a span the benchmark traces;
    ``trace.csv`` applies ``fit_of_supply`` to the supplies it writes."""
    return fit_of_supply(estimate_supply(pool))


def fit_of_supply(s: float) -> float:
    """The fit 1/(1+s) of supply ``s``; FLOAT_MIN on undersupply (s < 0)."""
    return 1.0 / (1.0 + s) if s >= 0 else FLOAT_MIN


def supply_fit_curve(pool_size: int) -> Iterator[tuple[int, float, float]]:
    """The (failed, supply, fit) values over every possible failure count,
    made as they are read; an empty pool raises at the call."""
    if pool_size < 1:
        raise EmptyPool("the curve needs at least one canary")
    return ((f, s, fit_of_supply(s))
            for f in range(pool_size + 1) for s in (_supply(pool_size, f),))


@dataclass
class ScenarioRun:
    """One scenario run: only what it decided, step by step.

    Entry ``t`` of ``mine_state`` ("NS" neutral or "TS" threatening) and of
    ``canaries_alive`` belongs to step ``t``; ``steps`` is ``range(n)``, so
    ``len(run.steps)`` is the count of simulated steps. The miner has
    evacuated from ``evacuation_step`` on and is dead from
    ``miner_failed_step`` on (None when it never did). The pool's estimates
    follow from ``canaries_alive`` and are derived where they are read.
    ``header`` holds the scenario's parameters, ``steps`` and ``seed``.
    """

    steps: range
    mine_state: list[str]
    canaries_alive: list[int]
    evacuation_step: int | None
    miner_failed_step: int | None
    header: dict

    @property
    def survived(self) -> bool:
        return self.miner_failed_step is None

    def to_dict(self) -> dict:
        pool_size = self.header["pool_size"]
        return {
            "header": self.header,
            "survived": self.survived,
            "evacuation_step": self.evacuation_step,
            "miner_failed_step": self.miner_failed_step,
            "pool_size": pool_size,
            "seed": self.header["seed"],
            "ts_steps": self.mine_state.count("TS"),
            "final_failed_canaries": pool_size - self.canaries_alive[-1],
        }


SCENARIO_CSV_HEADER = (
    "t", "mine_state", "canaries_alive", "supply", "fit", "miner_alive", "evacuated",
)
CURVE_CSV_HEADER = ("f", "supply", "fit")


class _TraceFormats(dict):
    """A ``trace.csv`` line's ``%`` format in a pool of ``pool_size`` by its
    (mine state, canaries, miner alive, evacuated), built on first lookup:
    ``%d`` for ``t``, then the cells; the estimates are empty without a
    pool."""

    def __init__(self, pool_size: int):
        self.pool_size = pool_size

    def __missing__(self, key: tuple) -> str:
        mine_state, canaries, *flags = key
        pool_size = self.pool_size
        estimate = ","
        if pool_size >= 1:
            supply_est = _supply(pool_size, pool_size - canaries)
            fit = fit_of_supply(supply_est)
            estimate = f"{supply_est!r},{FLOAT_MIN_LABEL if fit == FLOAT_MIN else repr(fit)}"
        rest = "".join(",true" if flag else ",false" for flag in flags)
        tail = f",{mine_state},{canaries},{estimate}{rest}\n"
        self[key] = line = "%d" + tail.replace("%", "%%")
        return line


def scenario_csv_rows(run: ScenarioRun) -> Iterator[str]:
    """The scenario CSV's lines after the header, made as they are read, in
    blocks of up to 4 096. The miner is alive before ``miner_failed_step``
    and evacuated from ``evacuation_step`` on."""
    n = len(run.steps)
    failed_at, evac_at = run.miner_failed_step, run.evacuation_step
    alive = chain(repeat(True, n if failed_at is None else failed_at), repeat(False))
    evacuated = chain(repeat(False, n if evac_at is None else evac_at), repeat(True))
    keys = zip(run.mine_state, run.canaries_alive, alive, evacuated)
    formats = map(_TraceFormats(run.header["pool_size"]).__getitem__, keys)
    for start in range(0, n, 4096):
        yield "".join(islice(formats, 4096)) % tuple(run.steps[start:start + 4096])


def _supplied_count(pool_size: int) -> int:
    """How many failure counts f leave the supply |c|/2 - f non-negative:
    those whose float is at most |c|/2, since ``_supply`` subtracts f as a
    float. That is ``pool_size // 2 + 1`` up to 2**53; above it, counts just
    past |c|/2 round onto it, and their supply is 0.0."""
    return bisect_right(range(pool_size), _supply(pool_size, 0), key=float)


def curve_csv_rows(pool_size: int) -> Iterator[str]:
    """The curve CSV's lines after the header, one per ``supply_fit_curve``
    row, with the cells that ``trace.csv`` writes at the same failure count,
    made as they are read, in blocks of up to 4 096. The supplies are a
    ``map`` over the failure counts; below ``_supplied_count`` a line writes
    the fit 1/(1+s), from there on ``float_min``, so no line calls a Python
    function. An empty pool raises at the call."""
    if pool_size < 1:
        raise EmptyPool("the curve needs at least one canary")
    half = _supply(pool_size, 0)
    split = _supplied_count(pool_size)
    supplied, undersupplied = range(split), range(split, pool_size + 1)
    tail = f",{FLOAT_MIN_LABEL}\n"
    lines = chain(
        (f"{f},{s!r},{1.0 / (1.0 + s)!r}\n"
         for f, s in zip(supplied, map(sub, repeat(half), supplied))),
        (f"{f},{s!r}{tail}"
         for f, s in zip(undersupplied, map(sub, repeat(half), undersupplied))))
    return iter(lambda: "".join(islice(lines, 4096)), "")


def simulate(
    scenario: Scenario, steps: int, seed: int, *, until_decided: bool = False
) -> ScenarioRun:
    """Run the scenario for a number of steps under one seed.

    Step order: the mine state evolves; live canaries roll their hazard
    while the state is threatening; the miner evacuates, irreversibly, when
    the pool's supply estimate is below its threshold; a non-evacuated miner
    then rolls its own hazard while the threat persists. With an empty pool no
    estimates exist and the miner never evacuates.

    A step costs one random draw per live canary while the mine threatens,
    plus O(1); the pool is estimated, in O(1), only while the miner has
    neither evacuated nor died. Each step appends one entry to each of the
    two columns of the returned run; no per-step object is made. With
    ``until_decided`` the run ends after the step where the miner evacuates
    or dies: its survival outcome cannot change after that step, so
    ``survived``, ``evacuation_step`` and ``miner_failed_step`` equal those
    of the full run, while the columns end at that step.
    """
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    rng = random.Random(seed)
    draw = rng.random
    pool = CanaryPool(scenario.pool_size)
    p_enter, p_exit = scenario.mine.p_enter_ts, scenario.mine.p_exit_ts
    canary_hazard = scenario.canary.hazard_ts
    miner_hazard = scenario.miner.hazard_ts
    threshold = scenario.miner.evacuation_threshold
    threatening = False
    decided = False
    evacuation_step: int | None = None
    miner_failed_step: int | None = None
    mine_states: list[str] = []
    alive_counts: list[int] = []
    for t in range(steps):
        if draw() < (p_exit if threatening else p_enter):
            threatening = not threatening
        if threatening:
            pool.step_threatened(rng, canary_hazard)

        if not decided:
            if pool.size >= 1 and estimate_supply(pool) < threshold:
                decided = True
                evacuation_step = t
            elif threatening and draw() < miner_hazard:
                decided = True
                miner_failed_step = t

        mine_states.append("TS" if threatening else "NS")
        alive_counts.append(pool.alive_count)
        if until_decided and decided:
            break

    header = {
        "pool_size": scenario.pool_size,
        "p_enter_ts": p_enter,
        "p_exit_ts": p_exit,
        "canary_hazard_ts": canary_hazard,
        "miner_hazard_ts": miner_hazard,
        "evacuation_threshold": threshold,
        # Always null: perfbench/golden.json pins it until its next regeneration.
        "fit_threshold": None,
        "steps": steps,
        "seed": seed,
    }
    return ScenarioRun(
        steps=range(len(mine_states)),
        mine_state=mine_states,
        canaries_alive=alive_counts,
        evacuation_step=evacuation_step,
        miner_failed_step=miner_failed_step,
        header=header,
    )


def survival_rate(
    scenario: Scenario, steps: int, runs: int, base_seed: int = 0
) -> dict:
    """Monte Carlo survival statistics over consecutive seeds.

    Each run stops at the step where its miner evacuates or dies, since its
    outcome is decided there; the counts equal those of full-length runs.
    """
    if runs < 1:
        raise ValueError("runs must be a positive integer")
    survived = 0
    evacuated = 0
    for i in range(runs):
        run = simulate(scenario, steps, base_seed + i, until_decided=True)
        survived += run.survived
        evacuated += run.evacuation_step is not None
    return {
        "runs": runs,
        "survived": survived,
        "survival_rate": survived / runs,
        "evacuated": evacuated,
        "base_seed": base_seed,
        "steps": steps,
        "pool_size": scenario.pool_size,
    }
