"""The coal-mine sentinel scenario.

An ambient ("the mine") flips randomly between a neutral and a threatening
state, signalled through a context figure the deployed monitoring system
("the miner") cannot perceive: their behaviors are incommensurable, so the
miner is unresilient toward the mine on its own. Bringing along a pool of
more susceptible companion systems ("canaries") that do perceive the
threat figure, and monitoring their failures, augments the miner's
perception organ into a social, collective one whose behavior now sits
above the mine's. The canary pool doubles as a live estimator of supply
and fit; an evacuation policy turns the estimate into survival.

All randomness flows from a single per-run seed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .behavior import BehaviorClass, BehaviorDescriptor, FigureSpec, commensurable
from .errors import EmptyPool
from .fitness import supply

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


class MineState(Enum):
    NEUTRAL = "NS"
    THREATENING = "TS"


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


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
        _check_probability("p_enter_ts", self.p_enter_ts)
        _check_probability("p_exit_ts", self.p_exit_ts)

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
        _check_probability("hazard_ts", self.hazard_ts)

    @property
    def monitor_behavior(self) -> BehaviorDescriptor:
        return BehaviorDescriptor(
            BehaviorClass.PURPOSEFUL, FigureSpec.named(self.figures), social=False
        )


@dataclass(frozen=True)
class Canary:
    """Sentinel system: simpler, threat-perceiving, far more susceptible."""

    figures: frozenset[str] = DEFAULT_CANARY_FIGURES
    hazard_ts: float = 0.3

    def __post_init__(self) -> None:
        object.__setattr__(self, "figures", frozenset(self.figures))
        if THREAT_FIGURE not in self.figures:
            raise ValueError(f"canary perception must include {THREAT_FIGURE!r}")
        _check_probability("hazard_ts", self.hazard_ts)

    @property
    def monitor_behavior(self) -> BehaviorDescriptor:
        return BehaviorDescriptor(
            BehaviorClass.PURPOSEFUL, FigureSpec.named(self.figures), social=False
        )


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
        return BehaviorDescriptor(
            BehaviorClass.PURPOSEFUL,
            FigureSpec.named(self.miner.figures | self.canary.figures),
            social=True,
        )


@dataclass(frozen=True)
class EvacuationPolicy:
    """Optional fit-based evacuation trigger on top of the supply margin.

    The primary trigger lives on the miner (evacuate when estimated supply
    drops below its threshold); a fit threshold here additionally triggers
    when the estimated fit falls below it, which in practice catches the
    FLOAT_MIN sentinel of outright undersupply.
    """

    fit_threshold: float | None = None


@dataclass(frozen=True)
class Scenario:
    """Mine, miner, canary template, pool size, and evacuation policy.

    Construction checks the structural relations the scenario relies on:
    the canary perceives the threat figure, the miner does not, the miner
    covers the rest of the mine's context, miner and canary perceptions
    are mutually non-nested, and their union strictly covers the mine's
    context set.
    """

    mine: CoalMine = field(default_factory=CoalMine)
    miner: Miner = field(default_factory=Miner)
    canary: Canary = field(default_factory=Canary)
    pool_size: int = 100
    policy: EvacuationPolicy = EvacuationPolicy()

    def __post_init__(self) -> None:
        t_set = self.mine.figures
        f_set = self.miner.figures
        g_set = self.canary.figures
        if self.pool_size < 0:
            raise ValueError("pool_size must be non-negative")
        if not (t_set - {THREAT_FIGURE}) < f_set:
            raise ValueError(
                "miner must strictly cover the mine's context besides the threat figure"
            )
        if f_set <= g_set or g_set <= f_set:
            raise ValueError("miner and canary perceptions must be mutually non-nested")
        if not t_set < (f_set | g_set):
            raise ValueError(
                "the joint perception must strictly cover the mine's context set"
            )

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


def estimate_supply(pool: CanaryPool) -> float:
    """Probabilistic supply estimate from canary failures: |c|/2 - failed."""
    if pool.size < 1:
        raise EmptyPool("supply estimation needs at least one canary")
    return pool.size / 2.0 - pool.failed


def estimate_fit(pool: CanaryPool) -> float:
    """Fit estimate from the supply estimate; FLOAT_MIN on undersupply."""
    s = estimate_supply(pool)
    if s >= 0:
        return 1.0 / (1.0 + s)
    return FLOAT_MIN


def supply_fit_curve(pool_size: int) -> Iterator[tuple[int, float, float]]:
    """The (failed, supply, fit) values over every possible failure count,
    made as they are read; an empty pool raises at the call."""
    if pool_size < 1:
        raise EmptyPool("the curve needs at least one canary")
    return ((f, s, 1.0 / (1.0 + s) if s >= 0 else FLOAT_MIN)
            for f in range(pool_size + 1) for s in (pool_size / 2.0 - f,))


@dataclass(frozen=True)
class ScenarioStep:
    t: int
    mine_state: str
    canaries_alive: int
    supply: float | None
    fit: float | None
    miner_alive: bool
    evacuated: bool


@dataclass
class ScenarioRun:
    """Per-step trace plus the survival outcome of one scenario run."""

    steps: list[ScenarioStep]
    survived: bool
    evacuation_step: int | None
    miner_failed_step: int | None
    pool_size: int
    seed: int
    header: dict

    @property
    def ts_steps(self) -> int:
        return sum(1 for s in self.steps if s.mine_state == MineState.THREATENING.value)

    def to_dict(self) -> dict:
        return {
            "header": self.header,
            "survived": self.survived,
            "evacuation_step": self.evacuation_step,
            "miner_failed_step": self.miner_failed_step,
            "pool_size": self.pool_size,
            "seed": self.seed,
            "ts_steps": self.ts_steps,
            "final_failed_canaries": (
                self.pool_size - self.steps[-1].canaries_alive if self.steps else 0
            ),
        }


SCENARIO_CSV_HEADER = (
    "t", "mine_state", "canaries_alive", "supply", "fit", "miner_alive", "evacuated",
)


def scenario_csv_rows(run: ScenarioRun) -> Iterator[str]:
    """The scenario CSV's lines after the header, one per step, made as they
    are read; each distinct text after ``t`` is built once."""
    tails: dict[tuple, str] = {}
    for s in run.steps:
        key = (s.mine_state, s.canaries_alive, s.supply, s.fit, s.miner_alive,
               s.evacuated)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = _scenario_csv_tail(*key)
        yield f"{s.t}{tail}"


def _scenario_csv_tail(mine_state: str, canaries_alive: int, supply: float | None,
                       fit: float | None, miner_alive: bool, evacuated: bool) -> str:
    if supply is None:
        estimates = ","
    else:
        estimates = f"{supply!r},{FLOAT_MIN_LABEL if fit == FLOAT_MIN else repr(fit)}"
    flags = ",".join("true" if flag else "false" for flag in (miner_alive, evacuated))
    return f",{mine_state},{canaries_alive},{estimates},{flags}\n"


def simulate(
    scenario: Scenario, steps: int, seed: int, *, until_decided: bool = False
) -> ScenarioRun:
    """Run the scenario for a number of steps under one seed.

    Step order: the mine state evolves; live canaries roll their hazard
    while the state is threatening; the miner (if present) reads the pool
    estimates and may evacuate, irreversibly; a non-evacuated miner then
    rolls its own hazard while the threat persists. With an empty pool no
    estimates exist and the miner never evacuates.

    A step costs one random draw per live canary while the mine threatens,
    plus O(1); the pool estimates are O(1). With ``until_decided`` the run
    ends after the step where the miner evacuates or dies: its survival
    outcome cannot change after that step, so ``survived``,
    ``evacuation_step`` and ``miner_failed_step`` equal those of the full
    run, while ``steps`` holds only the records up to that step.
    """
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    rng = random.Random(seed)
    pool = CanaryPool(scenario.pool_size)
    state = MineState.NEUTRAL
    miner_alive = True
    evacuated = False
    evacuation_step: int | None = None
    miner_failed_step: int | None = None
    records = []
    for t in range(steps):
        if state is MineState.NEUTRAL:
            if rng.random() < scenario.mine.p_enter_ts:
                state = MineState.THREATENING
        else:
            if rng.random() < scenario.mine.p_exit_ts:
                state = MineState.NEUTRAL

        if state is MineState.THREATENING:
            pool.step_threatened(rng, scenario.canary.hazard_ts)

        supply_est: float | None = None
        fit_est: float | None = None
        if pool.size >= 1:
            supply_est = estimate_supply(pool)
            fit_est = estimate_fit(pool)
            if miner_alive and not evacuated:
                trigger = supply_est < scenario.miner.evacuation_threshold
                if scenario.policy.fit_threshold is not None:
                    trigger = trigger or fit_est < scenario.policy.fit_threshold
                if trigger:
                    evacuated = True
                    evacuation_step = t

        if state is MineState.THREATENING and miner_alive and not evacuated:
            if rng.random() < scenario.miner.hazard_ts:
                miner_alive = False
                miner_failed_step = t

        records.append(ScenarioStep(
            t=t,
            mine_state=state.value,
            canaries_alive=pool.alive_count,
            supply=supply_est,
            fit=fit_est,
            miner_alive=miner_alive,
            evacuated=evacuated,
        ))
        if until_decided and (evacuated or not miner_alive):
            break

    header = {
        "pool_size": scenario.pool_size,
        "p_enter_ts": scenario.mine.p_enter_ts,
        "p_exit_ts": scenario.mine.p_exit_ts,
        "canary_hazard_ts": scenario.canary.hazard_ts,
        "miner_hazard_ts": scenario.miner.hazard_ts,
        "evacuation_threshold": scenario.miner.evacuation_threshold,
        "fit_threshold": scenario.policy.fit_threshold,
        "steps": steps,
        "seed": seed,
    }
    return ScenarioRun(
        steps=records,
        survived=miner_alive,
        evacuation_step=evacuation_step,
        miner_failed_step=miner_failed_step,
        pool_size=scenario.pool_size,
        seed=seed,
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
