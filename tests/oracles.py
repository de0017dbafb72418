"""Reference models of both studies, defined one step at a time.

``resilsim.channel`` computes the predictors and the yield rule as whole
columns at once (``WindowMax.predictions``, ``EwmaPlusSlope.predictions``
and the yield and margin-warning columns of ``_entelechial``). The per-step
forms below are the reference those columns must equal bit for bit: a
predictor observes the demand one sample at a time and predicts the next
from what it holds.

``resilsim.sentinel.simulate`` keeps two columns and two decision steps,
and its pool only a count of live canaries. ``oracle_simulate`` is the
earlier simulation that built one ``ScenarioStep`` per step over a pool of
one alive flag per canary; a run must equal it, random draws included.

They need no pytest, so ``tests/gates.py`` checks the library with them on
interpreters without the test dependencies, and ``tests/test_hot_loops.py``
builds its oracles on them.
"""

import math
import random
from collections import deque
from dataclasses import dataclass
from enum import Enum

from resilsim.sentinel import FLOAT_MIN, Canary, CoalMine, EvacuationPolicy, Miner, Scenario


class WindowMaxSteps:
    """Predicts the maximum of the most recent ``window`` observations."""

    def __init__(self, window):
        self._recent = deque(maxlen=window)

    def observe(self, y):
        self._recent.append(y)

    def predict(self):
        return float(max(self._recent))


class EwmaPlusSlopeSteps:
    """Exponentially weighted level plus slope, extrapolated ``horizon``
    steps ahead."""

    def __init__(self, alpha, horizon):
        self.alpha = alpha
        self.horizon = horizon
        self._level = None
        self._slope = 0.0
        self._last = None

    def observe(self, y):
        if self._level is None:
            self._level = float(y)
        else:
            self._slope = self.alpha * (y - self._last) + (1 - self.alpha) * self._slope
            self._level = self.alpha * y + (1 - self.alpha) * self._level
        self._last = float(y)

    def predict(self):
        return self._level + self.horizon * self._slope


def stepper(predictor):
    """A per-step form of ``predictor`` (a ``WindowMax`` or an
    ``EwmaPlusSlope``) with its parameters and no observation yet."""
    if predictor.kind == "window_max":
        return WindowMaxSteps(predictor.window)
    return EwmaPlusSlopeSteps(predictor.alpha, predictor.horizon)


def choose_yield(prediction, epsilon):
    """The smallest integer yielding point strictly above ``prediction``, at
    least 1, and whether it misses the safety margin: the inequality
    0 < Y - prediction < epsilon cannot be met at integer granularity."""
    y = max(1, math.floor(prediction) + 1)
    return y, (y - prediction) >= epsilon


def predict_yields(ys, predictor, epsilon):
    """The yields, predictions and margin warnings of each step of ``ys``:
    step 0 primes the predictor with y(0), every later step predicts from
    the samples before it."""
    steps = stepper(predictor)
    yields, predictions, warnings = [], [], []
    for t, y in enumerate(ys):
        if t == 0:
            steps.observe(y)
        prediction = steps.predict()
        chosen, warn = choose_yield(prediction, epsilon)
        yields.append(chosen)
        predictions.append(prediction)
        warnings.append(warn)
        if t > 0:
            steps.observe(y)
    return yields, predictions, warnings


class OraclePool:
    """The original canary pool: one alive flag per canary."""

    def __init__(self, size):
        self.alive = [True] * size

    @property
    def alive_count(self):
        return sum(1 for a in self.alive if a)

    def step_threatened(self, rng, hazard):
        for i, is_alive in enumerate(self.alive):
            if is_alive and rng.random() < hazard:
                self.alive[i] = False


class MineState(Enum):
    NEUTRAL = "NS"
    THREATENING = "TS"


@dataclass(frozen=True)
class ScenarioStep:
    """The original per-step record of a scenario run."""

    t: int
    mine_state: str
    canaries_alive: int
    supply: float | None
    fit: float | None
    miner_alive: bool
    evacuated: bool


@dataclass
class OracleScenarioRun:
    """The original scenario run: a list of step records plus the outcome."""

    steps: list[ScenarioStep]
    survived: bool
    evacuation_step: int | None
    miner_failed_step: int | None
    pool_size: int
    seed: int
    header: dict

    @property
    def ts_steps(self):
        return sum(1 for s in self.steps if s.mine_state == MineState.THREATENING.value)

    def to_dict(self):
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


def oracle_simulate(scenario, steps, seed, until_decided=False):
    """The original simulate, which built one ScenarioStep per step, over a
    pool of one alive flag per canary."""
    rng = random.Random(seed)
    pool = OraclePool(scenario.pool_size)
    state = MineState.NEUTRAL
    miner_alive = True
    evacuated = False
    evacuation_step = None
    miner_failed_step = None
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

        alive = pool.alive_count
        supply_est = None
        fit_est = None
        if scenario.pool_size >= 1:
            supply_est = scenario.pool_size / 2.0 - (scenario.pool_size - alive)
            fit_est = 1.0 / (1.0 + supply_est) if supply_est >= 0 else FLOAT_MIN
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
            canaries_alive=alive,
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
    return OracleScenarioRun(
        steps=records,
        survived=miner_alive,
        evacuation_step=evacuation_step,
        miner_failed_step=miner_failed_step,
        pool_size=scenario.pool_size,
        seed=seed,
        header=header,
    )


# An odd pool under constant threat with a fit policy: x.5 supplies, then
# the FLOAT_MIN sentinel of undersupply.
ODD_POOL_FIT_POLICY = Scenario(
    mine=CoalMine(p_enter_ts=1.0, p_exit_ts=0.0),
    miner=Miner(hazard_ts=0.0, evacuation_threshold=-1000.0),
    canary=Canary(hazard_ts=0.5), pool_size=7,
    policy=EvacuationPolicy(fit_threshold=1e-20),
)
