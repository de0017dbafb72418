"""Reference models of both studies, defined one step at a time, and the
comparisons that check the library against them.

``resilsim.channel`` computes each predictor with the yield rule as one
column kernel, which returns the yields (``WindowMax.yields``,
``EwmaPlusSlope.yields``) and keeps no prediction. The per-step forms below
are the reference those yields must equal: a predictor observes the demand
one sample at a time and predicts the next from what it holds (a window
maximum is the integer sample itself), and the yield rule takes the
smallest integer above the prediction and also flags where the margin
epsilon cannot be met, a flag that only acceptance criterion 7 reads. ``oracle_walk`` is the earlier
random-walk generator, one ``min``/``max`` clamp a step, which
``RandomWalkChannel`` must equal, random draws included. On the predictors
stand the earlier protocol runs, which built
one ``StepRecord`` per step (the antifragile one with its prefix-rescanning
review pass and per-epoch rescanning identity accounting), with their own
exact jitter reference, so that they share neither the prediction loop nor
``_jitter`` with the code under test; the step CSV rows and mean step fit
are read from those records.

``resilsim.sentinel.simulate`` keeps two columns and two decision steps,
and its pool only a count of live canaries. ``oracle_simulate`` is the
earlier simulation that built one ``ScenarioStep`` per step over a pool of
one alive flag per canary; a run must equal it, random draws included.
The curve and the set checks of the scenario premise have their earlier
forms too.

The CSV producers stream blocks of finished lines, which ``csv_lines``
splits back into lines as they are read; their oracles are the earlier
tuple and dict row builders, written through ``csv.writer`` as the command
line used to write them.

``compare`` reads a descriptor pair's supply, fit and marker from the one
point of ``fit_timeline``; ``oracle_compare`` is the earlier reading, from
``supply`` and ``fit`` one call at a time. The package reads descriptors
and organ tuples from JSON but never writes them; ``oracle_dict`` is the
writer that the round-trip tests check ``from_dict`` against.

Each ``assert_*`` helper is the one statement of a comparison. They need
no pytest, so ``tests/gates.py`` runs fixed cases through them on
interpreters without the test dependencies, and ``tests/test_hot_loops.py``
and ``tests/test_cli.py`` run their properties and examples through them.
"""

import contextlib
import csv
import decimal
import io
import itertools
import json
import math
import os
import random
import tempfile
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from resilsim.behavior import (BehaviorDescriptor, FigureSpec, commensurable, distance,
                               precedes)
from resilsim.channel import (
    ChannelTrace,
    KnowledgeStore,
    RandomWalkChannel,
    Teleconferencing,
    _signature,
    as_trace,
    burstiness,
    generate_trace,
    mean_step_fit,
    run_antifragile,
    run_elastic,
    run_entelechial,
    step_csv_rows,
)
from resilsim.cli import main
from resilsim.errors import IncommensurableBehaviors
from resilsim.fitness import (BASELINE, QUADRATIC, FitVariant, ShootKind, fit, shooting,
                              supply)
from resilsim.organs import FeedbackKind, Organ
from resilsim.sentinel import (
    CURVE_CSV_HEADER,
    FLOAT_MIN,
    FLOAT_MIN_LABEL,
    Canary,
    CoalMine,
    EvacuationPolicy,
    Miner,
    Scenario,
    curve_csv_rows,
    scenario_csv_rows,
    simulate,
    supply_fit_curve,
)


def csv_text(rows):
    """``rows`` as the command line wrote them before lines were streamed."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def csv_lines(blocks):
    """The lines of a CSV producer's ``blocks``, each with its line end,
    split as they are read, so a producer too long to list is read only as
    far as its lines are taken."""
    return itertools.chain.from_iterable(block.splitlines(True) for block in blocks)


def oracle_walk(model, steps, rng):
    """The earlier ``RandomWalkChannel._generate``: y read back from the
    list, and clamped by ``min`` and ``max``, at every step."""
    ys = [model.y0]
    for _ in range(steps - 1):
        y = ys[-1]
        if rng.random() < model.step_prob:
            y += rng.choice((-1, 1))
            y = min(model.y_max, max(model.y_min, y))
        ys.append(y)
    return ys


# Random walks and their step counts: the benchmark's walk at seeds 0 to 19,
# then the edge cases of the generator's clamp and loop.
WALK_CASES = {
    **{f"seed {seed}": (RandomWalkChannel(y0=3, step_prob=0.2, y_min=1, y_max=6,
                                          seed=seed), 2_000) for seed in range(20)},
    "step_prob 0": (RandomWalkChannel(y0=3, step_prob=0.0, seed=1), 500),
    "step_prob 1": (RandomWalkChannel(y0=3, step_prob=1.0, seed=1), 500),
    "y0 at min": (RandomWalkChannel(y0=1, step_prob=0.9, y_min=1, y_max=6, seed=2), 500),
    "y0 at max": (RandomWalkChannel(y0=6, step_prob=0.9, y_min=1, y_max=6, seed=2), 500),
    "min == max": (RandomWalkChannel(y0=4, step_prob=0.9, y_min=4, y_max=4, seed=3), 500),
    "1 step": (RandomWalkChannel(y0=3, step_prob=0.5, seed=4), 1),
    "2 steps": (RandomWalkChannel(y0=3, step_prob=1.0, seed=4), 2),
}


def assert_walk_matches_oracle(model, steps):
    """``generate_trace`` gives ``oracle_walk``'s demand, and the generator
    leaves a random generator of the model's seed in the state that the
    oracle leaves it in, so it made the same draws."""
    rng, oracle_rng = random.Random(model.seed), random.Random(model.seed)
    ys = tuple(oracle_walk(model, steps, oracle_rng))
    assert generate_trace(model, steps).y == ys
    assert tuple(model._generate(steps, rng)) == ys
    assert rng.getstate() == oracle_rng.getstate()



class WindowMaxSteps:
    """Predicts the maximum of the most recent ``window`` observations."""

    def __init__(self, window):
        self._recent = deque(maxlen=window)

    def observe(self, y):
        self._recent.append(y)

    def predict(self):
        return max(self._recent)


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
    """The yields, predictions and margin flags of each step of ``ys``:
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


@dataclass(frozen=True)
class StepRecord:
    """The original per-step record of a protocol run."""

    t: int
    y: int
    yield_point: int
    delivered: bool
    shoot: object
    cost: int
    algorithm: str
    prediction: float | int | None = None
    delivered_at: int | None = None


def exact_jitter(times):
    """The population standard deviation of the gaps between ``times``, not
    using ``_jitter``: the exact variance as a Fraction, from the deviations
    from the exact mean, and its root by ``decimal`` at 80 digits, then
    ``float``."""
    gaps = [b - a for a, b in zip(times, times[1:])]
    if not gaps:
        return 0.0
    mean = Fraction(sum(gaps), len(gaps))
    variance = sum((gap - mean) ** 2 for gap in gaps) / len(gaps)
    context = decimal.Context(prec=80)
    return float(context.sqrt(context.divide(
        decimal.Decimal(variance.numerator), decimal.Decimal(variance.denominator))))


def oracle_run_elastic(trace, yield_point):
    """The original run_elastic's step records."""
    records = []
    for t, y in enumerate(as_trace(trace).y):
        delivered = yield_point > y
        records.append(StepRecord(
            t=t, y=y, yield_point=yield_point, delivered=delivered,
            shoot=shooting(y, yield_point, t), cost=yield_point,
            algorithm="repetition", delivered_at=t if delivered else None,
        ))
    return records


def oracle_run_entelechial(trace, predictor, epsilon):
    """The original run_entelechial's step records."""
    ys = as_trace(trace).y
    yields, predictions, _ = predict_yields(ys, predictor, epsilon)
    records = []
    for t, y in enumerate(ys):
        delivered = yields[t] > y
        records.append(StepRecord(
            t=t, y=y, yield_point=yields[t], delivered=delivered,
            shoot=shooting(y, yields[t], t), cost=yields[t], algorithm="repetition",
            prediction=predictions[t], delivered_at=t if delivered else None,
        ))
    return records


def oracle_step_csv_rows(records):
    return [
        (str(s.t), str(s.y), str(s.yield_point), "true" if s.delivered else "false",
         s.shoot.kind.value, str(s.shoot.magnitude), str(s.cost), s.algorithm)
        for s in records
    ]


def oracle_mean_step_fit(records, variant):
    total = 0.0
    for step in records:
        outcome = fit(step.yield_point - step.y, variant)
        total += 0.0 if outcome.lost_identity else outcome.value
    return total / len(records)


def assert_yields_match_oracle(ys, predictor):
    """``predictor.yields`` gives a tuple, the yields of the per-step
    predictor and yield rule of ``predict_yields``."""
    yields = predictor.yields(tuple(ys))
    assert type(yields) is tuple
    assert yields == tuple(predict_yields(ys, predictor, 1.0)[0])


def assert_run_matches_records(run, records, predictor=None, variants=()):
    """Every column, aggregate and CSV row equals the one read from the
    records, ``predictor``'s column kernel, the run's own, gives the yields
    of the per-step rule, and so does the mean step fit under each of
    ``variants``. The delivery times ascend."""
    assert run.y == tuple(s.y for s in records)
    assert list(run.yields) == [s.yield_point for s in records]
    assert list(run.costs()) == [s.cost for s in records]
    assert list(run.delivered) == [int(s.delivered) for s in records]
    assert [t if d else None for t, d in zip(run.arrivals(), run.delivered)] == \
        [s.delivered_at for s in records]
    delivered = list(itertools.compress(run.arrivals(), run.delivered))
    assert delivered == sorted(delivered)
    segments = run._segments()  # they cut steps 0 to n in order
    assert [start for start, *_ in segments] == [0, *(stop for _, stop, *_ in segments[:-1])]
    assert segments[-1][1] == len(records)
    assert [algorithm for start, stop, _, algorithm in segments
            for _ in range(start, stop)] == [s.algorithm for s in records]
    if all(s.prediction is None for s in records):  # elastic: no predictor
        assert predictor is None
    else:
        assert_yields_match_oracle(run.y, predictor)
    for variant in variants:
        assert mean_step_fit(run, variant) == oracle_mean_step_fit(records, variant)
    assert run.undershoot_count == sum(
        1 for s in records if s.shoot.kind is ShootKind.UNDERSHOOT)
    assert run.cumulative_overshoot == float(sum(
        s.shoot.magnitude for s in records if s.shoot.kind is ShootKind.OVERSHOOT))
    assert run.total_cost == sum(s.cost for s in records)
    assert run.delivered_fraction == sum(1 for s in records if s.delivered) / len(records)
    assert run.jitter == exact_jitter(
        sorted(s.delivered_at for s in records if s.delivered_at is not None))
    assert "".join(step_csv_rows(run)) == csv_text(oracle_step_csv_rows(records))


def oracle_run_antifragile(trace, config, store):
    """The original run_antifragile, with its quadratic review and accounting."""
    trace = as_trace(trace)
    ys = trace.y
    n = len(ys)
    review_every = config.epochs_per_review
    yields, predictions, _ = predict_yields(ys, config.predictor, config.epsilon)

    algorithm = "repetition"
    depth = 0
    mutation_step = None
    mutations = []
    for k in range(1, n // review_every + 1):
        review_at = k * review_every
        window = range(review_at - review_every, review_at)
        estimate = burstiness(ys, window, min(ys[:review_at]))
        if algorithm == "repetition" and estimate > config.burstiness_threshold:
            signature = _signature(estimate)
            entry = store.get(signature)
            if entry is None:
                entry = {
                    "signature": signature,
                    "algorithm": "interleaved",
                    "depth": config.interleave_depth,
                    "epoch_learned": k,
                }
                store.put(entry)
            if entry["algorithm"] != "interleaved":
                continue
            algorithm = "interleaved"
            depth = entry.get("depth", config.interleave_depth)
            if depth < 2:
                depth = config.interleave_depth
            mutation_step = review_at
            mutations.append({
                "step": review_at,
                "epoch": k,
                "algorithm": "interleaved",
                "depth": depth,
                "signature": signature,
                "burstiness": estimate,
                "feedback": FeedbackKind.GENOTYPICAL.value,
            })

    delivered = [False] * n
    delivered_at = [None] * n
    step_cost = [0] * n
    step_algorithm = ["repetition"] * n
    repetition_until = n if mutation_step is None else mutation_step
    for t in range(repetition_until):
        step_cost[t] += yields[t]
        if yields[t] > ys[t]:
            delivered[t] = True
            delivered_at[t] = t
    if mutation_step is not None:
        for block_start in range(mutation_step, n, depth):
            block = list(range(block_start, min(block_start + depth, n)))
            length = len(block)
            offset = max(1, length // 2)
            for i, t in enumerate(block):
                step_algorithm[t] = "interleaved"
                copies = [t]
                if length >= 2:
                    copies.append(block[(i + offset) % length])
                for s in copies:
                    step_cost[s] += 1
                if trace.burst_correlated:
                    ok = any(yields[s] > ys[s] for s in copies)
                else:
                    ok = yields[t] > ys[t]
                if ok:
                    delivered[t] = True
                    delivered_at[t] = block[-1]

    records = [
        StepRecord(
            t=t, y=y, yield_point=yields[t], delivered=delivered[t],
            shoot=shooting(y, yields[t], t), cost=step_cost[t],
            algorithm=step_algorithm[t], prediction=predictions[t],
            delivered_at=delivered_at[t],
        )
        for t, y in enumerate(ys)
    ]

    violations = 0
    if isinstance(config.identity_profile, Teleconferencing):
        bound = config.identity_profile.jitter_bound
        epoch_count = math.ceil(n / review_every)
        times = [dt for dt in delivered_at if dt is not None]
        for k in range(epoch_count):
            start = k * review_every
            end = min((k + 1) * review_every, n)
            epoch_times = sorted(dt for dt in times if start <= dt < end)
            if exact_jitter(epoch_times) > bound:
                violations += 1
    return records, violations, mutations


def assert_elastic_matches_oracle(trace, yield_point, variants=()):
    """``run_elastic`` equals ``oracle_run_elastic`` as
    ``assert_run_matches_records`` checks it. Returns the run and the
    records."""
    run, records = run_elastic(trace, yield_point), oracle_run_elastic(trace, yield_point)
    assert_run_matches_records(run, records, None, variants)
    return run, records


def assert_entelechial_matches_oracle(trace, predictor, epsilon, variants=()):
    """``run_entelechial`` equals ``oracle_run_entelechial`` as
    ``assert_run_matches_records`` checks it, the kernel's yields included.
    Returns the run and the records."""
    run = run_entelechial(trace, predictor, epsilon)
    records = oracle_run_entelechial(trace, predictor, epsilon)
    assert_run_matches_records(run, records, predictor, variants)
    return run, records


def assert_antifragile_matches_oracle(trace, config, lessons=(), variants=()):
    """``run_antifragile`` equals ``oracle_run_antifragile``, each with a
    store of ``lessons``: the identity violations, the mutations, the stores
    after the run, and the records as ``assert_run_matches_records`` checks
    them. Returns the run and the records."""
    store, oracle_store = KnowledgeStore(lessons), KnowledgeStore(lessons)
    run = run_antifragile(trace, config, store)
    records, violations, mutations = oracle_run_antifragile(trace, config, oracle_store)
    assert (run.identity_violations, run.mutations) == (violations, mutations)
    assert store.to_dict() == oracle_store.to_dict()
    assert_run_matches_records(run, records, config.predictor, variants)
    return run, records


FIT_VARIANTS = (BASELINE, QUADRATIC, FitVariant.parse("plateau:2"))

# Interleaving edge cases, each with the mutation (step, signature, depth)
# it reaches. BURST_ONSET reviewed every 3 steps reads burstiness 1.0 at
# step 3; with depth 3 the blocks after it are [3, 4, 5] and [6], a trailing
# one-step block. Under WindowMax(1) step 5 undershoots (Y = 2, y = 5) and
# only its copy on step 3 delivers it, which uncorrelated losses forbid.
# Two more steps make the blocks [3, 4, 5] and [6, 7, 8], no trailing block;
# with depth 6 the four steps after step 3 are one trailing block.
# LOW_THEN_HIGH reviewed every 6 steps reads 0.5 ("bursty-low") at step 6
# and 1.0 ("bursty-high") at step 12.
BURST_ONSET = (1, 5, 5, 5, 1, 5, 5)
LOW_THEN_HIGH = (5, 5, 1, 5, 1, 5, 5, 5, 5, 5, 1, 1, 5, 1, 5, 5, 1)
EDGE_CASES = {
    "trailing one-step block": (
        dict(trace=list(BURST_ONSET), review_every=3, depth=3, lessons=[]),
        (3, "bursty-high", 3)),
    "uncorrelated bursts": (
        dict(trace=ChannelTrace(BURST_ONSET, burst_correlated=False),
             review_every=3, depth=3, lessons=[]),
        (3, "bursty-high", 3)),
    "stored repetition, then a mutation": (
        dict(trace=list(LOW_THEN_HIGH), review_every=6, depth=4, lessons=[
            {"signature": "bursty-low", "algorithm": "repetition", "depth": 4}]),
        (12, "bursty-high", 4)),
    "stored depth below 2": (
        dict(trace=list(BURST_ONSET), review_every=3, depth=3, lessons=[
            {"signature": "bursty-high", "algorithm": "interleaved", "depth": 1}]),
        (3, "bursty-high", 3)),
    "full blocks only": (
        dict(trace=[*BURST_ONSET, 1, 5], review_every=3, depth=3, lessons=[]),
        (3, "bursty-high", 3)),
    "fewer steps than the depth": (
        dict(trace=list(BURST_ONSET), review_every=3, depth=6, lessons=[]),
        (3, "bursty-high", 6)),
}


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


def oracle_scenario_csv_rows(records):
    """The earlier scenario_csv_rows over the oracle's ``ScenarioStep``
    records: one tuple of cells per step."""
    rows = []
    for step in records:
        if step.supply is None:
            supply_text = ""
            fit_text = ""
        else:
            supply_text = repr(step.supply)
            fit_text = FLOAT_MIN_LABEL if step.fit == FLOAT_MIN else repr(step.fit)
        rows.append((
            str(step.t),
            step.mine_state,
            str(step.canaries_alive),
            supply_text,
            fit_text,
            "true" if step.miner_alive else "false",
            "true" if step.evacuated else "false",
        ))
    return rows


def assert_run_matches_oracle(scenario, steps, seed, until_decided):
    """The run's CSV lines equal those of the oracle's own step records,
    and its columns, decisions, header and summary equal the oracle's."""
    run = simulate(scenario, steps, seed, until_decided=until_decided)
    oracle = oracle_simulate(scenario, steps, seed, until_decided)
    assert run.steps == range(len(oracle.steps))
    assert "".join(scenario_csv_rows(run)) == \
        csv_text(oracle_scenario_csv_rows(oracle.steps))
    assert run.mine_state == [s.mine_state for s in oracle.steps]
    assert run.canaries_alive == [s.canaries_alive for s in oracle.steps]
    assert (run.survived, run.evacuation_step, run.miner_failed_step) == \
        (oracle.survived, oracle.evacuation_step, oracle.miner_failed_step)
    assert run.header == oracle.header
    assert json.dumps(run.to_dict(), sort_keys=True) == \
        json.dumps(oracle.to_dict(), sort_keys=True)


def oracle_curve_row(pool_size, f):
    """The earlier supply_fit_curve's row at ``f`` failures, a dict."""
    s = pool_size / 2.0 - f
    fit_value = 1.0 / (1.0 + s) if s >= 0 else FLOAT_MIN
    return {"f": f, "supply": s, "fit": fit_value}


def oracle_supply_fit_curve(pool_size):
    """The earlier supply_fit_curve: a list of dicts."""
    return [oracle_curve_row(pool_size, f) for f in range(pool_size + 1)]


def oracle_curve_lines(rows):
    """The rows of ``curve.csv`` as the command line wrote them from dicts."""
    return csv_text([
        (
            str(row["f"]),
            repr(row["supply"]),
            FLOAT_MIN_LABEL if row["fit"] == FLOAT_MIN else repr(row["fit"]),
        )
        for row in rows
    ])


def oracle_curve_csv(pool_size):
    """curve.csv as the command line wrote it from the list of dicts."""
    return csv_text([("f", "supply", "fit")]) + \
        oracle_curve_lines(oracle_supply_fit_curve(pool_size))


def assert_curve_matches_oracle(pool_size):
    """``supply_fit_curve`` gives the oracle's rows, and the header and
    ``curve_csv_rows`` give ``curve.csv`` as the command line wrote it."""
    assert list(supply_fit_curve(pool_size)) == [
        (row["f"], row["supply"], row["fit"]) for row in oracle_supply_fit_curve(pool_size)
    ]
    assert csv_text([CURVE_CSV_HEADER]) + "".join(curve_csv_rows(pool_size)) == \
        oracle_curve_csv(pool_size)


def assert_curve_rows_match_oracle(pool_size, start, stop):
    """Lines ``start`` to ``stop`` of ``curve_csv_rows``, read lazily, are
    the oracle's rows at those failure counts, so a pool too large to list
    is checked where it is read."""
    assert "".join(itertools.islice(csv_lines(curve_csv_rows(pool_size)), start, stop)) == \
        oracle_curve_lines(oracle_curve_row(pool_size, f) for f in range(start, stop))


def oracle_premise_error(mine, miner, canary):
    """The message of the set checks ``Scenario`` made on its figure sets
    before it asked the calculus, or None when they accept. The last check
    cannot reject once the first accepts: the miner then holds a figure
    outside the mine, and the canary holds the threat figure."""
    if not (mine - {"t"}) < miner:
        return "miner must strictly cover the mine's context besides the threat figure"
    if miner <= canary or canary <= miner:
        return "miner and canary perceptions must be mutually non-nested"
    if not mine < (miner | canary):
        return "the joint perception must strictly cover the mine's context set"
    return None


# The figure sets of the premise examples, before the threat figure "t" is
# added to the mine and the canary.
PREMISE_EXAMPLES = {
    "accepted": dict(mine=frozenset({"gas_level"}), miner=frozenset({"gas_level", "x"}),
                     canary=frozenset({"noise"})),
    "the miner does not cover the mine": dict(
        mine=frozenset({"gas_level"}), miner=frozenset({"x"}), canary=frozenset()),
    "nested perceptions": dict(
        mine=frozenset(), miner=frozenset({"x"}), canary=frozenset({"x"})),
}


def assert_premise_matches_oracle(mine, miner, canary):
    """``Scenario`` accepts the figure sets, with the threat figure added to
    the mine and the canary, exactly when the set checks do, and otherwise
    raises ``ValueError`` with their message."""
    mine, canary = mine | {"t"}, canary | {"t"}
    expected = oracle_premise_error(mine, miner, canary)
    try:
        Scenario(mine=CoalMine(mine), miner=Miner(miner), canary=Canary(canary))
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def oracle_dict(value):
    """The JSON object that ``from_dict`` reads back into ``value``, a
    ``FigureSpec``, ``BehaviorDescriptor`` or ``CyberneticClass`` (None for
    an absent organ). The package only reads these objects, so the round-trip
    tests write them with this."""
    if value is None:
        return None
    if isinstance(value, FigureSpec):
        return {"named": sorted(value.names)} if value.is_named \
            else {"cardinality": value.count}
    if isinstance(value, BehaviorDescriptor):
        return {"class": value.klass.value, "figures": oracle_dict(value.figures),
                "social": value.social}
    return {**{organ.value: oracle_dict(value.organ(organ)) for organ in Organ},
            "k_stateful": value.k_stateful}


def oracle_compare(a, b, variant):
    """The text ``compare`` prints for the descriptor dicts ``a`` and ``b``
    under ``variant``: supply, then fit, or the marker where supply is
    undefined."""
    x, y = BehaviorDescriptor.from_dict(a), BehaviorDescriptor.from_dict(b)
    result = {"precedes_ab": precedes(x, y), "precedes_ba": precedes(y, x),
              "commensurable": commensurable(x, y), "distance": distance(x, y),
              "fit_variant": variant.label()}
    try:
        s = supply(x, y)
    except IncommensurableBehaviors:
        result.update(supply=None, fit=None, marker="incommensurable")
    else:
        outcome = fit(s, variant)
        result.update(supply=s, fit="-inf" if outcome.lost_identity else outcome.value,
                      marker="")
    return json.dumps(result, indent=2, sort_keys=True) + "\n"


# Descriptors whose ordered pairs hold equal, oversupplied, undersupplied
# and incommensurable pairs, named and counted figure sets, social or not.
COMPARE_DESCRIPTORS = [
    {"class": cls, "figures": figures, "social": social}
    for cls in ("purposeful", "antifragile")
    for figures in ({"named": []}, {"named": ["x"]}, {"named": ["y"]},
                    {"named": ["x", "y"]}, {"cardinality": 2})
    for social in (False, True)
]


def assert_compare_matches_oracle(a, b, variant):
    """``compare`` on files holding ``a`` and ``b`` exits 0 and prints the
    oracle's bytes."""
    with tempfile.TemporaryDirectory() as directory:
        paths = [os.path.join(directory, name) for name in ("a.json", "b.json")]
        for path, descriptor in zip(paths, (a, b)):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(descriptor, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["compare", *paths, "--fit-variant", variant.label()])
    assert code == 0
    assert out.getvalue() == oracle_compare(a, b, variant)
