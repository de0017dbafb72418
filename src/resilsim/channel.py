"""Reliable transmission over an unreliable channel, in discrete time.

The channel is abstracted as a per-step minimum yielding point y(t): the
redundancy level a protocol must strictly exceed at step t for its message
to get through. Three protocol strategies are simulated:

* elastic: a yielding point fixed once for the whole run;
* entelechial: an adaptive yielding point chosen each step from a
  predictor, kept as close above the prediction as a safety margin allows;
* antifragile: starts out entelechial, and on detecting a bursty channel
  mutates its transmission algorithm to interleaving, persisting the
  lesson in a knowledge store shared across runs.

Everything is deterministic given the model seed; no wall-clock or OS
entropy is consumed anywhere.
"""

from __future__ import annotations

import copy
import json
import math
import operator
import os
import random
import statistics
import tempfile
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .errors import InvalidBounds, NoObservations, StoreCorrupt, TraceMismatch
from .fitness import BASELINE, ShootKind, fit
from .organs import FeedbackKind

DEFAULT_EPOCHS_PER_REVIEW = 50
DEFAULT_BURSTINESS_THRESHOLD = 0.5
DEFAULT_INTERLEAVE_DEPTH = 4


# ---------------------------------------------------------------------------
# Channel models


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise InvalidBounds(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class ConstantChannel:
    """y(t) is the same positive integer at every step."""

    y: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.y < 1:
            raise InvalidBounds(f"y must be a positive integer, got {self.y}")

    def _generate(self, steps: int, rng: random.Random) -> tuple[list[int], list[str]]:
        return [self.y] * steps, ["constant"] * steps

    def config_dict(self) -> dict:
        return {"kind": "constant", "y": self.y, "seed": self.seed}


@dataclass(frozen=True)
class RandomWalkChannel:
    """y(t) drifts by +-1 steps, reflected into [y_min, y_max]."""

    y0: int
    step_prob: float
    y_min: int = 1
    y_max: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.y_min > self.y_max:
            raise InvalidBounds(f"min {self.y_min} exceeds max {self.y_max}")
        if self.y_min < 1:
            raise InvalidBounds("y_min must be a positive integer")
        if not self.y_min <= self.y0 <= self.y_max:
            raise InvalidBounds(f"y0 {self.y0} outside [{self.y_min}, {self.y_max}]")
        _check_probability("step_prob", self.step_prob)

    def _generate(self, steps: int, rng: random.Random) -> tuple[list[int], list[str]]:
        ys = [self.y0]
        for _ in range(steps - 1):
            y = ys[-1]
            if rng.random() < self.step_prob:
                y += rng.choice((-1, 1))
                y = min(self.y_max, max(self.y_min, y))
            ys.append(y)
        return ys, ["walk"] * steps

    def config_dict(self) -> dict:
        return {
            "kind": "random_walk",
            "y0": self.y0,
            "step_prob": self.step_prob,
            "min": self.y_min,
            "max": self.y_max,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class BurstyChannel:
    """Two-state chain alternating calm and burst demand levels."""

    p_enter: float
    p_exit: float
    y_calm: int
    y_burst: int
    burst_correlated: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        _check_probability("p_enter", self.p_enter)
        _check_probability("p_exit", self.p_exit)
        if self.y_calm < 1:
            raise InvalidBounds("y_calm must be a positive integer")
        if self.y_burst < self.y_calm:
            raise InvalidBounds("y_burst must be at least y_calm")

    def _generate(self, steps: int, rng: random.Random) -> tuple[list[int], list[str]]:
        ys: list[int] = []
        regimes: list[str] = []
        burst = False
        for _ in range(steps):
            if burst:
                if rng.random() < self.p_exit:
                    burst = False
            else:
                if rng.random() < self.p_enter:
                    burst = True
            ys.append(self.y_burst if burst else self.y_calm)
            regimes.append("burst" if burst else "calm")
        return ys, regimes

    def config_dict(self) -> dict:
        return {
            "kind": "bursty",
            "p_enter": self.p_enter,
            "p_exit": self.p_exit,
            "y_calm": self.y_calm,
            "y_burst": self.y_burst,
            "burst_correlated": self.burst_correlated,
            "seed": self.seed,
        }


ChannelModel = ConstantChannel | RandomWalkChannel | BurstyChannel


@dataclass(frozen=True)
class ChannelTrace:
    """A generated demand series with per-step regime labels."""

    y: tuple[int, ...]
    regimes: tuple[str, ...]
    burst_correlated: bool = True
    seed: int | None = None

    def __post_init__(self) -> None:
        if len(self.y) != len(self.regimes):
            raise ValueError("y and regimes must have the same length")

    def __len__(self) -> int:
        return len(self.y)

    def regime_segments(self) -> list[tuple[str, int, int]]:
        """Maximal constant-regime segments as (label, start, end_exclusive)."""
        segments = []
        start = 0
        for t in range(1, len(self.regimes) + 1):
            if t == len(self.regimes) or self.regimes[t] != self.regimes[start]:
                segments.append((self.regimes[start], start, t))
                start = t
        return segments


def as_trace(trace: ChannelTrace | Sequence[int]) -> ChannelTrace:
    if isinstance(trace, ChannelTrace):
        return trace
    ys = tuple(int(v) for v in trace)
    if not ys:
        raise InvalidBounds("trace must contain at least one step")
    if any(v < 1 for v in ys):
        raise InvalidBounds("y values must be positive integers")
    return ChannelTrace(y=ys, regimes=("unlabeled",) * len(ys))


def generate_trace(model: ChannelModel, steps: int) -> ChannelTrace:
    """Deterministically generate a demand trace from a channel model."""
    if steps < 1:
        raise InvalidBounds(f"steps must be at least 1, got {steps}")
    rng = random.Random(model.seed)
    ys, regimes = model._generate(steps, rng)
    return ChannelTrace(
        y=tuple(ys),
        regimes=tuple(regimes),
        burst_correlated=getattr(model, "burst_correlated", True),
        seed=model.seed,
    )


# ---------------------------------------------------------------------------
# Predictors


class WindowMax:
    """Predicts the maximum of the most recent observations."""

    def __init__(self, window: int = 8):
        if window < 1:
            raise ValueError("window must be a positive integer")
        self.window = window
        self._recent: deque[int] = deque(maxlen=window)

    def observe(self, y: float) -> None:
        self._recent.append(y)

    def predict(self) -> float:
        if not self._recent:
            raise NoObservations("predictor has no observations yet")
        return float(max(self._recent))

    def config_dict(self) -> dict:
        return {"kind": "window_max", "window": self.window}


class EwmaPlusSlope:
    """Exponentially weighted level plus slope, extrapolated ahead.

    Suited to drifting channels where the demand trends rather than
    jumping between regimes.
    """

    def __init__(self, alpha: float = 0.3, horizon: int = 1):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if horizon < 1:
            raise ValueError("horizon must be a positive integer")
        self.alpha = alpha
        self.horizon = horizon
        self._level: float | None = None
        self._slope = 0.0
        self._last: float | None = None

    def observe(self, y: float) -> None:
        if self._level is None:
            self._level = float(y)
        else:
            self._slope = self.alpha * (y - self._last) + (1 - self.alpha) * self._slope
            self._level = self.alpha * y + (1 - self.alpha) * self._level
        self._last = float(y)

    def predict(self) -> float:
        if self._level is None:
            raise NoObservations("predictor has no observations yet")
        return self._level + self.horizon * self._slope

    def config_dict(self) -> dict:
        return {"kind": "ewma_slope", "alpha": self.alpha, "horizon": self.horizon}


def _yield_from_prediction(prediction: float, epsilon: float) -> tuple[int, bool]:
    y = math.floor(prediction) + 1
    if y < 1:
        y = 1
    return y, (y - prediction) >= epsilon


def choose_yield(predictor, epsilon: float) -> tuple[int, bool]:
    """Smallest integer yielding point strictly above the prediction.

    The second element warns that the safety-margin inequality
    0 < Y - prediction < epsilon could not be met at integer granularity.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return _yield_from_prediction(predictor.predict(), epsilon)


# ---------------------------------------------------------------------------
# Protocol configuration and run records


@dataclass(frozen=True)
class Teleconferencing:
    """Periodicity-sensitive service: jitter beyond the bound breaks identity."""

    jitter_bound: float

    kind = "teleconferencing"

    def config_dict(self) -> dict:
        return {"kind": self.kind, "jitter_bound": self.jitter_bound}


@dataclass(frozen=True)
class FileTransfer:
    """Periodicity-insensitive service: jitter never breaks identity."""

    kind = "file_transfer"

    def config_dict(self) -> dict:
        return {"kind": self.kind}


IdentityProfile = Teleconferencing | FileTransfer


@dataclass(frozen=True)
class AntifragileEvolving:
    """Configuration of the evolving protocol.

    ``epochs_per_review`` is the number of steps between reviews by the
    analysis organ. Pass a fresh predictor per run; runs copy it before
    feeding observations.
    """

    predictor: object
    epsilon: float
    epochs_per_review: int = DEFAULT_EPOCHS_PER_REVIEW
    identity_profile: IdentityProfile = FileTransfer()
    burstiness_threshold: float = DEFAULT_BURSTINESS_THRESHOLD
    interleave_depth: int = DEFAULT_INTERLEAVE_DEPTH

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.epochs_per_review < 1:
            raise ValueError("epochs_per_review must be a positive integer")
        if self.interleave_depth < 2:
            raise ValueError("interleave depth must be at least 2")


@dataclass
class ProtocolRun:
    """One protocol run as parallel per-step columns, plus its aggregates.

    Entry t of each column describes step t:

    * ``y``: the channel demand, the trace's own tuple (shared, not copied);
    * ``yields``: the provisioned yielding point Y;
    * ``cost``: the copies sent (redundancy paid) at that step;
    * ``delivered_at``: the step at which the packet became available, or
      None when it was lost;
    * ``algorithm``: "repetition" or "interleaved";
    * ``prediction`` and ``margin_warning``: the predictor's output and the
      epsilon-margin flag of ``choose_yield`` (None and False for elastic).

    Over- and undershoot are not stored: they follow from ``y`` and
    ``yields``. Each aggregate is computed in one pass on first use and
    cached, so ``aggregates`` and ``compare_runs`` share it; the columns
    must not change after the run is built.
    """

    protocol: str
    header: dict
    y: tuple[int, ...]
    yields: Sequence[int]
    cost: Sequence[int]
    delivered_at: Sequence[int | None]
    algorithm: Sequence[str]
    prediction: Sequence[float | None]
    margin_warning: Sequence[bool]
    identity_violations: int = 0
    mutations: list[dict] = field(default_factory=list)

    @cached_property
    def undershoot_count(self) -> int:
        return sum(map(operator.gt, self.y, self.yields))

    @cached_property
    def cumulative_overshoot(self) -> float:
        return float(sum(Y - y for y, Y in zip(self.y, self.yields) if Y > y))

    @cached_property
    def total_cost(self) -> int:
        return sum(self.cost)

    @cached_property
    def delivered_fraction(self) -> float:
        n = len(self.delivered_at)
        return (n - self.delivered_at.count(None)) / n

    @property
    def delivery_times(self) -> list[int]:
        return sorted(dt for dt in self.delivered_at if dt is not None)

    @cached_property
    def jitter(self) -> float:
        return _jitter(self.delivery_times)

    def aggregates(self) -> dict:
        return {
            "protocol": self.protocol,
            "undershoot_count": self.undershoot_count,
            "cumulative_overshoot": self.cumulative_overshoot,
            "total_cost": self.total_cost,
            "delivered_fraction": self.delivered_fraction,
            "jitter": self.jitter,
            "identity_violations": self.identity_violations,
        }


STEP_CSV_HEADER = (
    "t", "y", "Y", "delivered", "shoot_kind", "shoot_magnitude", "cost", "algorithm",
)


def _csv_tail(y: int, Y: int, delivered: bool, cost: int, algorithm: str) -> str:
    """Every step CSV cell after ``t``, with the leading comma and the line
    end; the shoot fields are derived from y and Y."""
    if y > Y:
        kind, magnitude = ShootKind.UNDERSHOOT, y - Y
    else:
        kind, magnitude = (ShootKind.OVERSHOOT if Y > y else ShootKind.EXACT), Y - y
    return (f",{y},{Y},{'true' if delivered else 'false'},{kind.value},"
            f"{magnitude},{cost},{algorithm}\n")


def step_csv_rows(run: ProtocolRun) -> Iterator[str]:
    """The step CSV's lines after the header, one per step, made as they are
    read. The text after ``t`` depends only on (y, Y, delivered, cost,
    algorithm), so each distinct tail is built once."""
    tails: dict[tuple, str] = {}
    columns = zip(run.y, run.yields, run.delivered_at, run.cost, run.algorithm)
    for t, (y, Y, dt, cost, algorithm) in enumerate(columns):
        key = (y, Y, dt is not None, cost, algorithm)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = _csv_tail(*key)
        yield f"{t}{tail}"


def _jitter(delivery_times: Sequence[int]) -> float:
    """Standard deviation of inter-delivery gaps, in steps."""
    if len(delivery_times) < 2:
        return 0.0
    gaps = [b - a for a, b in zip(delivery_times, delivery_times[1:])]
    return statistics.pstdev(gaps)


# ---------------------------------------------------------------------------
# Protocol runs


def _deliver_by_repetition(
    ys: Sequence[int], yields: Sequence[int], steps: int
) -> list[int | None]:
    """Repetition rule over steps [0, steps): Y copies are sent at once, so
    the step-t packet is delivered at t iff Y(t) strictly exceeds y(t)."""
    return [t if Y > y else None for t, y, Y in zip(range(steps), ys, yields)]


def run_elastic(trace: ChannelTrace | Sequence[int], yield_point: int) -> ProtocolRun:
    """Fixed yielding point for the whole run.

    Delivery at step t succeeds iff yield_point strictly exceeds y(t); with
    a yield above the trace supremum no undershooting is ever experienced,
    at the price of paying for the worst case at every step.
    """
    trace = as_trace(trace)
    if yield_point < 1:
        raise ValueError("yield point must be a positive integer")
    n = len(trace.y)
    yields = (yield_point,) * n
    header = {"protocol": "elastic", "yield_point": yield_point}
    return ProtocolRun(
        "elastic", header, trace.y, yields, yields,
        _deliver_by_repetition(trace.y, yields, n),
        ("repetition",) * n, (None,) * n, (False,) * n,
    )


def _predict_yields(
    ys: Sequence[int], predictor, epsilon: float
) -> tuple[list[int], list[float], list[bool]]:
    """Per-step yield choices from a predictor over the observed history.

    Step 0 bootstraps from the first sample itself (the predictor is primed
    with y(0), so Y(0) = y(0) + 1); every later step only sees samples up
    to the previous one.
    """
    yields: list[int] = []
    predictions: list[float] = []
    warnings_: list[bool] = []
    for t, y in enumerate(ys):
        if t == 0:
            predictor.observe(y)
        prediction = predictor.predict()
        chosen, warn = _yield_from_prediction(prediction, epsilon)
        yields.append(chosen)
        predictions.append(prediction)
        warnings_.append(warn)
        if t > 0:
            predictor.observe(y)
    return yields, predictions, warnings_


def run_entelechial(
    trace: ChannelTrace | Sequence[int], predictor, epsilon: float
) -> ProtocolRun:
    """Adaptive yielding point chosen each step from the predictor."""
    trace = as_trace(trace)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    predictor_config = predictor.config_dict()
    predictor = copy.deepcopy(predictor)
    yields, predictions, warns = _predict_yields(trace.y, predictor, epsilon)
    header = {
        "protocol": "entelechial",
        "predictor": predictor_config,
        "epsilon": epsilon,
        "bootstrap_yield": trace.y[0] + 1,
    }
    n = len(trace.y)
    return ProtocolRun(
        "entelechial", header, trace.y, yields, yields,
        _deliver_by_repetition(trace.y, yields, n),
        ("repetition",) * n, predictions, warns,
    )


def burstiness(ys: Sequence[int], window: range, baseline: int) -> float:
    """Fraction of elevated-demand steps that occur in streaks of >= 2.

    Elevated means strictly above the calmest level observed so far. A
    high value signals correlated (bursty) demand; returns 0.0 when the
    window shows no elevated demand at all.
    """
    elevated = [ys[t] > baseline for t in window]
    total = sum(elevated)
    if total == 0:
        return 0.0
    streaked = 0
    run_length = 0
    for is_elevated in elevated + [False]:
        if is_elevated:
            run_length += 1
        else:
            if run_length >= 2:
                streaked += run_length
            run_length = 0
    return streaked / total


def _signature(burstiness_estimate: float) -> str:
    if burstiness_estimate == 0.0:
        return "calm"
    if burstiness_estimate <= 0.5:
        return "bursty-low"
    return "bursty-high"


def run_antifragile(
    trace: ChannelTrace | Sequence[int],
    config: AntifragileEvolving,
    store: "KnowledgeStore",
) -> tuple[ProtocolRun, "KnowledgeStore"]:
    """Evolving protocol: repetition first, interleaving once bursts are learned.

    Every ``epochs_per_review`` steps the analysis organ estimates channel
    burstiness over the last epoch. When it exceeds the configured
    threshold the protocol mutates its algorithm to block interleaving
    (a genotypical change: it is persisted to the knowledge store and
    carried across runs). Parameters of an already stored lesson are
    adopted instead of being relearned.

    Interleaving groups packets into blocks of ``depth`` consecutive due
    steps and sends two copies of each packet on distinct steps of the
    block, instead of Y copies all at once. Under correlated bursts a
    packet is delivered if at least one copy lands on a step whose current
    yield covers the demand, which rescues burst-onset packets at a lower
    cost per step; under uncorrelated losses spreading copies buys nothing
    and delivery degenerates to the repetition rule. Deinterleaving makes
    the block's packets available together at the block's last step, which
    is what introduces jitter.
    """
    trace = as_trace(trace)
    ys = trace.y
    n = len(ys)
    review_every = config.epochs_per_review
    predictor_config = config.predictor.config_dict()
    predictor = copy.deepcopy(config.predictor)
    yields, predictions, warns = _predict_yields(ys, predictor, config.epsilon)

    # Review pass: find the mutation point, if any, and record the lesson.
    algorithm = "repetition"
    depth = 0
    mutation_step: int | None = None
    mutations: list[dict] = []
    calmest = ys[0]  # running min(ys[:review_at])
    for k in range(1, n // review_every + 1):
        review_at = k * review_every
        window = range(review_at - review_every, review_at)
        calmest = min(calmest, min(ys[window.start:review_at]))
        estimate = burstiness(ys, window, calmest)
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
                continue  # the stored lesson says to stay as-is
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

    # Delivery pass: repetition up to the mutation, interleaving after it.
    repetition_until = n if mutation_step is None else mutation_step
    delivered_at = _deliver_by_repetition(ys, yields, repetition_until)
    if mutation_step is None:
        step_cost: list[int] = yields
        step_algorithm: Sequence[str] = ("repetition",) * n
    else:
        interleaved = n - mutation_step
        delivered_at += [None] * interleaved
        step_cost = yields[:mutation_step] + [0] * interleaved
        step_algorithm = ("repetition",) * mutation_step + ("interleaved",) * interleaved
        for block_start in range(mutation_step, n, depth):
            block = list(range(block_start, min(block_start + depth, n)))
            length = len(block)
            offset = max(1, length // 2)
            for i, t in enumerate(block):
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
                    delivered_at[t] = block[-1]

    # Identity accounting: jitter per review epoch, delivery times bucketed
    # by epoch in one pass (every delivery time lies in [0, n)).
    violations = 0
    if isinstance(config.identity_profile, Teleconferencing):
        bound = config.identity_profile.jitter_bound
        epochs: list[list[int]] = [[] for _ in range(math.ceil(n / review_every))]
        for dt in delivered_at:
            if dt is not None:
                epochs[dt // review_every].append(dt)
        for epoch_times in epochs:
            epoch_times.sort()
            if _jitter(epoch_times) > bound:
                violations += 1

    header = {
        "protocol": "antifragile",
        "predictor": predictor_config,
        "epsilon": config.epsilon,
        "epochs_per_review": review_every,
        "identity_profile": config.identity_profile.config_dict(),
        "burstiness_threshold": config.burstiness_threshold,
        "bootstrap_yield": ys[0] + 1,
    }
    run = ProtocolRun(
        "antifragile", header, ys, yields, step_cost, delivered_at, step_algorithm,
        predictions, warns, identity_violations=violations, mutations=mutations,
    )
    return run, store


def mean_step_fit(run: ProtocolRun, variant=None) -> float:
    """Average per-step fit of a run, from supply = Y - y.

    Identity-loss steps contribute 0.0 so the mean stays bounded; the
    overall value summarizes how tightly the protocol tracked the demand.
    """
    variant = variant or BASELINE
    fits: dict[int, float] = {}  # fit depends on the supply alone
    total = 0.0
    for supply in map(operator.sub, run.yields, run.y):
        value = fits.get(supply)
        if value is None:
            outcome = fit(supply, variant)
            value = fits[supply] = 0.0 if outcome.lost_identity else outcome.value
        total += value
    return total / len(run.y)


COMPARE_CSV_HEADER = (
    "protocol", "undershoot_count", "cumulative_overshoot", "total_cost",
    "delivered_fraction", "jitter",
)


def compare_runs(runs: Mapping[str, ProtocolRun]) -> list[dict]:
    """Aggregate comparison rows for runs that share one channel trace."""
    if not runs:
        raise ValueError("no runs to compare")
    traces = {run.y for run in runs.values()}
    if len(traces) > 1:
        raise TraceMismatch("runs were driven by different channel traces")
    rows = []
    for name in sorted(runs):
        run = runs[name]
        rows.append({
            "protocol": name,
            "undershoot_count": run.undershoot_count,
            "cumulative_overshoot": run.cumulative_overshoot,
            "total_cost": run.total_cost,
            "delivered_fraction": run.delivered_fraction,
            "jitter": run.jitter,
        })
    return rows


# ---------------------------------------------------------------------------
# Knowledge store


class KnowledgeStore:
    """Lessons learned across runs, keyed by channel signature.

    Entries only accumulate within a run (the store never shrinks), and a
    saved store reloads byte-identically. Writes are atomic
    (write-temp-then-rename); concurrent runs must use separate files.
    """

    def __init__(self, entries: list[dict] | None = None, path: str | None = None):
        self._entries: dict[str, dict] = {}
        self.path = path
        for entry in entries or []:
            self._validate(entry)
            self._entries[entry["signature"]] = dict(entry)

    @staticmethod
    def _validate(entry: dict) -> None:
        if not isinstance(entry, dict) or not isinstance(entry.get("signature"), str) \
                or "algorithm" not in entry:
            raise StoreCorrupt(f"malformed store entry: {entry!r}")
        depth = entry.get("depth", 0)
        if not isinstance(depth, int) or isinstance(depth, bool):
            raise StoreCorrupt(f"store entry depth is not an integer: {entry!r}")

    @classmethod
    def load(cls, path: str) -> "KnowledgeStore":
        if not os.path.exists(path):
            return cls(path=path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorrupt(f"cannot parse knowledge store {path}: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise StoreCorrupt(f"knowledge store {path} has no entry list")
        try:
            return cls(entries=data["entries"], path=path)
        except StoreCorrupt as exc:
            raise StoreCorrupt(f"knowledge store {path}: {exc}") from exc

    def get(self, signature: str) -> dict | None:
        entry = self._entries.get(signature)
        return dict(entry) if entry is not None else None

    def put(self, entry: dict) -> None:
        """Add or update a lesson and persist if the store is file-backed."""
        self._validate(entry)
        self._entries[entry["signature"]] = dict(entry)
        if self.path is not None:
            self.save()

    def __len__(self) -> int:
        return len(self._entries)

    def signatures(self) -> list[str]:
        return sorted(self._entries)

    def to_dict(self) -> dict:
        return {"entries": [self._entries[s] for s in sorted(self._entries)]}

    def save(self, path: str | None = None) -> None:
        target = path or self.path
        if target is None:
            raise ValueError("no path to save the knowledge store to")
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        directory = os.path.dirname(os.path.abspath(target))
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(temp_path, target)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
