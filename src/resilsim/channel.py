"""Reliable transmission over an unreliable channel, in discrete time.

The channel is abstracted as a per-step minimum yielding point y(t): the
redundancy level a protocol must strictly exceed at step t for its message
to get through. Three protocol strategies are simulated:

* elastic: a yielding point fixed once for the whole run;
* entelechial: an adaptive yielding point chosen each step from a
  predictor, kept as close above the prediction as a safety margin allows;
* antifragile: starts out entelechial, and on detecting a bursty channel
  mutates its transmission algorithm to interleaving, recording the
  lesson in a knowledge store shared across runs.

Everything is deterministic given the model seed; no wall-clock or OS
entropy reaches a run or an output. Only :meth:`KnowledgeStore.load` and
:meth:`KnowledgeStore.save` touch files; the runs themselves are pure.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import operator
import os
import random
import shutil
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import StoreCorrupt, TraceMismatch, check_probability
from .fitness import BASELINE, fit, shooting


# ---------------------------------------------------------------------------
# Channel models


@dataclass(frozen=True)
class ConstantChannel:
    """y(t) is the same positive integer at every step."""

    y: int
    seed: int = 0

    kind = "constant"

    def __post_init__(self) -> None:
        if self.y < 1:
            raise ValueError(f"y must be a positive integer, got {self.y}")

    def _generate(self, steps: int, rng: random.Random) -> Sequence[int]:
        return (self.y,) * steps


@dataclass(frozen=True)
class RandomWalkChannel:
    """y(t) drifts by +-1 steps, reflected into [y_min, y_max]."""

    y0: int
    step_prob: float
    y_min: int = 1
    y_max: int = 6
    seed: int = 0

    kind = "random_walk"
    # Config keys that differ from the parameter they set. The CLI's loader
    # reads them and ``config_dict`` writes them.
    config_keys = {"y_min": "min", "y_max": "max"}

    def __post_init__(self) -> None:
        if self.y_min > self.y_max:
            raise ValueError(f"min {self.y_min} exceeds max {self.y_max}")
        if self.y_min < 1:
            raise ValueError("y_min must be a positive integer")
        if not self.y_min <= self.y0 <= self.y_max:
            raise ValueError(f"y0 {self.y0} outside [{self.y_min}, {self.y_max}]")
        check_probability("step_prob", self.step_prob)

    def _generate(self, steps: int, rng: random.Random) -> Iterator[int]:
        draw, choice, step_prob = rng.random, rng.choice, self.step_prob
        low, high, y = self.y_min, self.y_max, self.y0
        yield y
        for _ in range(steps - 1):
            if draw() < step_prob:
                y += choice((-1, 1))
                y = low if y < low else high if y > high else y
            yield y


@dataclass(frozen=True)
class BurstyChannel:
    """Two-state chain alternating calm and burst demand levels."""

    p_enter: float
    p_exit: float
    y_calm: int
    y_burst: int
    burst_correlated: bool = True
    seed: int = 0

    kind = "bursty"

    def __post_init__(self) -> None:
        check_probability("p_enter", self.p_enter)
        check_probability("p_exit", self.p_exit)
        if self.y_calm < 1:
            raise ValueError("y_calm must be a positive integer")
        if self.y_burst < self.y_calm:
            raise ValueError("y_burst must be at least y_calm")

    def _generate(self, steps: int, rng: random.Random) -> Sequence[int]:
        ys: list[int] = []
        burst = False
        for _ in range(steps):
            if burst:
                if rng.random() < self.p_exit:
                    burst = False
            else:
                if rng.random() < self.p_enter:
                    burst = True
            ys.append(self.y_burst if burst else self.y_calm)
        return ys


ChannelModel = ConstantChannel | RandomWalkChannel | BurstyChannel


@dataclass(frozen=True)
class ChannelTrace:
    """The demand y(t), all a protocol perceives of the channel. ``_yields``
    keeps the last entelechial yields run on it (see :func:`_entelechial`)."""

    y: tuple[int, ...]
    burst_correlated: bool = True
    _yields: tuple | None = field(default=None, init=False, repr=False, compare=False)


def as_trace(trace: ChannelTrace | Sequence[int]) -> ChannelTrace:
    if isinstance(trace, ChannelTrace):
        return trace
    ys = tuple(trace)
    if not ys:
        raise ValueError("trace must contain at least one step")
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in ys):
        raise ValueError("y values must be positive integers")
    return ChannelTrace(y=ys)


def generate_trace(model: ChannelModel, steps: int) -> ChannelTrace:
    """Deterministically generate a channel model's demand, a word a step."""
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    rng = random.Random(model.seed)
    return ChannelTrace(
        y=tuple(model._generate(steps, rng)),
        burst_correlated=getattr(model, "burst_correlated", True),
    )


# ---------------------------------------------------------------------------
# Predictors


@dataclass(frozen=True)
class WindowMax:
    """Predicts the maximum of the most recent ``window`` samples."""

    window: int = 8

    kind = "window_max"

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be a positive integer")

    def yields(self, ys: Sequence[int]) -> tuple[int, ...]:
        """The yield before each step of ``ys``, one above its exact integer
        prediction: ``ys[0]``, then the maximum of the last ``window`` samples
        of ``ys[:t]``, a running maximum up to ``window`` steps and then the
        maximum of the spans ``span[j] = max(ys[j:j + width])`` at offsets
        0, width, ... and ``window - width``, where each doubling of
        ``width`` is one pass: O(log window) per step."""
        n, window = len(ys), self.window
        maxima = chain(islice(ys, 1), accumulate(islice(ys, min(window, n) - 1), max))
        if window < n:
            span, width = ys, 1
            while window > 8 * width:
                span = list(map(max, span, islice(span, width, None)))
                width *= 2
            offsets = chain(range(0, window - width, width), (window - width,))
            starts = (islice(span, i, i + n - window) for i in offsets)
            maxima = chain(maxima, map(max, zip(*starts)))
        return tuple(map((1).__add__, maxima))


@dataclass(frozen=True)
class EwmaPlusSlope:
    """Exponentially weighted level plus slope, extrapolated ``horizon``
    steps ahead.

    Suited to drifting channels where the demand trends rather than
    jumping between levels.
    """

    alpha: float = 0.3
    horizon: int = 1

    kind = "ewma_slope"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")

    def yields(self, ys: Sequence[int]) -> tuple[int, ...]:
        """The yield before each step of ``ys``: the smallest integer above
        the prediction level + horizon * slope, and at least 1. Level and
        slope start at ``ys[0]`` and 0, and each sample y of ``ys[1:t]``
        takes the slope to alpha * (y - the sample before) + (1 - alpha) *
        slope, then the level to alpha * y + (1 - alpha) * level."""
        alpha, beta, horizon, floor = self.alpha, 1 - self.alpha, self.horizon, math.floor
        level = last = float(ys[0])
        slope = 0.0
        Y = floor(level + horizon * slope) + 1
        columns = [Y if Y > 1 else 1] * min(2, len(ys))
        append = columns.append
        for y in islice(ys, 1, len(ys) - 1):
            slope = alpha * (y - last) + beta * slope
            level = alpha * y + beta * level
            last = float(y)
            Y = floor(level + horizon * slope) + 1
            append(Y if Y > 1 else 1)
        return tuple(columns)


Predictor = WindowMax | EwmaPlusSlope


# ---------------------------------------------------------------------------
# Protocol configuration and run records


@dataclass(frozen=True)
class Teleconferencing:
    """Periodicity-sensitive service: jitter beyond the bound breaks identity."""

    jitter_bound: float

    kind = "teleconferencing"


@dataclass(frozen=True)
class FileTransfer:
    """Periodicity-insensitive service: jitter never breaks identity."""

    kind = "file_transfer"


IdentityProfile = Teleconferencing | FileTransfer


def config_dict(obj) -> dict:
    """The config section that builds ``obj``: a channel model, predictor or
    identity profile.

    That is ``{"kind": obj.kind}`` plus every constructor parameter of
    ``obj``'s class under its config key (its name, unless the class's
    ``config_keys`` renames it), so a channel's section holds its ``seed``
    too. The CLI's loader reads the same keys from the same signature, so
    the section builds an equal object again.
    """
    config = {"kind": obj.kind}
    renamed = getattr(obj, "config_keys", {})
    for name in inspect.signature(type(obj)).parameters:
        config[renamed.get(name, name)] = getattr(obj, name)
    return config


@dataclass(frozen=True)
class AntifragileEvolving:
    """Configuration of the evolving protocol.

    ``epochs_per_review`` is the number of steps between reviews by the
    analysis organ.
    """

    predictor: Predictor
    epsilon: float
    epochs_per_review: int = 50
    identity_profile: IdentityProfile = FileTransfer()
    burstiness_threshold: float = 0.5
    interleave_depth: int = 4

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.epochs_per_review < 1:
            raise ValueError("epochs_per_review must be a positive integer")
        if self.interleave_depth < 2:
            raise ValueError("interleave depth must be at least 2")
        check_probability("burstiness_threshold", self.burstiness_threshold)


@dataclass
class ProtocolRun:
    """One protocol run as parallel per-step columns, plus its aggregates.

    Entry t of each stored column describes step t:

    * ``y``: the channel demand, the trace's own tuple (shared, not copied);
    * ``yields``: the provisioned yielding point Y, a word a step, shared
      by the runs of one predictor pass (see :func:`_entelechial`);
    * ``delivered``: 1 if the packet got through, else 0, one byte a step.

    With ``mutation_step`` (None if the run never mutates) and the
    interleaving ``depth`` they fix what is derived on read, each in one
    place: over- and undershoot, ``delivery_times``, ``_segments()``, which
    the step CSV and ``costs()`` read, and ``arrivals()``. ``total_cost``,
    ``jitter`` and identity accounting stream these iterators.
    Each aggregate is computed in one pass on first use and cached, so
    ``aggregates`` and ``compare_runs`` share it; the columns must not
    change after the run is built.
    """

    header: dict
    y: tuple[int, ...]
    yields: Sequence[int]
    delivered: bytes
    mutation_step: int | None = None
    depth: int = 0
    identity_violations: int = 0
    mutations: list[dict] = field(default_factory=list)

    @property
    def _repetition_steps(self) -> int:
        return len(self.y) if self.mutation_step is None else self.mutation_step

    def _segments(self) -> tuple[tuple[int, int, int | None, str], ...]:
        """(start, stop, copies sent, algorithm) of each run of steps: Y(t),
        given as None, before the mutation, 2 after it, as each step of a
        block of length >= 2 gets exactly one second copy, and 1 in a
        trailing one-step block."""
        m, n = self._repetition_steps, len(self.y)
        single = m < n and (n - m) % self.depth == 1  # a trailing one-step block
        return ((0, m, None, "repetition"), (m, n - single, 2, "interleaved"),
                (n - single, n, 1, "interleaved"))

    def costs(self) -> Iterator[int]:
        """The copies sent at each step (see :meth:`_segments`)."""
        return chain.from_iterable(
            islice(self.yields, start, stop) if cost is None else repeat(cost, stop - start)
            for start, stop, cost, _ in self._segments())

    def arrivals(self) -> Iterator[int]:
        """When each step's packet arrives if delivered: at the step itself
        before the mutation, at its block's last step after it."""
        n, m, depth = len(self.y), self._repetition_steps, self.depth
        if m == n:
            return iter(range(n))
        full_blocks = map(repeat, range(m + depth - 1, n, depth), repeat(depth))
        return chain(range(m), chain.from_iterable(full_blocks),
                     repeat(n - 1, (n - m) % depth))

    @property
    def delivery_times(self) -> list[int]:
        """The delivery steps, in order: no packet arrives before an earlier one."""
        return list(compress(self.arrivals(), self.delivered))

    @cached_property
    def undershoot_count(self) -> int:
        return sum(map(operator.gt, self.y, self.yields))

    @cached_property
    def cumulative_overshoot(self) -> float:
        return float(sum(Y - y for y, Y in zip(self.y, self.yields) if Y > y))

    @cached_property
    def total_cost(self) -> int:
        return sum(self.costs())

    @cached_property
    def delivered_fraction(self) -> float:
        return self.delivered.count(1) / len(self.delivered)

    @cached_property
    def jitter(self) -> float:
        return _jitter(compress(self.arrivals(), self.delivered))

    def aggregates(self) -> dict:
        return {
            "protocol": self.header["protocol"],
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
    end; the shoot fields are those of :func:`~resilsim.fitness.shooting`."""
    shoot = shooting(y, Y)
    return (f",{y},{Y},{'true' if delivered else 'false'},{shoot.kind.value},"
            f"{shoot.magnitude},{cost},{algorithm}\n")


class _StepFormats(dict):
    """A step line's ``%`` format by its (y, Y, delivered) in one segment,
    built on first lookup: ``%d`` for ``t``, then its :func:`_csv_tail`."""

    def __init__(self, cost: int | None, algorithm: str):
        self.cost, self.algorithm = cost, algorithm

    def __missing__(self, key: tuple) -> str:
        tail = _csv_tail(*key, self.cost or key[1], self.algorithm)
        self[key] = line = "%d" + tail.replace("%", "%%")
        return line


def step_csv_rows(run: ProtocolRun) -> Iterator[str]:
    """The step CSV's lines after the header, made as they are read, in
    blocks of up to 4 096 whole lines: each block is its lines' formats
    joined and filled with their ``t`` by one ``%``."""
    formats = chain.from_iterable(
        map(_StepFormats(cost, algorithm).__getitem__,
            zip(*(islice(c, start, stop) for c in (run.y, run.yields, run.delivered))))
        for start, stop, cost, algorithm in run._segments())
    ts = range(len(run.y))
    for start in range(0, len(ts), 4096):
        yield "".join(islice(formats, 4096)) % tuple(ts[start:start + 4096])


# Bits of the integer square root taken before the one rounding to a float.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_ratio(n: int, m: int) -> float:
    """The correctly rounded float square root of n / m, for n >= 0 and m > 0.

    The integer root of n / m, scaled to at least ``_SQRT_BITS`` bits and
    rounded to odd, keeps enough bits that the true division below is the
    only rounding (bugs.python.org msg407078; the algorithm of
    ``statistics`` since Python 3.11).
    """
    q = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def _jitter(delivery_times: Iterable[int]) -> float:
    """Population standard deviation of the inter-delivery gaps, in steps.

    With k gaps g, the variance is (k·Σg² − (Σg)²) / k², exact in integers:
    Σg is the last time minus the first, and Σg² and k take one pass over
    the ordered times. Its root is correctly rounded, so every Python gives
    the same float.
    """
    times = iter(delivery_times)
    first = last = next(times, 0)
    k = squares = 0
    for k, t in enumerate(times, 1):
        gap = t - last
        squares += gap * gap
        last = t
    if k < 1:
        return 0.0
    return _sqrt_of_ratio(k * squares - (last - first) ** 2, k * k)


# ---------------------------------------------------------------------------
# Protocol runs


def _protocol_run(
    trace: ChannelTrace,
    header: dict,
    yields: Sequence[int],
    mutation_step: int | None = None,
    depth: int = 0,
) -> ProtocolRun:
    """The run of every protocol: its one-byte-a-step delivery column from
    the provisioned ``yields``; the rest is derived (see :class:`ProtocolRun`).

    Before ``mutation_step`` (at every step when it is None) the repetition
    rule holds: Y copies are sent at once, so the step-t packet costs Y(t)
    and is delivered at t iff Y(t) strictly exceeds y(t).

    From ``mutation_step`` on, block interleaving groups packets into blocks
    of ``depth`` consecutive steps and sends two copies of each packet on
    distinct steps of the block, instead of Y copies all at once. Under
    correlated bursts a packet is delivered if at least one copy lands on a
    step whose current yield covers the demand, which rescues burst-onset
    packets at a lower cost per step; under uncorrelated losses spreading
    copies buys nothing and delivery degenerates to the repetition rule.
    Deinterleaving makes the block's packets available together at the
    block's last step, which is what introduces jitter. An interleaved step
    costs 2, one per copy, or 1 alone in a trailing block. Either way the
    delivery steps never decrease along the run. The rules run over whole
    columns, interleaving as one strided byte slice per position in a block,
    so the work is O(steps) for any depth.
    """
    delivered = bytearray(map(operator.gt, yields, trace.y))
    if mutation_step is not None and trace.burst_correlated:
        # Residue r of each block pairs with (r + offset) mod its length; the
        # full blocks, then the trailing block (of length 1 maybe) by itself.
        ok = delivered[mutation_step:]
        steps = len(ok)
        full = steps - steps % depth
        for start, stop, length in ((0, full, depth), (full, steps, steps - full)):
            offset = max(1, length // 2)
            for r in range(min(length, stop - start)):
                second = start + (r + offset) % length
                delivered[mutation_step + start + r:mutation_step + stop:length] = bytes(
                    map(operator.or_, ok[start + r:stop:length], ok[second:stop:length]))
    return ProtocolRun(header, trace.y, yields, bytes(delivered), mutation_step, depth)


def run_elastic(trace: ChannelTrace | Sequence[int], yield_point: int) -> ProtocolRun:
    """Fixed yielding point for the whole run.

    Delivery at step t succeeds iff yield_point strictly exceeds y(t); with
    a yield above the trace supremum no undershooting is ever experienced,
    at the price of paying for the worst case at every step.
    """
    trace = as_trace(trace)
    if yield_point < 1:
        raise ValueError("yield point must be a positive integer")
    header = {"protocol": "elastic", "yield_point": yield_point}
    return _protocol_run(trace, header, (yield_point,) * len(trace.y))


def _entelechial(
    trace: ChannelTrace, predictor: Predictor, epsilon: float
) -> tuple[dict, tuple[int, ...]]:
    """The entelechial header and its per-step yield column.

    Y(t) is the smallest integer strictly above the prediction, and at
    least 1; epsilon is validated and echoed in the header, but the yields
    do not read it. Step 0 predicts y(0), and the header's
    ``bootstrap_yield`` is Y(0); every later step only sees samples up to
    the previous one. The yields are one ``predictor.yields`` pass, which
    keeps no prediction. The trace keeps them, immutable (a tuple), so a
    call with an equal predictor and epsilon shares them.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    key = (predictor, epsilon)
    if trace._yields is None or trace._yields[0] != key:
        object.__setattr__(trace, "_yields", (key, predictor.yields(trace.y)))
    yields = trace._yields[1]
    return {"protocol": "entelechial", "predictor": config_dict(predictor),
            "epsilon": epsilon, "bootstrap_yield": yields[0]}, yields


def run_entelechial(
    trace: ChannelTrace | Sequence[int], predictor: Predictor, epsilon: float
) -> ProtocolRun:
    """Adaptive yielding point chosen each step from the predictor."""
    trace = as_trace(trace)
    return _protocol_run(trace, *_entelechial(trace, predictor, epsilon))


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
    if burstiness_estimate <= 0.5:
        return "bursty-low"
    return "bursty-high"


def run_antifragile(
    trace: ChannelTrace | Sequence[int],
    config: AntifragileEvolving,
    store: "KnowledgeStore",
) -> ProtocolRun:
    """Evolving protocol: the entelechial run plus a mutation point.

    It starts entelechial: its yields are those of :func:`run_entelechial`
    with the same predictor and epsilon, and so is its delivery up to the
    mutation point. Every
    ``epochs_per_review`` steps the analysis organ estimates channel
    burstiness over the last epoch. When it exceeds the configured
    threshold the protocol mutates its algorithm to block interleaving
    from that step on (see :func:`_protocol_run`): a genotypical change,
    whose lesson is put into ``store``, updated in place, and carried
    across runs once the caller saves it. Parameters of an already stored
    lesson are adopted instead of being relearned. No file is read or
    written.
    """
    from .organs import FeedbackKind  # only this protocol records feedback

    trace = as_trace(trace)
    ys = trace.y
    n = len(ys)
    review_every = config.epochs_per_review
    header, yields = _entelechial(trace, config.predictor, config.epsilon)
    header.update(
        protocol="antifragile",
        epochs_per_review=review_every,
        identity_profile=config_dict(config.identity_profile),
        burstiness_threshold=config.burstiness_threshold,
    )

    # Review pass: find the mutation point, if any, and record the lesson.
    depth = 0
    mutation_step: int | None = None
    mutations: list[dict] = []
    calmest = ys[0]  # running min(ys[:review_at])
    for k in range(1, n // review_every + 1):
        review_at = k * review_every
        window = range(review_at - review_every, review_at)
        calmest = min(calmest, min(ys[window.start:review_at]))
        estimate = burstiness(ys, window, calmest)
        if estimate <= config.burstiness_threshold:
            continue
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
        break  # a genotypical change is permanent: nothing is left to review

    run = _protocol_run(trace, header, yields, mutation_step, depth)
    run.mutations = mutations

    # Identity accounting: jitter per review epoch. The delivery times never
    # decrease, so each epoch's times are one slice of them.
    if isinstance(config.identity_profile, Teleconferencing):
        bound = config.identity_profile.jitter_bound
        times = run.delivery_times
        cuts = [bisect_left(times, k * review_every)
                for k in range(math.ceil(n / review_every) + 1)]
        run.identity_violations = sum(
            _jitter(times[lo:hi]) > bound for lo, hi in zip(cuts, cuts[1:]))
    return run


def mean_step_fit(run: ProtocolRun, variant=BASELINE) -> float:
    """Average per-step fit of a run, from supply = Y - y.

    Identity-loss steps contribute 0.0 so the mean stays bounded; the
    overall value summarizes how tightly the protocol tracked the demand.
    """
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
        row = runs[name].aggregates() | {"protocol": name}
        rows.append({column: row[column] for column in COMPARE_CSV_HEADER})
    return rows


# ---------------------------------------------------------------------------
# Knowledge store


class KnowledgeStore:
    """Lessons learned across runs, keyed by channel signature, in memory.

    Entries only accumulate. Only :meth:`load` and :meth:`save` touch a file;
    a saved store reloads byte-identically. Saves are atomic (temp file, then
    rename); concurrent runs must use separate files, and one process saves
    one store at a time.
    """

    def __init__(self, entries: list[dict] | None = None):
        self._entries: dict[str, dict] = {}
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
        """The store saved at ``path``; an empty one if there is no file."""
        if not os.path.exists(path):
            return cls()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            # not JSON or UTF-8, an integer past the digit limit, or nested too deep
            raise StoreCorrupt(f"cannot parse knowledge store {path}: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise StoreCorrupt(f"knowledge store {path} has no entry list")
        try:
            return cls(data["entries"])
        except StoreCorrupt as exc:
            raise StoreCorrupt(f"knowledge store {path}: {exc}") from exc

    def get(self, signature: str) -> dict | None:
        entry = self._entries.get(signature)
        return dict(entry) if entry is not None else None

    def put(self, entry: dict) -> None:
        """Add or update a lesson, in memory only."""
        self._validate(entry)
        self._entries[entry["signature"]] = dict(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def to_dict(self) -> dict:
        return {"entries": [self._entries[s] for s in sorted(self._entries)]}

    @staticmethod
    def temp_path(path: str) -> str:
        """The temp file that :meth:`save` writes and then renames to ``path``.
        The process id is padded to 7 digits (Linux allows at most 4 194 304),
        so the name's length, which the CLI checks, is the same for every id."""
        return f"{path}.{os.getpid():07d}.tmp"

    def save(self, path: str) -> None:
        """Write to ``path`` with the mode ``open(path, "w")`` would give it.

        The temp file is named after the process id, not OS entropy; a
        leftover of an earlier process with the same id is replaced.
        """
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        temp_path = self.temp_path(path)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp_path)
        try:
            with open(temp_path, "x", encoding="utf-8") as handle:
                handle.write(payload)
            if os.path.exists(path):
                shutil.copymode(path, temp_path)
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
