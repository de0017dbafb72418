"""Supply, system-environment fit, and over/undershoot accounting.

Supply is the signed behavioral distance between a system's behavior and
its environment's: positive when the system offers more than the
environment demands (oversupply), negative when it offers less
(undersupply, which means identity loss). Fit maps supply onto (0, 1],
with a tagged sentinel for identity loss instead of a floating -inf.

The module also provides shooting records for yielding-point runs and fit
timelines over piecewise-constant behavior traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .behavior import (
    BehaviorDescriptor,
    distance,
    precedes,
    precedes_by_inclusion,
)
from .errors import ContainsUndershoot, EmptyTraceOverlap, IncommensurableBehaviors


class Direction(Enum):
    SYSTEM_DOMINATES = "system"
    ENVIRONMENT_DOMINATES = "environment"
    EQUAL = "equal"
    INCOMMENSURABLE = "incommensurable"


def resolve_direction(
    system: BehaviorDescriptor, environment: BehaviorDescriptor
) -> Direction:
    """Orient the partial order between a system and its environment.

    The raw order admits one conflict shape: figure inclusion can point one
    way while the social flag points the other. Inclusion wins the
    tie-break; the social condition only orients pairs that inclusion
    leaves untouched.
    """
    if system == environment:
        return Direction.EQUAL
    env_below = precedes(environment, system)
    sys_below = precedes(system, environment)
    if env_below and sys_below:
        if precedes_by_inclusion(environment, system):
            return Direction.SYSTEM_DOMINATES
        if precedes_by_inclusion(system, environment):
            return Direction.ENVIRONMENT_DOMINATES
        raise AssertionError("order conflict without an inclusion witness")
    if env_below:
        return Direction.SYSTEM_DOMINATES
    if sys_below:
        return Direction.ENVIRONMENT_DOMINATES
    return Direction.INCOMMENSURABLE


def supply(system: BehaviorDescriptor, environment: BehaviorDescriptor) -> int:
    """Signed behavioral distance from the environment's demand.

    Positive: the environment's behavior sits below the system's
    (oversupply). Negative: the system's sits below the environment's
    (undersupply). Zero on equal descriptors.
    """
    direction = resolve_direction(system, environment)
    if direction is Direction.INCOMMENSURABLE:
        raise IncommensurableBehaviors(
            "behaviors are incommensurable; consider a social behavior"
        )
    if direction is Direction.EQUAL:
        return 0
    d = distance(system, environment)
    return d if direction is Direction.SYSTEM_DOMINATES else -d


# The identity-loss sentinel as text; it is never a floating infinity.
IDENTITY_LOSS_LABEL = "-inf"


@dataclass(frozen=True)
class FitOutcome:
    """Fit value in (0, 1], or the identity-loss sentinel.

    ``value`` is None exactly when supply was negative. The sentinel
    serializes as ``IDENTITY_LOSS_LABEL``.
    """

    value: float | None

    @property
    def lost_identity(self) -> bool:
        return self.value is None

    def serialized(self) -> str:
        return IDENTITY_LOSS_LABEL if self.value is None else repr(self.value)


IDENTITY_LOSS = FitOutcome(None)

_VARIANT_KINDS = ("baseline", "quadratic", "plateau")


@dataclass(frozen=True)
class FitVariant:
    """How oversupply is penalized when mapping supply to fit.

    baseline: 1/(1+s). quadratic: 1/(1+s^2). plateau(w): perfect fit is
    extended over the oversupply range 0..w as a safety margin, then the
    baseline penalty applies to the excess.
    """

    kind: str = "baseline"
    plateau_width: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _VARIANT_KINDS:
            raise ValueError(f"unknown fit variant {self.kind!r}")
        if self.plateau_width < 0:
            raise ValueError("plateau width must be non-negative")
        if self.kind != "plateau" and self.plateau_width != 0:
            raise ValueError("only the plateau variant takes a width")

    @classmethod
    def parse(cls, text: str) -> "FitVariant":
        """Parse "baseline", "quadratic", or "plateau:W", spelt as ``label``
        writes it: W is ASCII digits with no sign and no leading zero."""
        if text in ("baseline", "quadratic"):
            return cls(kind=text)
        width = text.removeprefix("plateau:")
        if width != text and width.isascii() and width.isdigit() and \
                str(int(width)) == width:
            return cls(kind="plateau", plateau_width=int(width))
        raise ValueError(f"unknown fit variant {text!r}")

    def label(self) -> str:
        if self.kind == "plateau":
            return f"plateau:{self.plateau_width}"
        return self.kind


BASELINE = FitVariant()
QUADRATIC = FitVariant(kind="quadratic")


def fit(supply_value: float, variant: FitVariant = BASELINE) -> FitOutcome:
    """Map a supply value to a fit outcome under the given variant."""
    s = supply_value
    if s < 0:
        return IDENTITY_LOSS
    if variant.kind == "baseline":
        return FitOutcome(1.0 / (1.0 + s))
    if variant.kind == "quadratic":
        return FitOutcome(1.0 / (1.0 + s * s))
    w = variant.plateau_width
    if s <= w:
        return FitOutcome(1.0)
    return FitOutcome(1.0 / (1.0 + (s - w)))


class ShootKind(Enum):
    UNDERSHOOT = "undershoot"
    OVERSHOOT = "overshoot"
    EXACT = "exact"


@dataclass(frozen=True)
class ShootingRecord:
    """Per-step gap between the required and provisioned yielding points.

    Undershoot: the requirement exceeded the provision (magnitude y - Y,
    always positive). Overshoot: wasted capacity (magnitude Y - y). Exact
    when the two coincide.
    """

    t: int
    kind: ShootKind
    magnitude: float


def shooting(y: float, yield_point: float, t: int = 0) -> ShootingRecord:
    """Classify one step of a yielding-point run."""
    if y > yield_point:
        return ShootingRecord(t, ShootKind.UNDERSHOOT, y - yield_point)
    if yield_point > y:
        return ShootingRecord(t, ShootKind.OVERSHOOT, yield_point - y)
    return ShootingRecord(t, ShootKind.EXACT, yield_point - y)


def cumulative_overshoot(records: Iterable[ShootingRecord], dt: float = 1.0) -> float:
    """Left-Riemann discretization of the overshoot integral.

    Accepts overshoot and exact records only; undershoot steps are
    accounted separately by callers and raise here.
    """
    total = 0.0
    for record in records:
        if record.kind is ShootKind.UNDERSHOOT:
            raise ContainsUndershoot(f"undershoot record at t={record.t}")
        total += record.magnitude
    return total * dt


@dataclass(frozen=True)
class TurbulenceTrace:
    """Piecewise-constant behavior over time.

    Each entry gives the behavior holding from its step until the next
    entry; the last entry holds from its step onward.
    """

    steps: tuple[tuple[int, BehaviorDescriptor], ...]

    def __post_init__(self) -> None:
        previous = None
        for t, _ in self.steps:
            if previous is not None and t <= previous:
                raise ValueError("trace steps must be strictly increasing")
            previous = t

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, BehaviorDescriptor]]
    ) -> "TurbulenceTrace":
        return cls(tuple(pairs))

    @property
    def start(self) -> int:
        return self.steps[0][0]

    @property
    def end(self) -> int:
        return self.steps[-1][0]

    def at(self, t: int) -> BehaviorDescriptor:
        """Behavior holding at step t (latest entry at or before t)."""
        if t < self.start:
            raise ValueError(f"t={t} precedes the trace start {self.start}")
        current = self.steps[0][1]
        for step_t, behavior in self.steps:
            if step_t > t:
                break
            current = behavior
        return current


INCOMMENSURABLE_MARKER = "incommensurable"


@dataclass(frozen=True)
class TimelinePoint:
    """Per-step supply and fit, or a marker when they are undefined."""

    t: int
    supply: int | None
    fit: FitOutcome | None

    @property
    def marker(self) -> str:
        return INCOMMENSURABLE_MARKER if self.supply is None else ""


def fit_timeline(
    system: TurbulenceTrace,
    environment: TurbulenceTrace,
    variant: FitVariant = BASELINE,
) -> list[TimelinePoint]:
    """Per-step supply and fit over the traces' common time range.

    The range starts where both traces are defined and ends at the last
    change point of either trace. Incommensurable steps carry a marker
    instead of values.
    """
    if not system.steps or not environment.steps:
        raise EmptyTraceOverlap("both traces need at least one step")
    t0 = max(system.start, environment.start)
    t1 = max(system.end, environment.end)
    if t1 < t0:
        raise EmptyTraceOverlap(f"no common range: start {t0} after end {t1}")
    points = []
    for t in range(t0, t1 + 1):
        bs = system.at(t)
        be = environment.at(t)
        try:
            s = supply(bs, be)
        except IncommensurableBehaviors:
            points.append(TimelinePoint(t, None, None))
            continue
        points.append(TimelinePoint(t, s, fit(s, variant)))
    return points
