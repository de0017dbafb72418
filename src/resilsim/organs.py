"""MAPE-K resilience organs and static classification.

A system's intrinsic resilience is summarized by the behaviors of its five
organs: monitor (perceive change), analyze (ascertain consequences), plan
(conceive a defense), execute (enact it), and knowledge (treasure up
experience). Organs may be absent. This module compares organ tuples
organ-wise and classifies them into elastic / entelechy /
antifragile-candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .behavior import BehaviorClass, BehaviorDescriptor
from .fitness import Direction, resolve_direction

# Figure names that mark an analyze organ as aware of the risk of
# unresilience. The simulators expose their risk measures under these names.
RESERVED_FIT_FIGURES = frozenset({"supply", "fit", "risk"})


class Organ(Enum):
    M = "M"
    A = "A"
    P = "P"
    E = "E"
    K = "K"


class FeedbackKind(Enum):
    """How a feedback loop turns back on the system itself.

    Exogenous loops only steer action toward the goal; parametric and
    structural loops adapt knobs or configuration without touching what
    the system is. Genotypical changes are persisted and permanently
    modify the nature of the system.
    """

    EXOGENOUS = "exogenous"
    PARAMETRIC = "parametric"
    STRUCTURAL = "structural"
    GENOTYPICAL = "genotypical"

    @property
    def mutates_identity(self) -> bool:
        return self is FeedbackKind.GENOTYPICAL


class Verdict(Enum):
    INFERIOR = "inferior"
    SUPERIOR = "superior"
    EQUAL = "equal"
    INCOMMENSURABLE = "incommensurable"
    BOTH_ABSENT = "both_absent"
    LEFT_ABSENT = "left_absent"
    RIGHT_ABSENT = "right_absent"


class ResilienceClass(Enum):
    ELASTIC = "elastic"
    ENTELECHY = "entelechy"
    ANTIFRAGILE_CANDIDATE = "antifragile_candidate"
    UNCLASSIFIED = "unclassified"


_ORGAN_FIELDS = {
    Organ.M: "monitor",
    Organ.A: "analyze",
    Organ.P: "plan",
    Organ.E: "execute",
    Organ.K: "knowledge",
}


@dataclass(frozen=True)
class CyberneticClass:
    """The behaviors of a system's five resilience organs.

    Any organ may be absent (None). ``k_stateful`` flags a knowledge organ
    that persists lessons learned rather than holding transient state.
    Any organ may have any class: a randomly behaving monitor organ makes
    little sense, as the paper remarks, but it is a valid tuple.
    """

    monitor: BehaviorDescriptor | None = None
    analyze: BehaviorDescriptor | None = None
    plan: BehaviorDescriptor | None = None
    execute: BehaviorDescriptor | None = None
    knowledge: BehaviorDescriptor | None = None
    k_stateful: bool = False
    config_keys = {name: organ.value for organ, name in _ORGAN_FIELDS.items()}

    def organ(self, organ: Organ) -> BehaviorDescriptor | None:
        return getattr(self, _ORGAN_FIELDS[organ])


@dataclass(frozen=True)
class OrganComparison:
    """Organ-wise verdicts from comparing two cybernetic classes."""

    monitor: Verdict
    analyze: Verdict
    plan: Verdict
    execute: Verdict
    knowledge: Verdict

    def verdict(self, organ: Organ) -> Verdict:
        return getattr(self, _ORGAN_FIELDS[organ])

    def to_dict(self) -> dict:
        return {organ.value: self.verdict(organ).value for organ in Organ}


def _compare_organ(
    left: BehaviorDescriptor | None, right: BehaviorDescriptor | None
) -> Verdict:
    # An absent organ sits below any present one.
    if left is None and right is None:
        return Verdict.BOTH_ABSENT
    if left is None:
        return Verdict.LEFT_ABSENT
    if right is None:
        return Verdict.RIGHT_ABSENT
    direction = resolve_direction(left, right)
    if direction is Direction.EQUAL:
        return Verdict.EQUAL
    if direction is Direction.ENVIRONMENT_DOMINATES:
        return Verdict.INFERIOR
    if direction is Direction.SYSTEM_DOMINATES:
        return Verdict.SUPERIOR
    return Verdict.INCOMMENSURABLE


def compare_classes(c1: CyberneticClass, c2: CyberneticClass) -> OrganComparison:
    """Organ-wise comparison; Inferior means c1's organ sits below c2's."""
    return OrganComparison(**{
        name: _compare_organ(c1.organ(organ), c2.organ(organ))
        for organ, name in _ORGAN_FIELDS.items()})


_TELEOLOGICAL = (BehaviorClass.REACTIVE, BehaviorClass.PROACTIVE)


def _fit_aware(descriptor: BehaviorDescriptor | None) -> bool:
    if descriptor is None:
        return False
    if descriptor.klass not in (BehaviorClass.PROACTIVE, BehaviorClass.ANTIFRAGILE):
        return False
    if not descriptor.figures.is_named:
        return False
    return bool(descriptor.figures.names & RESERVED_FIT_FIGURES)


def classify(c: CyberneticClass) -> ResilienceClass:
    """Static classification of an organ tuple.

    These are the structural, design-time conditions only. Whether a
    candidate actually behaves antifragilely (monotone fit improvement,
    experiential learning) is a runtime question answered by the
    simulators, not here.
    """
    present = [d for d in map(c.organ, Organ) if d is not None]
    if not present:
        return ResilienceClass.UNCLASSIFIED
    if _fit_aware(c.analyze) and c.knowledge is not None and c.k_stateful:
        return ResilienceClass.ANTIFRAGILE_CANDIDATE
    adaptive = any(
        organ is not None and organ.klass in _TELEOLOGICAL
        for organ in (c.analyze, c.plan)
    )
    if adaptive:
        return ResilienceClass.ENTELECHY
    if all(d.klass is BehaviorClass.PURPOSEFUL for d in present):
        return ResilienceClass.ELASTIC
    return ResilienceClass.UNCLASSIFIED
