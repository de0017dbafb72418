"""Behavior descriptors and the calculus that compares them.

A behavior is described by three things: its class (how sophisticated the
behavior is, from random up to evolutive), the context figures it manifests
through (named, or by bare cardinality when the names are unknown), and a
social flag marking behaviors exercised through interaction with other
systems.

This module implements the partial order between descriptors, the derived
commensurability test, and a binary-word encoding whose absolute difference
serves as a behavioral distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import CardinalityOverflow

CARDINALITY_BITS = 29
MAX_CARDINALITY = 1 << CARDINALITY_BITS  # exclusive upper bound


def check_keys(data: dict, allowed: tuple[str, ...], what: str) -> None:
    """A ``ValueError`` naming the first key of ``data`` outside ``allowed``:
    a misspelt key must not read as an absent one."""
    for key in data:
        if key not in allowed:
            raise ValueError(
                f"{what}: unknown key {key!r}, expected one of {', '.join(allowed)}")


class BehaviorClass(Enum):
    """The five behavior classes, ordered from least to most complex."""

    RANDOM = "random"
    PURPOSEFUL = "purposeful"
    REACTIVE = "reactive"
    PROACTIVE = "proactive"
    ANTIFRAGILE = "antifragile"

    @property
    def rank(self) -> int:
        """Integer identifier in 1..5; higher means more complex behavior."""
        return _RANKS[self]


_RANKS = {c: i for i, c in enumerate(BehaviorClass, start=1)}


@dataclass(frozen=True)
class FigureSpec:
    """Context figures a behavior manifests through.

    Either a concrete set of figure names, or only how many figures there
    are (the "order" of the behavior) when the names are not specified.
    Use :meth:`named` or :meth:`of_order` instead of the raw constructor.
    """

    names: frozenset[str] | None = None
    count: int = 0

    def __post_init__(self) -> None:
        if self.names is not None:
            names = frozenset(self.names)
            for name in names:
                if not isinstance(name, str) or not name:
                    raise ValueError("figure names must be non-empty strings")
            object.__setattr__(self, "names", names)
            object.__setattr__(self, "count", len(names))
        else:
            if not isinstance(self.count, int) or self.count < 0:
                raise ValueError("cardinality must be a non-negative integer")

    @classmethod
    def named(cls, figures: Iterable[str]) -> "FigureSpec":
        return cls(names=frozenset(figures))

    @classmethod
    def of_order(cls, n: int) -> "FigureSpec":
        return cls(names=None, count=n)

    @property
    def is_named(self) -> bool:
        return self.names is not None

    @property
    def cardinality(self) -> int:
        return self.count

    @classmethod
    def from_dict(cls, data: dict) -> "FigureSpec":
        if not isinstance(data, dict):
            raise ValueError("figures must be an object")
        check_keys(data, ("named", "cardinality"), "figures")
        if "named" in data and "cardinality" in data:
            raise ValueError("figures must have exactly one of 'named' or 'cardinality'")
        if "named" in data:
            names = data["named"]
            if not isinstance(names, list) \
                    or not all(isinstance(name, str) for name in names):
                raise ValueError(
                    f"figures.named must be a list of strings, got {names!r}"
                )
            return cls.named(names)
        if "cardinality" in data:
            count = data["cardinality"]
            if isinstance(count, bool) or not isinstance(count, int) \
                    or not 0 <= count < MAX_CARDINALITY:
                raise ValueError(f"figures.cardinality must be an integer in "
                                 f"[0, {MAX_CARDINALITY}), got {count!r}")
            return cls.of_order(count)
        raise ValueError("figures must have one of 'named' or 'cardinality'")


@dataclass(frozen=True)
class BehaviorDescriptor:
    """A behavior class plus its context figures and social flag."""

    klass: BehaviorClass
    figures: FigureSpec
    social: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "BehaviorDescriptor":
        if not isinstance(data, dict):
            raise ValueError("descriptor must be an object")
        check_keys(data, ("class", "figures", "social"), "descriptor")
        try:
            klass = BehaviorClass(data["class"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad behavior class: {data.get('class')!r}") from exc
        figures = FigureSpec.from_dict(data.get("figures", {}))
        social = data.get("social", False)
        if not isinstance(social, bool):
            raise ValueError("social must be a boolean")
        return cls(klass, figures, social)


def precedes_by_inclusion(b1: BehaviorDescriptor, b2: BehaviorDescriptor) -> bool:
    """Figure-coverage conditions of the partial order.

    b1 sits strictly below b2 when its class rank is at most b2's and its
    figure coverage is strictly smaller: a strict subset when both sides
    name their figures, a strict cardinality comparison otherwise.
    """
    if b1.klass.rank > b2.klass.rank:
        return False
    f, g = b1.figures, b2.figures
    if f.is_named and g.is_named:
        return f.names < g.names
    return f.cardinality < g.cardinality


def precedes_by_social(b1: BehaviorDescriptor, b2: BehaviorDescriptor) -> bool:
    """Social condition of the partial order.

    Within the same class, a non-social behavior sits strictly below a
    social one.
    """
    return b1.klass is b2.klass and not b1.social and b2.social


def precedes(b1: BehaviorDescriptor, b2: BehaviorDescriptor) -> bool:
    """Raw partial order between behavior descriptors.

    Implemented exactly as defined; the two condition families can conflict
    on crafted pairs (inclusion one way, social the other). Use
    ``fitness.resolve_direction`` when a single orientation is needed.
    """
    return precedes_by_inclusion(b1, b2) or precedes_by_social(b1, b2)


def commensurable(b1: BehaviorDescriptor, b2: BehaviorDescriptor) -> bool:
    """True when the descriptors are equal or ordered either way."""
    return b1 == b2 or precedes(b1, b2) or precedes(b2, b1)


def encode(b: BehaviorDescriptor) -> int:
    """Pack a descriptor into a 32-bit word.

    Bits 31..29 hold the class rank, bits 28..0 the figure cardinality.
    The social flag is deliberately not encoded.
    """
    n = b.figures.cardinality
    if n >= MAX_CARDINALITY:
        raise CardinalityOverflow(
            f"cardinality {n} does not fit in {CARDINALITY_BITS} bits"
        )
    return (b.klass.rank << CARDINALITY_BITS) | n


def distance(b1: BehaviorDescriptor, b2: BehaviorDescriptor) -> int:
    """Absolute difference of the encoded words.

    For descriptors of the same class this reduces to the absolute
    difference of the figure cardinalities.
    """
    return abs(encode(b1) - encode(b2))
