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

CARDINALITY_BITS = 29
MAX_CARDINALITY = 1 << CARDINALITY_BITS  # exclusive upper bound


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
    are (the "order" of the behavior) when the names are not specified:
    give exactly one of ``names`` and ``count``. A named spec's count is
    its number of distinct names. Either way the count fits the 29 bits
    that :func:`encode` gives it.
    """

    names: frozenset[str] | None = None
    count: int | None = None
    config_keys = {"names": "named", "count": "cardinality"}

    def __post_init__(self) -> None:
        if (self.names is None) == (self.count is None):
            raise ValueError("exactly one of named and cardinality must be given")
        if self.names is not None:
            names = frozenset(self.names)
            if not all(isinstance(name, str) and name for name in names):
                raise ValueError("figure names must be non-empty strings")
            object.__setattr__(self, "names", names)
            object.__setattr__(self, "count", len(names))
        if not 0 <= self.count < MAX_CARDINALITY:
            raise ValueError(
                f"cardinality must be in [0, {MAX_CARDINALITY}), got {self.count}")

    @property
    def is_named(self) -> bool:
        return self.names is not None


@dataclass(frozen=True)
class BehaviorDescriptor:
    """A behavior class plus its context figures and social flag."""

    klass: BehaviorClass
    figures: FigureSpec
    social: bool = False
    config_keys = {"klass": "class"}


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
    return f.count < g.count


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
    return (b.klass.rank << CARDINALITY_BITS) | b.figures.count


def distance(b1: BehaviorDescriptor, b2: BehaviorDescriptor) -> int:
    """Absolute difference of the encoded words.

    For descriptors of the same class this reduces to the absolute
    difference of the figure cardinalities.
    """
    return abs(encode(b1) - encode(b2))
