"""Exception types shared across the package, and ``check_probability``,
the one [0, 1] check of a parameter, which both studies import from here
without loading each other. A bad parameter raises ``ValueError``."""


def check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


class ResilienceError(Exception):
    """Base class for package-specific errors."""


class CardinalityOverflow(ResilienceError):
    """Figure-set cardinality does not fit the 29-bit encoding field."""


class IncommensurableBehaviors(ResilienceError):
    """Neither behavior precedes the other, so supply is undefined.

    Callers should treat this as the cue to consider a social behavior
    (augmenting perception through another system) rather than a number.
    """


class ContainsUndershoot(ResilienceError):
    """Cumulative overshoot was asked to integrate an undershoot record."""


class EmptyTraceOverlap(ResilienceError):
    """The system and environment traces share no time range."""


class StoreCorrupt(ResilienceError):
    """The knowledge store file exists but cannot be parsed."""


class TraceMismatch(ResilienceError):
    """Protocol runs being compared were not driven by the same trace."""


class EmptyPool(ResilienceError):
    """A canary-pool estimate needs at least one canary."""
