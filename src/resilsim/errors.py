"""Exception types shared across the package."""


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


class InvalidBounds(ResilienceError):
    """Channel model parameters are out of range."""


class StoreCorrupt(ResilienceError):
    """The knowledge store file exists but cannot be parsed."""


class TraceMismatch(ResilienceError):
    """Protocol runs being compared were not driven by the same trace."""


class EmptyPool(ResilienceError):
    """A canary-pool estimate needs at least one canary."""
