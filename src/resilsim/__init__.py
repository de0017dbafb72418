"""Behavioral-resilience modeling and deterministic simulation.

The package provides a small calculus over behavior descriptors (classes,
context figures, a social flag, a partial order, and a behavioral
distance), supply and system-environment fit built on top of it, MAPE-K
organ tuples with static classification, and two seeded simulators: an
adaptive-redundancy protocol study over an unreliable channel, and the
coal-mine sentinel scenario. Importing the package loads none of its
modules; import the one you use, as ``resilsim.cli`` does per command.
"""

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "behavior",
    "channel",
    "cli",
    "errors",
    "fitness",
    "organs",
    "sentinel",
]
