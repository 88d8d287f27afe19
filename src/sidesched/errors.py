"""Exception types and the checks that raise them, shared across the package."""

import math

import numpy as np


class CapacityError(ValueError):
    """Instance size exceeds a configured cap."""


class InfeasibleError(ValueError):
    """More vehicles than subframes: no orthogonal assignment exists."""


class ShapeError(ValueError):
    """Matrix dimensions disagree with the grid or cluster."""


class ParseError(ValueError):
    """A CSV record failed to parse; carries the 1-based row."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ConstraintViolation(ValueError):
    """An assignment breaks vehicle uniqueness or subframe orthogonality."""


class ConfigError(ValueError):
    """A value failed a config rule; lists the offending keys.

    A dataclass names its own fields; ``ExperimentConfig`` and the config
    reader name dotted config-file keys, with ``[i]`` for a list entry.
    """

    def __init__(self, keys):
        self.keys = list(keys)
        super().__init__("invalid config: " + "; ".join(self.keys))


def require(**conditions):
    """Raise ConfigError naming, in order, every field whose condition is false."""
    bad = [name for name, ok in conditions.items() if not ok]
    if bad:
        raise ConfigError(bad)


def finite_sum(values, name):
    """numpy's sum of ``values`` as a float; a ValueError names ``name``
    when that sum is not finite, as when it overflows."""
    with np.errstate(over="ignore"):
        total = float(values.sum())
    if not math.isfinite(total):
        raise ValueError(f"{name} overflows")
    return total
