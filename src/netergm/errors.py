"""Exception hierarchy shared across the toolkit, and the argument checks.

Everything raised deliberately by this package derives from
:class:`NetworkModelError`, so callers (and the CLI) can catch one type.
Every module checks integer arguments with ``_integer`` and closed option
sets with ``_one_of``, each set a tuple owned by the module that acts on it.
"""

import numbers


class NetworkModelError(Exception):
    """Base class for all errors raised by this package."""


class GraphIndexError(NetworkModelError):
    """A node index lies outside ``range(node_count)``."""


class DimensionError(NetworkModelError):
    """Two objects that must share a shape or node set do not."""


class InvalidDyadError(NetworkModelError):
    """A dyad (i, j) with i == j, or otherwise outside the dyad space."""


class ValidationError(NetworkModelError):
    """Malformed input data: bad rows, unknown levels, duplicate ids."""


class UnknownNodeError(NetworkModelError):
    """An event references a participant id absent from the node table."""


class UnknownAttributeError(NetworkModelError):
    """A model term references an attribute the node table lacks."""


class ConfigError(NetworkModelError):
    """Unusable run configuration or term grammar."""


class UndefinedMetricError(NetworkModelError):
    """A descriptive statistic has no value on this graph (0/0 case)."""


class NumericalError(NetworkModelError):
    """Iteration failed to converge or produced non-finite values."""


class RankDeficiencyError(NetworkModelError):
    """The design matrix has collinear columns; names are in the message."""


class EmptyDesignError(NetworkModelError):
    """A design with zero rows was requested."""


class InsufficientPeriodsError(NetworkModelError):
    """Temporal operations need at least two network panels."""


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int >= ``least``; numpy integers pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _one_of(name: str, value, choices: tuple):
    """``value`` if it is one of ``choices``; else a ConfigError naming it."""
    if value not in choices:
        raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value
