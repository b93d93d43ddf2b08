"""Run configuration: JSON config files merged with command-line flags.

Precedence is defaults < config file < explicit flags. The config file is a
flat JSON object whose keys match :class:`RunConfig` field names; unknown
keys raise so typos surface instead of silently doing nothing. Every value,
from a file, a flag or the Python API, is checked by ``RunConfig`` itself.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, _integer, _one_of
from .export import GRAPH_FORMATS
from .graph import COMPONENT_MODES
from .ingest import DEFAULT_HORIZON, QUARTER_BREAKPOINTS
from .report import TABLE_FORMATS
from .temporal import BOOTSTRAP_MODES

__all__ = [
    "RunConfig",
    "parse_subsample",
    "CROSS_SECTIONAL_TERMS",
    "TEMPORAL_TERMS",
]

# Default term battery for cross-sectional fits: structure, degree effects,
# uniform homophily on five attributes, and differential homophily where
# level-specific effects are of interest.
CROSS_SECTIONAL_TERMS = (
    "edges",
    "mutual",
    "gwesp(0.5)",
    "gwdsp(0.5)",
    "odegpop",
    "nodematch(role)",
    "nodematch(group)",
    "nodematch(grade)",
    "nodematch(gender)",
    "nodematch(country)",
    "nodematch(region, International)",
    "nodematch(region, Midwest)",
    "nodematch(region, Northeast)",
    "nodematch(region, South)",
    "nodematch(region, West)",
    "nodematch(experience, <=10)",
    "nodematch(experience, 11-20)",
    "nodematch(experience, 20+)",
    "nodematch(expert, Yes)",
    "nodematch(expert, No)",
    "nodematch(willing, Yes)",
    "nodematch(willing, No)",
)

# Temporal models add isolation propensity after the shared-partner terms.
TEMPORAL_TERMS = CROSS_SECTIONAL_TERMS[:4] + ("isolates",) + CROSS_SECTIONAL_TERMS[4:]


# The paper's active subsample: participants with three or more interactions.
_ACTIVE_K = 3


def parse_subsample(text: str) -> tuple:
    """Parse the subsample grammar: ``lc``, ``active[:K]``, or ``none``.

    A bare ``active`` is the paper's ``active:3``.
    """
    s = text.strip().lower()
    if s in ("lc", "none"):
        return (s, None)
    if s == "active":
        return (s, _ACTIVE_K)
    if s.startswith("active:"):
        raw = s.split(":", 1)[1]
        try:
            k = int(raw)
        except ValueError:
            raise ConfigError(f"bad activity threshold {raw!r}") from None
        return ("active", _integer("activity threshold", k, 0))
    raise ConfigError(
        f"subsample must be 'lc', 'active:K', or 'none', got {text!r}"
    )


# What a field may hold, by its annotation: the types that fill it, where a
# bool fills only a bool field, so that true is no integer; for a list, the
# annotation of its entries and, where it is fixed, their count; and the name
# for the error message. Lists may also be tuples or numpy arrays, and
# numbers numpy's. A field annotated ``X | None`` also takes None.
_LISTS = (list, tuple, np.ndarray)
_KINDS = {
    "str": (str, None, None, "a string"),
    "int": (numbers.Integral, None, None, "an integer"),
    "float": (numbers.Real, None, None, "a number"),
    "bool": (bool, None, None, "true or false"),
    "tuple[str, ...]": (_LISTS, "str", None, "a list"),
    "tuple[float, ...]": (_LISTS, "float", None, "a list"),
    "tuple[int, int]": (_LISTS, "int", 2, "a pair of integers"),
    "tuple[tuple[int, int], ...]": (_LISTS, "tuple[int, int]", None, "a list"),
}

# each choice field and the module tuple that owns its values, which the
# CLI's choices read too
_CHOICES = {
    "format": TABLE_FORMATS,
    "component_mode": COMPONENT_MODES,
    "bootstrap_mode": BOOTSTRAP_MODES,
    "graph_format": GRAPH_FORMATS,
}


def _check_kind(where: str, kind: str, value):
    """Raise a ConfigError naming ``where`` unless ``value`` can fill a field
    annotated ``kind``; a list's entries are checked in turn, each named by
    its position."""
    types, entry, count, name = _KINDS[kind]
    if (
        not isinstance(value, types)
        or (isinstance(value, bool) and kind != "bool")
        or (count is not None and len(value) != count)
    ):
        raise ConfigError(f"{where} must be {name}, got {value!r}")
    for k, v in enumerate(value if entry else ()):
        _check_kind(f"{where}[{k}]", entry, v)


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs; see module docs for precedence rules."""

    edges: str | None = None
    attrs: str | None = None
    horizon: int = DEFAULT_HORIZON
    breakpoints: tuple[tuple[int, int], ...] = QUARTER_BREAKPOINTS
    subsample: str = "lc"
    component_mode: str = "weak"
    exclude_facilitators: bool = True
    terms: tuple[str, ...] | None = None
    seed: int = 0
    replications: int = 100
    tolerance: float = 1e-8
    max_iterations: int = 50
    bootstrap_mode: str = "temporal"
    lagged_tie: bool = False
    out_dir: str = "out"
    format: str = "csv"
    # simulate command
    nodes: int = 30
    theta: tuple[float, ...] | None = None
    burn_in: int | None = None
    thin: int | None = None
    samples: int = 100
    # export command
    graph_format: str = "graphml"
    output: str | None = None

    def __post_init__(self):
        for name, choices in _CHOICES.items():
            _one_of(name, getattr(self, name), choices)
        for f in fields(self):
            kind, _, optional = f.type.partition(" | ")
            value = getattr(self, f.name)
            if not (value is None and optional):
                _check_kind(f"config key {f.name!r}", kind, value)
        _integer("horizon", self.horizon, 1)
        parse_subsample(self.subsample)
        bps = tuple(tuple(bp) for bp in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if self.terms is not None:
            object.__setattr__(self, "terms", tuple(self.terms))
        if self.theta is not None:
            object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {unknown}")
        try:
            return cls(**raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def with_overrides(self, **overrides) -> "RunConfig":
        """New config with the non-None overrides applied (flags win)."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **updates) if updates else self
