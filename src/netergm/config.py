"""Run configuration: JSON config files merged with command-line flags.

Precedence is defaults < config file < explicit flags. The config file is a
flat JSON object whose keys match :class:`RunConfig` field names; unknown
keys raise so typos surface instead of silently doing nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .ingest import DEFAULT_HORIZON, QUARTER_BREAKPOINTS

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


def parse_subsample(text: str) -> tuple:
    """Parse the subsample grammar: ``lc``, ``active[:K]``, or ``none``."""
    s = text.strip().lower()
    if s == "lc":
        return ("lc", None)
    if s == "none":
        return ("none", None)
    if s == "active":
        # Threshold comes from RunConfig.activity_k when not spelled inline.
        return ("active", None)
    if s.startswith("active:"):
        raw = s.split(":", 1)[1]
        try:
            k = int(raw)
        except ValueError:
            raise ConfigError(f"bad activity threshold {raw!r}") from None
        if k < 0:
            raise ConfigError(f"activity threshold must be >= 0, got {k}")
        return ("active", k)
    raise ConfigError(
        f"subsample must be 'lc', 'active:K', or 'none', got {text!r}"
    )


# What a config file may give a field, by the field's annotation: the exact
# JSON types, so that true is no integer, and their name for the error
# message. A field annotated ``X | None`` also takes null.
_JSON_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "tuple": ((list,), "a list"),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs; see module docs for precedence rules."""

    edges: str | None = None
    attrs: str | None = None
    horizon: int = DEFAULT_HORIZON
    breakpoints: tuple = QUARTER_BREAKPOINTS
    subsample: str = "lc"
    activity_k: int = 3
    component_mode: str = "weak"
    exclude_facilitators: bool = True
    terms: tuple | None = None
    seed: int = 0
    replications: int = 100
    tolerance: float = 1e-8
    max_iterations: int = 50
    bootstrap_mode: str = "temporal"
    lagged_tie: bool = False
    out_dir: str = "out"
    format: str = "text"
    # simulate command
    nodes: int = 30
    theta: tuple | None = None
    burn_in: int | None = None
    thin: int | None = None
    samples: int = 100
    # export command
    graph_format: str = "graphml"
    output: str | None = None

    def __post_init__(self):
        if self.format not in ("text", "csv", "json"):
            raise ConfigError(f"format must be text, csv, or json: {self.format!r}")
        if self.component_mode not in ("weak", "strong"):
            raise ConfigError(
                f"component_mode must be weak or strong: {self.component_mode!r}"
            )
        if self.bootstrap_mode not in ("temporal", "node"):
            raise ConfigError(
                f"bootstrap_mode must be temporal or node: {self.bootstrap_mode!r}"
            )
        if self.graph_format not in ("graphml", "dot", "json-edgelist"):
            raise ConfigError(
                "graph_format must be graphml, dot, or json-edgelist: "
                f"{self.graph_format!r}"
            )
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        parse_subsample(self.subsample)
        if self.activity_k < 0:
            raise ConfigError(
                f"activity_k must be >= 0, got {self.activity_k}"
            )
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
        annotations = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(raw) - set(annotations))
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {unknown}")
        for key, value in raw.items():
            kind, _, optional = annotations[key].partition(" | ")
            types, name = _JSON_TYPES[kind]
            if type(value) not in types and not (value is None and optional):
                raise ConfigError(
                    f"{path}: config key {key!r} must be {name}, got {value!r}"
                )
        return cls(**raw)

    def with_overrides(self, **overrides) -> "RunConfig":
        """New config with the non-None overrides applied (flags win)."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **updates) if updates else self
