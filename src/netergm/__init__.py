"""netergm: exponential-family models for directed interaction networks.

The package covers the full pipeline: ingesting event logs and participant
attributes, assembling and slicing directed networks, descriptive whole-
network statistics, maximum pseudolikelihood model fits, pooled temporal
models with bootstrap intervals, formation models, and Metropolis sampling
from a fitted model.
"""

__version__ = "0.1.0"

from .config import CROSS_SECTIONAL_TERMS, TEMPORAL_TERMS, RunConfig
from .descriptives import (
    DescriptiveRow,
    centralization,
    density,
    describe,
    edgewise_reciprocity,
    transitivity,
)
from .errors import (
    ConfigError,
    DimensionError,
    EmptyDesignError,
    GraphIndexError,
    InsufficientPeriodsError,
    InvalidDyadError,
    NetworkModelError,
    NumericalError,
    RankDeficiencyError,
    UndefinedMetricError,
    UnknownAttributeError,
    UnknownNodeError,
    ValidationError,
)
from .estimator import (
    DyadDesign,
    FitResult,
    build_design,
    fit_logistic,
    fit_mple,
)
from .export import export_graph, read_json_edgelist
from .graph import (
    DirectedGraph,
    NodeSubset,
    activity_subset,
    build_graph,
    induced_subgraph,
    largest_component,
)
from .ingest import (
    InteractionEvent,
    NetworkSeries,
    NodeTable,
    assemble_network,
    load_attributes,
    load_events,
    slice_periods,
)
from .sampler import SamplerControl, sample_ergm
from .temporal import (
    BootstrapResult,
    fit_btergm,
    fit_formation,
    formation_design,
    pooled_design,
)
from .terms import (
    ModelSpec,
    TermSpec,
    global_stats,
    parse_term,
    parse_terms,
)

__all__ = [
    "__version__",
    "BootstrapResult",
    "ConfigError",
    "CROSS_SECTIONAL_TERMS",
    "DescriptiveRow",
    "DimensionError",
    "DirectedGraph",
    "DyadDesign",
    "EmptyDesignError",
    "FitResult",
    "GraphIndexError",
    "InsufficientPeriodsError",
    "InteractionEvent",
    "InvalidDyadError",
    "ModelSpec",
    "NetworkModelError",
    "NetworkSeries",
    "NodeSubset",
    "NodeTable",
    "NumericalError",
    "RankDeficiencyError",
    "RunConfig",
    "SamplerControl",
    "TEMPORAL_TERMS",
    "TermSpec",
    "UndefinedMetricError",
    "UnknownAttributeError",
    "UnknownNodeError",
    "ValidationError",
    "activity_subset",
    "assemble_network",
    "build_design",
    "build_graph",
    "centralization",
    "density",
    "describe",
    "edgewise_reciprocity",
    "export_graph",
    "fit_btergm",
    "fit_formation",
    "fit_logistic",
    "fit_mple",
    "formation_design",
    "global_stats",
    "induced_subgraph",
    "largest_component",
    "load_attributes",
    "load_events",
    "parse_term",
    "parse_terms",
    "pooled_design",
    "read_json_edgelist",
    "sample_ergm",
    "slice_periods",
    "transitivity",
]
