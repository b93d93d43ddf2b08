"""Temporal extensions: pooled panel fits with bootstrap intervals, and
formation models conditioned on the previous panel.

The pooled design stacks one cross-sectional dyadic design per modeled
period (every period except the first, which only serves as history).
Uncertainty comes from resampling whole modeled periods with replacement
and refitting; percentile intervals over the replicate coefficients are the
reported confidence bounds. A node-block variant resamples sender nodes
instead, for designs where period resampling is too coarse.

Formation models ask a narrower question: among dyads with no tie at t-1,
which form one by t? Change statistics are evaluated on the union of the
two panels so that dissolving ties still shape the local configurations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    EmptyDesignError,
    InsufficientPeriodsError,
    NetworkModelError,
    NumericalError,
)
from .estimator import DyadDesign, FitResult, bayes_criterion, fit_logistic
from .graph import DirectedGraph
from .ingest import NetworkSeries
from .terms import ModelSpec, change_stat_matrices

__all__ = [
    "BootstrapResult",
    "pooled_design",
    "fit_btergm",
    "formation_design",
    "fit_formation",
    "formation_bic_all_dyads",
]

LAGGED_TIE_NAME = "lagged_tie"


@dataclass(frozen=True)
class BootstrapResult:
    """Replicate coefficients and percentile intervals for a pooled fit.

    ``drop_reasons`` counts the dropped replicates by cause:
    ``"not_converged"``, ``"dropped_term"`` (a column was all zero), or the
    class name of the error the refit raised. Its counts sum to
    ``dropped_replicates``.
    """

    term_names: tuple
    point_estimates: np.ndarray
    replicate_coefficients: np.ndarray
    standard_errors: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    significant: np.ndarray
    replications: int
    dropped_replicates: int
    drop_reasons: dict
    seed: int
    mode: str

    @property
    def n_valid(self) -> int:
        return self.replicate_coefficients.shape[0]


def _period_blocks(series: NetworkSeries, attrs, spec, include_lagged_tie):
    """One (dyads, x, y, label) block per modeled period."""
    if len(series) < 2:
        raise InsufficientPeriodsError(
            f"need at least two panels, have {len(series)}"
        )
    n = series.node_count
    off = ~np.eye(n, dtype=bool)
    ii, jj = np.nonzero(off)
    if len(ii) == 0:
        raise EmptyDesignError("panels have no dyads")
    blocks = []
    for t in range(1, len(series)):
        g = series.graphs[t]
        mats = change_stat_matrices(g, attrs, spec)
        x = mats[:, ii, jj].T.copy()
        if include_lagged_tie:
            lag = series.graphs[t - 1].adjacency[ii, jj].astype(np.float64)
            x = np.column_stack([x, lag])
        y = g.adjacency[ii, jj].astype(np.int8)
        blocks.append((np.column_stack([ii, jj]), x, y, series.labels[t]))
    return blocks


def _stack_blocks(blocks, names):
    dyads = np.concatenate([b[0] for b in blocks])
    x = np.concatenate([b[1] for b in blocks])
    y = np.concatenate([b[2] for b in blocks])
    labels = np.concatenate([np.full(len(b[2]), b[3], dtype=object) for b in blocks])
    return DyadDesign(
        dyads=dyads, response=y, matrix=x, term_names=names, periods=labels
    )


def pooled_design(
    series: NetworkSeries,
    attrs,
    spec: ModelSpec,
    include_lagged_tie: bool = False,
) -> DyadDesign:
    """Stack the cross-sectional designs of every panel after the first.

    With ``include_lagged_tie`` a final column indicates whether the dyad
    was tied in the previous panel.
    """
    names = spec.names + ((LAGGED_TIE_NAME,) if include_lagged_tie else ())
    blocks = _period_blocks(series, attrs, spec, include_lagged_tie)
    return _stack_blocks(blocks, names)


def fit_btergm(
    series: NetworkSeries,
    attrs,
    spec: ModelSpec,
    replications: int = 100,
    seed: int = 0,
    mode: str = "temporal",
    include_lagged_tie: bool = False,
    **options,
) -> tuple:
    """Pooled panel fit plus a bootstrap over its replication units.

    ``mode`` picks the resampling unit: ``"temporal"`` redraws modeled
    periods with replacement, ``"node"`` redraws sender nodes. Replicates
    that fail to converge (or lose a column entirely) are dropped and
    counted by reason in ``BootstrapResult.drop_reasons``. Intervals are percentile 2.5/97.5 over replicate coefficients.

    Returns
    -------
    (FitResult, BootstrapResult)
    """
    if replications < 2:
        raise ConfigError(f"replications must be >= 2, got {replications}")
    if mode not in ("temporal", "node"):
        raise ConfigError(f"mode must be 'temporal' or 'node', got {mode!r}")
    names = spec.names + ((LAGGED_TIE_NAME,) if include_lagged_tie else ())
    blocks = _period_blocks(series, attrs, spec, include_lagged_tie)
    pooled = _stack_blocks(blocks, names)
    point = fit_logistic(pooled, **options)

    if mode == "node":
        senders = pooled.dyads[:, 0]
        rows_by_sender = [
            np.nonzero(senders == s)[0] for s in range(series.node_count)
        ]

    reps = []
    drop_reasons = {}
    m = len(blocks)
    for rep in range(replications):
        rng = np.random.default_rng([seed, rep])
        if mode == "temporal":
            pick = rng.integers(0, m, size=m)
            design = _stack_blocks([blocks[k] for k in pick], names)
        else:
            pick = rng.integers(0, series.node_count, size=series.node_count)
            rows = np.concatenate([rows_by_sender[s] for s in pick])
            design = DyadDesign(
                dyads=pooled.dyads[rows],
                response=pooled.response[rows],
                matrix=pooled.matrix[rows],
                term_names=names,
                periods=None if pooled.periods is None else pooled.periods[rows],
            )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = fit_logistic(design, **options)
        except (NetworkModelError, np.linalg.LinAlgError) as exc:
            reason = type(exc).__name__
        else:
            if not fit.converged:
                reason = "not_converged"
            elif fit.dropped_terms:
                reason = "dropped_term"
            else:
                reps.append(fit.coefficients)
                continue
        drop_reasons[reason] = drop_reasons.get(reason, 0) + 1
    if not reps:
        raise NumericalError("no bootstrap replicate converged")
    rep_matrix = np.array(reps)
    lo, hi = np.percentile(rep_matrix, [2.5, 97.5], axis=0)
    boot = BootstrapResult(
        term_names=names,
        point_estimates=point.coefficients,
        replicate_coefficients=rep_matrix,
        standard_errors=rep_matrix.std(axis=0, ddof=1),
        ci_lower=lo,
        ci_upper=hi,
        significant=(lo > 0) | (hi < 0),
        replications=replications,
        dropped_replicates=sum(drop_reasons.values()),
        drop_reasons=drop_reasons,
        seed=seed,
        mode=mode,
    )
    return point, boot


def formation_design(
    prev: DirectedGraph,
    curr: DirectedGraph,
    attrs,
    spec: ModelSpec,
) -> DyadDesign:
    """Design over dyads untied at ``prev``: did they form a tie by ``curr``?

    Change statistics come from the union of the two panels, so ties present
    in either snapshot contribute to the local configuration counts.
    """
    if prev.node_count != curr.node_count:
        raise DimensionError(
            f"panels differ in size: {prev.node_count} vs {curr.node_count}"
        )
    n = prev.node_count
    union = DirectedGraph(n, prev.edges | curr.edges)
    free = ~prev.adjacency & ~np.eye(n, dtype=bool)
    ii, jj = np.nonzero(free)
    if len(ii) == 0:
        raise EmptyDesignError("no free dyads: the previous panel is complete")
    mats = change_stat_matrices(union, attrs, spec)
    x = mats[:, ii, jj].T.copy()
    y = curr.adjacency[ii, jj].astype(np.int8)
    return DyadDesign(
        dyads=np.column_stack([ii, jj]).astype(np.int64),
        response=y,
        matrix=x,
        term_names=spec.names,
    )


def fit_formation(
    prev: DirectedGraph,
    curr: DirectedGraph,
    attrs,
    spec: ModelSpec,
    **options,
) -> FitResult:
    """Fit the tie-formation model for one panel transition."""
    return fit_logistic(formation_design(prev, curr, attrs, spec), **options)


def formation_bic_all_dyads(fit: FitResult, node_count: int) -> float:
    """Alternative BIC using all n*(n-1) dyads as the row count.

    The fit itself uses only free dyads; some reporting conventions penalize
    with the full dyad count instead, and this helper reproduces that
    convention without touching the fit.
    """
    return bayes_criterion(
        fit.residual_deviance, fit.n_params, node_count * (node_count - 1)
    )
