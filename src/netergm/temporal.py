"""Temporal extensions: pooled panel fits with bootstrap intervals, and
formation models conditioned on the previous panel.

The pooled design stacks one cross-sectional dyadic design per modeled
period (every period except the first, which only serves as history).
Uncertainty comes from resampling whole modeled periods with replacement
and refitting; percentile intervals over the replicate coefficients are the
reported confidence bounds. A node-block variant resamples sender nodes
instead, for designs where period resampling is too coarse. The pooled
design is collapsed once to its distinct rows, each weighted by how many
pooled rows it stands for; a replicate reweights them by their rows' unit
draw counts and starts Newton at the point estimate.

Formation models ask a narrower question: among dyads with no tie at t-1,
which form one by t? Change statistics are evaluated on the union of the
two panels so that dissolving ties still shape the local configurations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    EmptyDesignError,
    InsufficientPeriodsError,
    NetworkModelError,
    NumericalError,
)
from .estimator import (
    DyadDesign,
    FitResult,
    _design,
    _unique_rows,
    bayes_criterion,
    fit_logistic,
)
from .graph import DirectedGraph
from .ingest import NetworkSeries
from .sampler import _integer
from .terms import ModelSpec

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
    ``dropped_replicates``. ``replicate_iterations`` holds each attempted
    replicate's Newton iteration count in draw order, None where the refit
    raised.
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
    replicate_iterations: tuple

    @property
    def n_valid(self) -> int:
        return self.replicate_coefficients.shape[0]


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
    if len(series) < 2:
        raise InsufficientPeriodsError(
            f"need at least two panels, have {len(series)}"
        )
    if series.node_count < 2:
        raise EmptyDesignError("panels have no dyads")
    off = ~np.eye(series.node_count, dtype=bool)
    blocks = [_design(g, g, attrs, spec, off) for g in series.graphs[1:]]
    x = np.concatenate([b.matrix for b in blocks])
    names = spec.names
    if include_lagged_tie:
        lag = np.concatenate([g.adjacency[off] for g in series.graphs[:-1]])
        x, names = np.column_stack([x, lag]), names + (LAGGED_TIE_NAME,)
    return DyadDesign(
        dyads=np.concatenate([b.dyads for b in blocks]),
        response=np.concatenate([b.response for b in blocks]),
        matrix=x,
        term_names=names,
    )


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
    periods with replacement, ``"node"`` redraws sender nodes; a replicate
    refits the pooled design with each row weighted by its unit's draw
    count. Every fit runs on the design's distinct rows, weighted by their
    multiplicity, and a replicate starts at the point estimate unless the
    point fit is flagged for separation or did not converge; replicates
    then agree with cold starts to the fit tolerance. A draw of every unit
    exactly once has the point fit's weights and takes the point fit as its
    replicate, with the iteration count its refit would report (0 from a
    warm start). Replicates that fail
    to converge (or lose a column entirely) are dropped and counted by
    reason in ``BootstrapResult.drop_reasons``.
    Intervals are percentile 2.5/97.5 over replicate coefficients.

    Returns
    -------
    (FitResult, BootstrapResult)
    """
    replications = _integer("replications", replications, 2)
    seed = _integer("seed", seed, 0)
    if mode not in ("temporal", "node"):
        raise ConfigError(f"mode must be 'temporal' or 'node', got {mode!r}")
    pooled = pooled_design(series, attrs, spec, include_lagged_tie)
    if mode == "temporal":
        units = len(series) - 1
        unit_of_row = np.repeat(np.arange(units), pooled.n_rows // units)
    else:
        units = series.node_count
        unit_of_row = pooled.dyads[:, 0].copy()

    # every fit runs on the distinct rows, column-major like the builders'
    # output; the pooled rows are let go before the first fit
    first, group = _unique_rows(pooled.matrix, pooled.response)
    x = np.empty((pooled.matrix.shape[1], len(first))).T
    for k in range(x.shape[1]):
        np.take(pooled.matrix[:, k], first, out=x[:, k])
    distinct = DyadDesign(
        pooled.dyads[first], pooled.response[first], x, pooled.term_names
    )
    del pooled
    point = fit_logistic(distinct, weights=np.bincount(group), **options)
    # a drifting or unconverged point estimate is no start for a replicate
    warm = point.converged and not point.separation_flags.any()
    start = point.coefficients if warm else None

    reps = []
    drop_reasons = {}
    iterations = []
    for rep in range(replications):
        pick = np.random.default_rng([seed, rep]).integers(0, units, size=units)
        draws = np.bincount(pick, minlength=units)
        try:
            if (draws == 1).all():
                # every unit drawn once: the point fit's own weights, so the
                # refit would return the point fit, at once when it starts there
                fit = point
                if warm:
                    fit = replace(
                        point,
                        iterations=0,
                        ll_path=point.ll_path[-1:],
                        step_halvings=0,
                    )
            else:
                weights = np.bincount(
                    group, weights=draws[unit_of_row], minlength=len(first)
                )
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fit = fit_logistic(
                        distinct, weights=weights, _start=start, **options
                    )
        except (NetworkModelError, np.linalg.LinAlgError) as exc:
            reason = type(exc).__name__
            iterations.append(None)
        else:
            iterations.append(fit.iterations)
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
        term_names=distinct.term_names,
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
        replicate_iterations=tuple(iterations),
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
    if not free.any():
        raise EmptyDesignError("no free dyads: the previous panel is complete")
    return _design(union, curr, attrs, spec, free)


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
