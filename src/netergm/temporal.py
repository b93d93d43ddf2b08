"""Temporal extensions: pooled panel fits with bootstrap intervals, and
formation models conditioned on the previous panel.

The pooled design stacks one cross-sectional dyadic design per modeled
period (every period except the first, which only serves as history).
Uncertainty comes from resampling whole modeled periods with replacement
and refitting; percentile intervals over the replicate coefficients are the
reported confidence bounds. A node-block variant resamples sender nodes
instead, for designs where period resampling is too coarse. The pooled
design is grouped as it is built, as ``build_design``'s designs are, with
the lagged tie as one more bit of its row key, and ``fit_btergm`` fits its
distinct rows, each weighted by how many pooled rows it stands for; a
replicate reweights them by their rows' unit draw counts and starts Newton
at the point estimate. The distinct rows are ``estimator._distinct``'s
read-only copy, which shares the pooled design's 0/1 pattern labels
(``DyadDesign.row_patterns``), so the point fit and every replicate read
those labels instead of scanning their rows again.
A replicate's fit depends on its draw counts alone, so each distinct draw is
fitted once: three modeled periods allow only C(5, 3) = 10 draws, one of
them the point fit's own weights, however many replications are asked for.
Period resampling needs at least two modeled periods. Node resampling reads
each row's sender from the pooled row order: one period's off-diagonal
dyads in row-major order after another.

Formation models ask a narrower question: among dyads with no tie at t-1,
which form one by t? Change statistics are evaluated on the union of the
two panels so that dissolving ties still shape the local configurations.
Its design is keyed, scanned and frozen in its builder, but not grouped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    EmptyDesignError,
    InsufficientPeriodsError,
    NetworkModelError,
    NumericalError,
    _integer,
    _one_of,
)
from .estimator import (
    DyadDesign,
    FitResult,
    _design,
    _distinct,
    _freeze,
    _record_row_groups,
    _scan,
    bayes_criterion,
    fit_logistic,
)
from .graph import DirectedGraph
from .ingest import NetworkSeries
from .terms import ModelSpec, _add_key_bit

__all__ = [
    "BootstrapResult",
    "pooled_design",
    "fit_btergm",
    "formation_design",
    "fit_formation",
    "formation_bic_all_dyads",
]

LAGGED_TIE_NAME = "lagged_tie"

BOOTSTRAP_MODES = ("temporal", "node")


@dataclass(frozen=True)
class BootstrapResult:
    """Replicate coefficients and percentile intervals for a pooled fit.

    ``drop_reasons`` counts the dropped replicates by cause:
    ``"not_converged"``, ``"dropped_term"`` (a column the point fit kept was
    all zero), or the class name of the error the refit raised. Its counts
    sum to ``dropped_replicates``. ``replicate_iterations`` holds each
    attempted replicate's Newton iteration count in draw order, None where
    the refit raised; a replicate that repeats an earlier draw reports the
    count of that draw's refit. Terms the point fit dropped have NaN
    standard errors and bounds and are never significant.
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
    """Stack the cross-sectional designs of every panel after the first,
    each of every off-diagonal dyad in row-major order, grouped and frozen
    as ``build_design``'s designs are (``DyadDesign.row_groups``).

    With ``include_lagged_tie`` a final column indicates whether the dyad
    was tied in the previous panel; it is one more bit of the row key that
    the grouping reads.
    """
    if len(series) < 2:
        raise InsufficientPeriodsError(
            f"need at least two panels, have {len(series)}"
        )
    if series.node_count < 2:
        raise EmptyDesignError("panels have no dyads")
    off = ~np.eye(series.node_count, dtype=bool)
    blocks = [_design(g, g, attrs, spec, off) for g in series.graphs[1:]]
    x = np.concatenate([b.matrix for b, _ in blocks])
    y = np.concatenate([b.response for b, _ in blocks])
    bits, keyed = blocks[0][1]
    if bits is not None:
        bits = np.concatenate([key[0] for _, key in blocks])
    del blocks  # so that the periods' own rows are gone before the grouping
    key, names = (bits, keyed), spec.names
    if include_lagged_tie:
        lag = np.concatenate([g.adjacency[off] for g in series.graphs[:-1]])
        key = _add_key_bit(key, lag, x.shape[1])
        x, names = np.column_stack([x, lag]), names + (LAGGED_TIE_NAME,)
    return _record_row_groups(DyadDesign(y, x, names), key)


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
    then agree with cold starts to the fit tolerance. The distinct rows are
    a read-only copy that shares the pooled design's 0/1 pattern ids,
    computed once, for the point fit and every replicate. Temporal mode
    over two panels, which model one period, raises
    :class:`InsufficientPeriodsError`.

    Equal draw counts give equal weights and so an equal fit: only the
    first replicate with each draw is refit, and a later one takes its
    coefficients, iteration count and drop reason (or the error it raised).
    A draw of every unit exactly once has the point fit's weights and takes
    the point fit, with the iteration count its refit would report (0 from
    a warm start). Replicates that fail to converge, or lose a column the
    point fit kept, are dropped and counted by reason in
    ``BootstrapResult.drop_reasons``; a column the point fit dropped is NaN
    in every replicate. Intervals are percentile 2.5/97.5 over replicate
    coefficients.

    Returns
    -------
    (FitResult, BootstrapResult)
    """
    replications = _integer("replications", replications, 2)
    seed = _integer("seed", seed, 0)
    _one_of("mode", mode, BOOTSTRAP_MODES)
    if mode == "temporal" and len(series) == 2:
        raise InsufficientPeriodsError(
            "a temporal bootstrap redraws modeled periods, and two panels model "
            "only one: use mode='node' or more periods"
        )
    pooled = pooled_design(series, attrs, spec, include_lagged_tie)
    if mode == "temporal":
        units = len(series) - 1
        unit_of_row = np.repeat(np.arange(units), pooled.n_rows // units)
    else:
        # a period's rows are its off-diagonal dyads, n - 1 per sender in turn
        units = series.node_count
        unit_of_row = np.resize(np.repeat(np.arange(units), units - 1), pooled.n_rows)

    # every fit runs on the frozen copy of the distinct rows, which shares
    # the pooled design's 0/1 pattern labels; the pooled rows are let go
    # before the first fit
    distinct, group = _distinct(pooled)
    del pooled
    point = fit_logistic(distinct, weights=np.bincount(group), **options)
    # a drifting or unconverged point estimate is no start for a replicate
    warm = point.converged and not point.separation_flags.any()
    start = point.coefficients if warm else None

    # outcome of each distinct draw: (coefficients, Newton iterations, drop
    # reason or None); every unit drawn once has the point fit's weights
    outcomes = {
        np.bincount(np.arange(units)).tobytes(): (
            point.coefficients,
            0 if warm else point.iterations,
            _drop_reason(point, point),
        )
    }
    reps = []
    drop_reasons = {}
    iterations = []
    for rep in range(replications):
        pick = np.random.default_rng([seed, rep]).integers(0, units, size=units)
        draws = np.bincount(pick, minlength=units)
        key = draws.tobytes()
        if key not in outcomes:
            weights = np.bincount(
                group, weights=draws[unit_of_row], minlength=distinct.n_rows
            )
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fit = fit_logistic(
                        distinct, weights=weights, _start=start, **options
                    )
            except (NetworkModelError, np.linalg.LinAlgError) as exc:
                outcomes[key] = (None, None, type(exc).__name__)
            else:
                outcomes[key] = (
                    fit.coefficients, fit.iterations, _drop_reason(fit, point)
                )
        coefficients, its, reason = outcomes[key]
        iterations.append(its)
        if reason is None:
            reps.append(coefficients)
        else:
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


def _drop_reason(fit: FitResult, point: FitResult):
    """Why a replicate fit is dropped, None when it is kept: it did not
    converge, or it lost a column that the point fit kept."""
    if not fit.converged:
        return "not_converged"
    if set(fit.dropped_terms) - set(point.dropped_terms):
        return "dropped_term"
    return None


def formation_design(
    prev: DirectedGraph,
    curr: DirectedGraph,
    attrs,
    spec: ModelSpec,
) -> DyadDesign:
    """Design over dyads untied at ``prev``: did they form a tie by ``curr``?

    Change statistics come from the union of the two panels, so ties present
    in either snapshot contribute to the local configuration counts. Nearly
    every row is distinct, so the design is not grouped: it is fitted row by
    row, from the scan of its row key taken here (``DyadDesign.row_patterns``).
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
    design, key = _design(union, curr, attrs, spec, free)
    return _freeze(design, None, _scan(design.matrix, None, key))


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
