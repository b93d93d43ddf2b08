"""Maximum pseudolikelihood estimation for directed network models.

The pseudolikelihood treats each dyad's tie indicator as an independent
Bernoulli draw whose logit is the inner product of the coefficient vector
with that dyad's change statistics. Estimation is therefore logistic
regression on the dyadic design; this module owns that regression so its
conventions (no implicit intercept, observed-information standard errors,
deviance bookkeeping) stay pinned down in one place.

Most rows of a cross-sectional dyadic design repeat. ``build_design`` groups
identical rows right after the columns are written (``_unique_rows``) and
records the grouping on the design when it at least halves the rows, which
also makes the design's arrays read-only; ``fit_logistic`` then fits the
distinct rows, each weighted by the rows it stands for, as ergm's
``ergmMPLE`` does. Weights count as rows in every check, the rank check
included, so a design of distinct rows fits and ranks exactly as the rows
it stands for. The rows a fit reads (views of the design, or the
distinct or positive-weight rows gathered into column-major copies) are one
list of ``_BLOCK_ROWS``-row blocks. Each Newton step walks that list once,
for the log-likelihood, score and information together (``_evaluate``), so
there is one Newton path for grouped and plain designs and no step copies a
whole design. The rank check reads Newton's first information: where it
proves that the row-blocked QR (``_rank``) would find full rank
(``_full_rank_certificate``), the QR does not run; where it cannot, the QR
walks the blocks and decides, as it always did.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    EmptyDesignError,
    InvalidDyadError,
    NumericalError,
    RankDeficiencyError,
    ValidationError,
)
from .graph import DirectedGraph
from .terms import ModelSpec, _change_stat_columns

__all__ = [
    "DyadDesign",
    "FitResult",
    "build_design",
    "fit_logistic",
    "fit_mple",
    "null_pseudo_deviance",
    "akaike_criterion",
    "bayes_criterion",
]


def null_pseudo_deviance(n_rows: int) -> float:
    """Deviance of the all-zero coefficient model (tie probability 1/2)."""
    return 2.0 * n_rows * math.log(2.0)


def akaike_criterion(residual_deviance: float, n_params: int) -> float:
    return residual_deviance + 2.0 * n_params


def bayes_criterion(residual_deviance: float, n_params: int, n_rows: int) -> float:
    return residual_deviance + n_params * math.log(n_rows)


@dataclass(frozen=True)
class DyadDesign:
    """A stacked dyadic regression problem.

    ``dyads`` holds (sender, receiver) index pairs aligned with ``response``
    (tie indicators) and ``matrix`` (change statistics, one column per
    term). ``periods`` tags each row with its panel label for pooled
    temporal designs, or is None for cross-sectional ones.

    ``row_groups`` records which rows are identical, as the pair
    ``(first, group)`` that ``_unique_rows`` returns: row r equals row
    ``first[group[r]]``. Only ``build_design`` sets it, right after the
    columns are written, and only when the distinct (x, y) rows are at most
    half of the rows; ``fit_logistic`` then fits the distinct rows, each
    weighted by the rows it stands for, a weight counting as that many rows
    in every check. It is no ``__init__`` argument, so a design made or
    changed by hand (``dataclasses.replace`` included) has none and cannot
    carry the grouping of other rows, and a design that has one holds
    ``matrix`` and ``response`` read-only, so that no edit in place can
    leave the grouping stale.
    """

    dyads: np.ndarray
    response: np.ndarray
    matrix: np.ndarray
    term_names: tuple
    periods: np.ndarray | None = None
    row_groups: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        d = len(self.response)
        if self.matrix.shape != (d, len(self.term_names)):
            raise DimensionError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{d} rows x {len(self.term_names)} terms"
            )
        if self.dyads.shape != (d, 2):
            raise DimensionError("dyads must be an (n_rows, 2) array")
        if self.periods is not None and len(self.periods) != d:
            raise DimensionError("periods tag length mismatch")

    @property
    def n_rows(self) -> int:
        return len(self.response)


@dataclass(frozen=True)
class FitResult:
    """One fitted model. Arrays are aligned with ``term_names``; terms that
    had to be dropped (all-zero columns) carry NaN estimates.

    The Newton record: ``ll_path`` is the log pseudolikelihood at the start
    and after each step, ``max_abs_score`` the largest |score| at the
    returned estimate, and ``step_halvings`` the number of times a step was
    halved. ``condition_number`` is the ratio of the largest to the smallest
    eigenvalue of the information matrix of the kept terms at the returned
    estimate, inf when the smallest is zero."""

    term_names: tuple
    coefficients: np.ndarray
    standard_errors: np.ndarray
    covariance: np.ndarray
    p_values: np.ndarray
    null_deviance: float
    residual_deviance: float
    aic: float
    bic: float
    n_dyads: int
    n_params: int
    converged: bool
    iterations: int
    ll_path: tuple
    max_abs_score: float
    step_halvings: int
    condition_number: float
    separation_flags: np.ndarray
    dropped_terms: tuple

    @property
    def exp_coefficients(self) -> np.ndarray:
        return np.exp(self.coefficients)

    @property
    def log_likelihood(self) -> float:
        return -0.5 * self.residual_deviance


def build_design(
    g: DirectedGraph,
    attrs,
    spec: ModelSpec,
    free_dyads=None,
) -> DyadDesign:
    """Dyadic design for ``spec`` on ``g``.

    With ``free_dyads`` None every ordered pair i != j contributes a row, in
    row-major order. Otherwise only the given dyads do, in the given order.
    """
    n = g.node_count
    if free_dyads is None:
        dyads, rows = ~np.eye(n, dtype=bool), n * (n - 1)
    else:
        pairs = list(free_dyads)
        for i, j in pairs:
            if i == j:
                raise InvalidDyadError(f"free dyad ({i}, {j}) is a loop")
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidDyadError(f"free dyad ({i}, {j}) outside node range")
        dyads = (
            np.array([p[0] for p in pairs], dtype=np.int64),
            np.array([p[1] for p in pairs], dtype=np.int64),
        )
        rows = len(pairs)
    if rows == 0:
        raise EmptyDesignError("design has no rows")
    return _record_row_groups(_design(g, g, attrs, spec, dyads))


def _design(stats_graph, response_graph, attrs, spec, dyads) -> DyadDesign:
    """Design over ``dyads``: change statistics read on ``stats_graph``, tie
    indicators on ``response_graph``. ``dyads`` selects the rows from an
    ``(n, n)`` array: a boolean mask, whose dyads come in row-major order,
    or a pair ``(ii, jj)`` of index arrays."""
    ii, jj = np.nonzero(dyads) if isinstance(dyads, np.ndarray) else dyads
    return DyadDesign(
        dyads=np.column_stack([ii, jj]).astype(np.int64, copy=False),
        response=response_graph.adjacency[dyads].astype(np.int8),
        matrix=_change_stat_columns(stats_graph, attrs, spec, dyads),
        term_names=spec.names,
    )


def _record_row_groups(design: DyadDesign) -> DyadDesign:
    """Record on a freshly built ``design`` which of its rows are identical,
    when that at least halves the rows, and then freeze its ``matrix`` and
    ``response``; returns ``design``."""
    first, group = _unique_rows(design.matrix, design.response)
    if 2 * len(first) <= design.n_rows:
        design.matrix.setflags(write=False)
        design.response.setflags(write=False)
        object.__setattr__(design, "row_groups", (first, group))
    return design


def _unique_rows(x, y):
    """Distinct rows of the design ``(x, y)``.

    Returns ``(first, group)``: ``first`` holds one representative row index
    per distinct (x, y) row, the row's first appearance, in row order, and
    row r equals row ``first[group[r]]``. Rows are sorted by a fixed-seed
    random projection, summed column by column with elementwise ufuncs so
    that equal rows hash bit-identically. A group starts wherever any column
    or the response differs from the previous sorted row, so groups are
    exact: distinct rows never share one. Distinct rows whose hashes collide
    can interleave within their run of equal hashes; each such run is then
    sorted by its columns, so every distinct row is one group. The sort
    need not be stable: a group's first appearance is the least row index
    in it. One row-length buffer takes every column's hash term and then
    every sorted column, so the scratch space does not grow with the
    columns.
    """
    d, p = x.shape
    # Python's generator: numpy.random loads lazily, and loading it would
    # add about 6 MiB to the resident size of a process that never samples
    rng = random.Random(0x5EED)
    coef = [rng.uniform(0.5, 1.5) for _ in range(p + 1)]
    buf = np.empty(d)
    h = np.multiply(y, coef[p], dtype=np.float64)
    for k in range(p):
        h += np.multiply(x[:, k], coef[k], out=buf)
    order = np.argsort(h)
    # run[r]: sorted row r starts a run of equal hashes
    run = np.ones(d, dtype=bool)
    np.take(h, order, out=buf)
    del h
    np.not_equal(buf[1:], buf[:-1], out=run[1:])
    new = run.copy()
    ys = y[order]
    new[1:] |= ys[1:] != ys[:-1]
    del ys
    step = np.empty(max(d - 1, 0), dtype=bool)
    for k in range(p):
        np.take(x[:, k], order, out=buf)
        new[1:] |= np.not_equal(buf[1:], buf[:-1], out=step)
    del buf, step
    split = new & ~run
    if split.any():
        # runs holding more than one distinct row: sort their rows by the
        # columns and the response, runs kept in place, and flag them again
        run_id = np.cumsum(run) - 1
        bad = np.zeros(run_id[-1] + 1, dtype=bool)
        bad[run_id[split]] = True
        at = np.flatnonzero(bad[run_id])
        rows = order[at]
        keys = [x[rows, k] for k in reversed(range(p))] + [y[rows], run_id[at]]
        order[at] = rows = rows[np.lexsort(keys)]
        # a run's first row has its run flag set, whatever row precedes it
        prev = order[at - 1]
        flags = run[at] | (y[rows] != y[prev])
        for k in range(p):
            flags |= x[rows, k] != x[prev, k]
        new[at] = flags
        del run_id
    del run, split
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts) if d else order
    del starts
    by_row = np.argsort(first)
    label = np.empty_like(by_row)
    label[by_row] = np.arange(len(by_row))
    first = first[by_row]
    del by_row
    sorted_label = np.cumsum(new)
    del new
    sorted_label -= 1
    group = np.empty(d, dtype=np.intp)
    group[order] = label[sorted_label]
    return first, group


def _logistic(eta):
    """The logistic function ``mu = 1 / (1 + exp(-eta))`` and
    ``log(1 + exp(eta))`` at ``eta``, both from one ``exp(-|eta|)`` and
    overflow-free at any eta."""
    # exp of -|eta| never overflows; below about -745 it underflows to 0,
    # which is the right limit, so that flag is not an error here
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(eta))
    mu = np.where(eta >= 0, 1.0, e) / (1.0 + e)
    return mu, np.maximum(eta, 0.0) + np.log1p(e)


def _two_sided_p(theta, se):
    """Two-sided normal p-values of theta / se: 0 at |z| = inf, NaN for NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(theta / se)
    return np.array([math.erfc(v / math.sqrt(2.0)) for v in z])


# Rows per block of the rank check and of each Newton pass: a block
# of a 22-term design is about 1.4 MiB, so no step copies the whole design.
_BLOCK_ROWS = 8192


def _row_blocks(d):
    """Slices that cover rows ``0..d-1`` in blocks of ``_BLOCK_ROWS``."""
    return [slice(lo, min(lo + _BLOCK_ROWS, d)) for lo in range(0, d, _BLOCK_ROWS)]


def _blocks(a):
    """``a`` cut into a list of views of ``_BLOCK_ROWS`` rows."""
    return [a[rows] for rows in _row_blocks(len(a))]


def _fit_blocks(x, y, w, rows):
    """Row blocks ``(xs, ys, ws)`` of the rows of the design ``(x, y)`` that
    a fit reads, as float64.

    With ``rows`` None these are views of ``x`` (column-major like the
    builders' output, so results do not depend on layout), ``y`` and ``w``.
    Otherwise they hold the rows ``rows``, gathered one column at a time
    into column-major blocks of ``_BLOCK_ROWS`` rows, and ``w`` is aligned
    with ``rows``; no copy larger than a block is made.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if rows is None:
        y = y.astype(np.float64, copy=False)
        return _blocks(np.asfortranarray(x)), _blocks(y), _blocks(w)
    xs, ys, ws = [], [], []
    for block in _row_blocks(len(rows)):
        at = rows[block]
        xb = np.empty((x.shape[1], len(at))).T
        for k in range(x.shape[1]):
            np.take(x[:, k], at, out=xb[:, k])
        xs.append(xb)
        ys.append(y[at].astype(np.float64))
        ws.append(w[block])
    return xs, ys, ws


def _rank(xs, ws, cols=slice(None)):
    """Numerical rank of the columns ``cols`` of the matrix whose row blocks
    are the list ``xs``, by numpy's ``matrix_rank`` rule, where a row of
    weight k (from the matching list ``ws``) counts as k copies of the row:
    the rows are scaled by the square roots of their weights and the
    tolerance is ``max(sum(w), p) * eps * s_max``.

    The R factor is built block by block (a row-blocked "TSQR"): each block
    of scaled rows is stacked under the running R and factorised again, so
    R has the singular values of the scaled ``x[:, cols]`` while no copy of
    the design is made and Q is never formed. A design of one block gives
    the R of a single QR.

    ``fit_logistic`` runs it only where ``_full_rank_certificate`` cannot
    show from Newton's first information that it would return p, and on
    the column selections that name the dependent columns; it alone
    rejects a design, so every rank verdict is this rule's.
    """
    r = xs[0][:0, cols]  # no rows yet, as many columns as the selection
    for xb, wb in zip(xs, ws):
        stacked = np.vstack([r, xb[:, cols]])
        stacked[len(r):] *= np.sqrt(wb)[:, None]
        r = np.linalg.qr(stacked, mode="r")
        del stacked  # so that it is gone before the next block is stacked
        if not np.isfinite(r).all():
            raise NumericalError("design matrix has non-finite entries")
    s = np.linalg.svd(r, compute_uv=False)
    d = sum(float(wb.sum()) for wb in ws)
    tol = max(d, r.shape[1]) * np.finfo(np.float64).eps * s[0]
    return int((s > tol).sum())


def _full_rank_certificate(info, m2, ws):
    """True only if ``_rank(xs, ws)`` would return ``p``: a proof from the
    information ``info`` (p x p) of some ``_evaluate(xs, ys, ws, theta)``,
    the sum ``m2`` of the squared largest |entries| of the p columns of
    ``xs``, and the weights ``ws``. False means only that it cannot tell.

    Write S for the rows of ``xs`` scaled by the square roots of their
    weights, whose singular values ``_rank`` compares, and d for its rows.

    * ``info`` is the rounded sum of ``a.T @ a``, ``a`` the rows scaled by
      ``sqrt(v)`` with ``v = w * mu * (1 - mu)``; as ``mu * (1 - mu) <= 1/4``,
      the computed v are at most ``w / 4 * (1 + eps)``, so the exact G of
      those v satisfies ``sigma_p(S)**2 >= 4 * lambda_min(G) / (1 + eps)``.
    * G is positive semi-definite, so ``lambda_min(G) = sigma_min(G)``,
      which is at least the computed ``sigma_min(info)`` less the rounding
      of the blocked sums (at most ``2 (d + p) eps trace``), the error of
      the p x p SVD (a multiple of ``p eps sigma_max``) and an allowance
      for underflow.
    * ``||S||_2 <= ||S||_F <= s1 = sqrt(sum(w) * m2)``, raised by the
      rounding of ``sum(w)``.
    * The row-blocked QR returns the R of S moved by at most ``slack``
      (Householder's backward error ``c (rows + p) p eps ||S||_F`` summed
      over the stages, the weight scaling, the SVD of R and underflow), so
      the singular values it compares lie within ``slack`` of S's.

    ``_rank`` reports full rank when its smallest singular value clears
    ``max(sum(w), p) * eps * s_max``; that holds when the lower bound on
    ``sigma_p(S)`` less ``slack`` clears that tolerance at ``s1 + slack``.
    The caller sees that ``sum(w) * m2`` is finite, so no sum of the QR
    can overflow. One p x p SVD, the routine ``_rank`` already loads.
    """
    if not np.isfinite(info).all():
        return False
    eps, tiny = float(np.finfo(np.float64).eps), float(np.finfo(np.float64).tiny)
    p = len(info)
    d = sum(len(wb) for wb in ws)
    n_w = sum(float(wb.sum()) for wb in ws)  # as _rank sums it
    w_max = max(float(wb.max()) for wb in ws)
    sv = np.linalg.svd(info, compute_uv=False)
    scale = max(float(np.trace(info)), float(sv[0]))
    err = 2 * (d + 3 * p) * eps * scale
    err += 2 * p * d * (1 + m2) * (1 + w_max) * tiny * eps
    low = math.sqrt(max(4 * (float(sv[-1]) - err) / (1 + eps), 0.0))
    s1 = math.sqrt(n_w * m2) * (1 + (d + 4) * eps)
    slack = 10 * (d + (len(ws) + 1) * p) * p * eps * s1 + d * p * tiny
    tol = max(n_w, p) * eps * (s1 + slack) * (1 + 2 * eps)
    return low - slack > tol


def _evaluate(xs, ys, ws, theta):
    """Log-likelihood, score and information at ``theta``, summed over the
    matching lists of row blocks ``xs``, ``ys`` and ``ws`` in one pass.

    With ``eta = x @ theta``, ``mu`` its logistic and ``v = w * mu * (1 - mu)``,
    these are the weighted sum of ``y*eta - log(1 + exp(eta))``, the score
    ``x.T @ (w * (y - mu))`` and the information ``a.T @ a``, where ``a``
    holds the rows of ``x`` scaled by ``sqrt(v)``: a product of a matrix with
    its own transpose, which BLAS forms at half the cost of a general one.
    Every block writes its ``a`` into one buffer, so that no temporary as
    large as the design is made.
    """
    p = len(theta)
    ll, score, info = 0.0, np.zeros(p), np.zeros((p, p))
    # column-major, like the blocks
    buf = np.empty((p, max(len(xb) for xb in xs))).T
    for xb, yb, wb in zip(xs, ys, ws):
        eta = xb @ theta
        mu, log1pexp = _logistic(eta)
        ll += float(np.sum(wb * yb * eta) - np.sum(wb * log1pexp))
        score += xb.T @ (wb * (yb - mu))
        a = np.multiply(xb, np.sqrt(wb * mu * (1.0 - mu))[:, None], out=buf[: len(xb)])
        info += a.T @ a
    return ll, score, info


def _newton(xs, ys, ws, theta, at_theta, tolerance, max_iterations):
    """Newton ascent with step halving from ``theta`` over the row blocks
    ``xs``, ``ys`` and ``ws``, where ``at_theta`` is ``_evaluate`` at
    ``theta``. Returns (theta, info, ll_path, max_score, halvings,
    converged, iterations): ``max_score`` is the largest |score| at the
    returned theta and ``halvings`` counts every halved step. A theta whose
    score is under ``tolerance`` converges, the last one the cap allows
    included.

    Each candidate is evaluated once: the score and information of an
    accepted one serve the next step, and those of a halved one are
    dropped with it, so ``info`` is always taken at the returned theta."""
    ll, score, info = at_theta
    ll_path = [ll]
    halvings = 0
    converged = False
    iterations = 0
    # one round past the cap, so that max_score is read at the returned theta
    for it in range(1, max_iterations + 2):
        max_score = float(np.max(np.abs(score)))
        if max_score < tolerance:
            converged = True
            break
        if it > max_iterations:
            break
        iterations = it
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = np.linalg.pinv(info) @ score
        if not np.all(np.isfinite(step)):
            break
        lam = 1.0
        for _ in range(30):
            cand = theta + lam * step
            at_cand = _evaluate(xs, ys, ws, cand)
            if at_cand[0] >= ll - 1e-10:
                break
            lam *= 0.5
            halvings += 1
        else:  # no candidate kept the log-likelihood
            break
        theta, (ll, score, info) = cand, at_cand
        ll_path.append(ll)
    return theta, info, ll_path, max_score, halvings, converged, iterations


# A kept coefficient is flagged for separation when its magnitude or its
# standard error passes these bounds.
SEPARATION_THRESHOLD = 15.0
SE_THRESHOLD = 100.0


def fit_logistic(
    design: DyadDesign,
    *,
    weights=None,
    tolerance: float = 1e-8,
    max_iterations: int = 50,
    _start=None,
) -> FitResult:
    """Fit the logistic pseudolikelihood for a dyadic design.

    No intercept is added; an ``edges`` term plays that role when wanted.
    All-zero columns are dropped with a warning and reported as NaN. Exact
    collinearity raises :class:`RankDeficiencyError` naming the dependent
    columns. Separation does not raise: affected coefficients keep drifting,
    the fit stops at ``max_iterations``, and terms with ``|coef| >
    SEPARATION_THRESHOLD`` or standard error above ``SE_THRESHOLD`` carry a
    separation flag.

    ``weights`` gives each row a non-negative multiplicity, 1 when None; an
    integer weight k fits exactly as k copies of the row, in every check as
    well as in the estimates: the rank check counts it as k rows, and
    ``n_dyads``, the null deviance and the BIC use the total weight.
    Zero-weight rows take no part in the column, rank and boundary checks.

    A design on which ``build_design`` recorded ``row_groups`` is fitted on
    its distinct rows, each weighted by the total weight of the rows it
    stands for, so it fits and ranks as its rows do; the estimates agree
    with the row-by-row fit to rounding. The rows that the fit reads (all
    of them, the positive-weight ones, or the distinct ones) are one list
    of row blocks, views of the design or gathered copies, which each
    Newton step walks once. The rank check reads the information of the
    first of those walks and walks the blocks itself, by QR, only when that
    information cannot certify full rank.

    Private: ``_start`` (aligned with ``term_names``) is where Newton starts
    instead of zero.
    """
    d, p_all = design.matrix.shape
    if weights is None:
        # a read-only broadcast of 1.0 holds no d-vector of ones
        w = np.broadcast_to(1.0, (d,))
    else:
        w = np.asarray(weights, dtype=np.float64)
    if w.shape != (d,):
        raise DimensionError(f"weights have shape {w.shape}, design has {d} rows")
    if not (np.isfinite(w) & (w >= 0.0)).all():
        raise ValidationError("weights must be finite and non-negative")
    on = w > 0.0
    if not on.any():
        raise EmptyDesignError("no rows of positive weight to fit")
    n_obs = float(w.sum())
    # the design is read in place unless it is grouped or some rows drop out
    rows = None
    if design.row_groups is not None:
        first, group = design.row_groups
        # unweighted counts need no row-length copy of the broadcast weights
        w = np.bincount(group, None if weights is None else w, len(first))
        w = w.astype(np.float64, copy=False)
        rows, on = first, w > 0.0
    if not on.all():
        rows = np.flatnonzero(on) if rows is None else rows[on]
        w = w[on]
    xs, ys, ws = _fit_blocks(design.matrix, design.response, w, rows)
    names = design.term_names

    # the largest |entry| of each column; NaN propagates
    colmax = np.maximum.reduce(
        [np.maximum(xb.max(axis=0), -xb.min(axis=0)) for xb in xs]
    )
    zero_cols = colmax == 0.0
    if zero_cols.all():
        raise RankDeficiencyError("every design column is identically zero")
    dropped = tuple(n for n, z in zip(names, zero_cols) if z)
    if dropped:
        warnings.warn(
            f"dropping all-zero column(s): {', '.join(dropped)}", stacklevel=2
        )
    keep = ~zero_cols
    if not keep.all():
        xs = [xb[:, keep] for xb in xs]
    kept_names = [n for n, k in zip(names, keep) if k]
    p = int(keep.sum())

    start = np.zeros(p) if _start is None else np.asarray(_start, np.float64)[keep]
    # Newton's first evaluation doubles as the rank check's input. Where
    # sum(w) * m2 bounds no sum (a non-finite or overflowing entry), the QR
    # checks first, so that it raises before any evaluation warns.
    m2 = math.fsum(m * m for m in colmax[keep].tolist())
    at_start = None
    if math.isfinite(sum(float(wb.sum()) for wb in ws) * m2):
        at_start = _evaluate(xs, ys, ws, start)
    if at_start is None or not _full_rank_certificate(at_start[2], m2, ws):
        rank = _rank(xs, ws)
        if rank < p:
            # identify a maximal independent prefix; the rest are dependent
            culprits = []
            basis = []
            for k in range(p):
                if _rank(xs, ws, basis + [k]) > len(basis):
                    basis.append(k)
                else:
                    culprits.append(kept_names[k])
            raise RankDeficiencyError(
                f"design is rank deficient ({rank}/{p}); dependent columns: "
                + ", ".join(culprits)
            )
        if at_start is None:
            at_start = _evaluate(xs, ys, ws, start)

    boundary = min(yb.min() for yb in ys) == max(yb.max() for yb in ys)
    if boundary:
        warnings.warn(
            "response is constant; the pseudolikelihood maximum lies on the "
            "boundary and coefficients will be flagged",
            stacklevel=2,
        )

    theta, info, ll_path, max_score, halvings, converged, iterations = _newton(
        xs, ys, ws, start, at_start, tolerance, max_iterations
    )
    ll = ll_path[-1]
    # A boundary maximum is not an interior stationary point even when the
    # score happens to dip under the tolerance.
    if boundary:
        converged = False

    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(info)
    # the information is symmetric and positive semi-definite, so its
    # singular values are its eigenvalues; the SVD is the LAPACK routine the
    # rank check already runs, where eigvalsh would load another
    sv = np.linalg.svd(info, compute_uv=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else math.inf
    var = np.diag(cov).copy()
    var[var < 0] = np.nan
    se = np.sqrt(var)

    coef_out = np.full(p_all, np.nan)
    se_out = np.full(p_all, np.nan)
    p_out = np.full(p_all, np.nan)
    cov_out = np.full((p_all, p_all), np.nan)
    flags = np.zeros(p_all, dtype=bool)
    kept_idx = np.nonzero(keep)[0]
    coef_out[kept_idx] = theta
    se_out[kept_idx] = se
    cov_out[np.ix_(kept_idx, kept_idx)] = cov
    p_out[kept_idx] = _two_sided_p(theta, se)
    flags[kept_idx] = (np.abs(theta) > SEPARATION_THRESHOLD) | (se > SE_THRESHOLD)
    if flags.any():
        hit = [n for n, f in zip(names, flags) if f]
        warnings.warn(
            "possible separation, estimates unreliable for: " + ", ".join(hit),
            stacklevel=2,
        )

    res_dev = -2.0 * ll
    return FitResult(
        term_names=tuple(names),
        coefficients=coef_out,
        standard_errors=se_out,
        covariance=cov_out,
        p_values=p_out,
        null_deviance=null_pseudo_deviance(n_obs),
        residual_deviance=res_dev,
        aic=akaike_criterion(res_dev, p),
        bic=bayes_criterion(res_dev, p, n_obs),
        n_dyads=int(n_obs) if n_obs.is_integer() else n_obs,
        n_params=p,
        converged=converged,
        iterations=iterations,
        ll_path=tuple(ll_path),
        max_abs_score=max_score,
        step_halvings=halvings,
        condition_number=condition,
        separation_flags=flags,
        dropped_terms=dropped,
    )


def fit_mple(
    g: DirectedGraph,
    attrs,
    spec: ModelSpec,
    free_dyads=None,
    **options,
) -> FitResult:
    """Build the dyadic design for ``g`` and fit it in one call."""
    return fit_logistic(build_design(g, attrs, spec, free_dyads), **options)
