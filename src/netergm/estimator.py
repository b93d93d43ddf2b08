"""Maximum pseudolikelihood estimation for directed network models.

The pseudolikelihood treats each dyad's tie indicator as an independent
Bernoulli draw whose logit is the inner product of the coefficient vector
with that dyad's change statistics. Estimation is therefore logistic
regression on the dyadic design; this module owns that regression so its
conventions (no implicit intercept, observed-information standard errors,
deviance bookkeeping) stay pinned down in one place.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    EmptyDesignError,
    InvalidDyadError,
    NumericalError,
    RankDeficiencyError,
)
from .graph import DirectedGraph
from .terms import ModelSpec, change_stat_matrices

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
    """

    dyads: np.ndarray
    response: np.ndarray
    matrix: np.ndarray
    term_names: tuple
    periods: np.ndarray | None = None

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
    had to be dropped (all-zero columns) carry NaN estimates."""

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
        off = ~np.eye(n, dtype=bool)
        ii, jj = np.nonzero(off)
    else:
        pairs = list(free_dyads)
        for i, j in pairs:
            if i == j:
                raise InvalidDyadError(f"free dyad ({i}, {j}) is a loop")
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidDyadError(f"free dyad ({i}, {j}) outside node range")
        ii = np.array([p[0] for p in pairs], dtype=np.int64)
        jj = np.array([p[1] for p in pairs], dtype=np.int64)
    if len(ii) == 0:
        raise EmptyDesignError("design has no rows")
    mats = change_stat_matrices(g, attrs, spec)
    x = mats[:, ii, jj].T.copy()
    y = g.adjacency[ii, jj].astype(np.int8)
    return DyadDesign(
        dyads=np.column_stack([ii, jj]).astype(np.int64),
        response=y,
        matrix=x,
        term_names=spec.names,
    )


def _sigmoid(eta):
    """Logistic function 1 / (1 + exp(-eta)), overflow-free at any eta."""
    # exp of -|eta| never overflows; below about -745 it underflows to 0,
    # which is the right limit, so that flag is not an error here
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _two_sided_p(theta, se):
    """Two-sided normal p-values of theta / se: 0 at |z| = inf, NaN for NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(theta / se)
    return np.array([math.erfc(v / math.sqrt(2.0)) for v in z])


def _rank(x):
    """Numerical rank of ``x`` by numpy's ``matrix_rank`` rule.

    Singular values come from the R factor of a QR decomposition: they equal
    those of ``x``, R has at most p x p entries, and Q is never formed.
    Tolerance is ``max(d, p) * eps * s_max``.
    """
    d, p = x.shape
    r = np.linalg.qr(x, mode="r")
    if not np.isfinite(r).all():
        raise NumericalError("design matrix has non-finite entries")
    s = np.linalg.svd(r, compute_uv=False)
    tol = max(d, p) * np.finfo(np.float64).eps * s[0]
    return int((s > tol).sum())


def _log_likelihood(eta, y):
    # sum of y*eta - log(1 + exp(eta)), stable at large |eta|
    return float(np.sum(y * eta) - np.sum(np.logaddexp(0.0, eta)))


def _newton(x, y, tolerance, max_iterations):
    """Newton ascent with step halving. Returns (theta, info, ll_path,
    converged, iterations)."""
    d, p = x.shape
    theta = np.zeros(p)
    eta = x @ theta
    ll = _log_likelihood(eta, y)
    ll_path = [ll]
    converged = False
    iterations = 0
    # one pass past the cap, so that info is taken at the returned theta
    for it in range(1, max_iterations + 2):
        mu = _sigmoid(eta)
        score = x.T @ (y - mu)
        w = mu * (1.0 - mu)
        info = (x * w[:, None]).T @ x
        if it > max_iterations:
            break
        if np.max(np.abs(score)) < tolerance:
            converged = True
            break
        iterations = it
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = np.linalg.pinv(info) @ score
        if not np.all(np.isfinite(step)):
            break
        lam = 1.0
        improved = False
        for _ in range(30):
            cand = theta + lam * step
            eta_cand = x @ cand
            ll_cand = _log_likelihood(eta_cand, y)
            if ll_cand >= ll - 1e-10:
                theta, eta, ll = cand, eta_cand, ll_cand
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
        ll_path.append(ll)
    return theta, info, ll_path, converged, iterations


def fit_logistic(
    design: DyadDesign,
    *,
    tolerance: float = 1e-8,
    max_iterations: int = 50,
    separation_threshold: float = 15.0,
    se_threshold: float = 100.0,
) -> FitResult:
    """Fit the logistic pseudolikelihood for a dyadic design.

    No intercept is added; an ``edges`` term plays that role when wanted.
    All-zero columns are dropped with a warning and reported as NaN. Exact
    collinearity raises :class:`RankDeficiencyError` naming the dependent
    columns. Separation does not raise: affected coefficients keep drifting,
    the fit stops at ``max_iterations``, and rows with ``|coef| >
    separation_threshold`` or standard error above ``se_threshold`` carry a
    separation flag.
    """
    x_full = np.asarray(design.matrix, dtype=np.float64)
    y = np.asarray(design.response, dtype=np.float64)
    d, p_all = x_full.shape
    if d == 0:
        raise EmptyDesignError("cannot fit an empty design")
    names = design.term_names

    zero_cols = np.array([(x_full[:, k] == 0.0).all() for k in range(p_all)])
    if zero_cols.all():
        raise RankDeficiencyError("every design column is identically zero")
    dropped = tuple(n for n, z in zip(names, zero_cols) if z)
    if dropped:
        warnings.warn(
            f"dropping all-zero column(s): {', '.join(dropped)}", stacklevel=2
        )
    keep = ~zero_cols
    x = x_full[:, keep]
    kept_names = [n for n, k in zip(names, keep) if k]
    p = x.shape[1]

    rank = _rank(x)
    if rank < p:
        # identify a maximal independent prefix; the rest are dependent
        culprits = []
        basis = []
        for k in range(p):
            if _rank(x[:, basis + [k]]) > len(basis):
                basis.append(k)
            else:
                culprits.append(kept_names[k])
        raise RankDeficiencyError(
            f"design is rank deficient ({rank}/{p}); dependent columns: "
            + ", ".join(culprits)
        )

    boundary = np.ptp(y) == 0.0
    if boundary:
        warnings.warn(
            "response is constant; the pseudolikelihood maximum lies on the "
            "boundary and coefficients will be flagged",
            stacklevel=2,
        )

    theta, info, ll_path, converged, iterations = _newton(
        x, y, tolerance, max_iterations
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
    flags[kept_idx] = (np.abs(theta) > separation_threshold) | (se > se_threshold)
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
        null_deviance=null_pseudo_deviance(d),
        residual_deviance=res_dev,
        aic=akaike_criterion(res_dev, p),
        bic=bayes_criterion(res_dev, p, d),
        n_dyads=d,
        n_params=p,
        converged=converged,
        iterations=iterations,
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
