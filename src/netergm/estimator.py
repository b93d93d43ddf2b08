"""Maximum pseudolikelihood estimation for directed network models.

The pseudolikelihood treats each dyad's tie indicator as an independent
Bernoulli draw whose logit is the inner product of the coefficient vector
with that dyad's change statistics. Estimation is therefore logistic
regression on the dyadic design; this module owns that regression so its
conventions (no implicit intercept, observed-information standard errors,
deviance bookkeeping) stay pinned down in one place.

Most rows of a cross-sectional dyadic design repeat. ``build_design`` (and
``temporal.pooled_design``) groups identical rows right after the columns
are written (``_unique_rows``: runs of equal row hashes, each proved one
group by a gather of the distinct rows) and records the grouping on every
design it returns, which also makes the design's arrays read-only. The
columns built from bools (``edges``, ``mutual`` and every ``nodematch``)
come with a row key (``terms._change_stat_columns``) that packs them into
one unsigned integer per row, so the hash, the proof and the pattern scan
read that key once instead of each of those columns; a design made by hand
goes the same way with an empty key. ``fit_logistic`` then fits the
distinct rows, each weighted by the rows it stands for, as ergm's
``ergmMPLE`` does. Weights count as rows in every check, the rank check
included, so a design of distinct rows fits and ranks exactly as the rows
it stands for.

The key is the one code of 0/1 columns. Each fit splits its kept columns
(``_fit_rows``): the keyed columns that hold a 1 on its rows are read as the
bits of the key, which a design without one gets by value (``_scan``), and
every fitted row gets the id of its key's pattern; the other columns are
ordinary. The rows a fit reads form one list of ``_BLOCK_ROWS``-row blocks:
views of the design where it reads every row in place, and otherwise the
other columns alone, gathered into column-major copies. Each Newton step
walks that list once, for the log-likelihood, score and information together
(``_evaluate_rows``): the 0/1 columns enter through sums per pattern, so
their part of a step costs patterns x b**2 rather than rows x b**2. There is
one Newton path for grouped and plain designs, and no step copies a whole
design. A design's rows are chosen by one boolean dyad mask (``_design``).
On a design that the library builds or copies itself, ``_freeze`` makes the
arrays read-only and keeps the pattern ids on it
(``DyadDesign.row_patterns``), computed once, in its builder: the grouped
designs of ``build_design`` and ``pooled_design``, the ungrouped design of
``temporal.formation_design``, and the distinct-row copy that ``_distinct``
makes of a pooled design for ``fit_btergm``, which shares them. The rank
check reads Newton's first information: where it proves that the row-blocked
QR would find full rank (``_full_rank_certificate``), the QR does not run;
where it cannot, the QR decides: one walk of the rows Newton reads makes one
R factor (``_r_factor``), whose columns give the rank and any dependent
columns (``_rank``). A cold fit starts at the intercept-only estimate
(``_intercept_start``), as R's ``glm`` starts from the data, so that a
sparse network's fit spends no steps walking ``edges`` from a tie
probability of 1/2 toward its density.
A design keeps only its rows' responses and change statistics, in the
row-major order of the mask that chose them.
"""

from __future__ import annotations

import math
import numbers
import random
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    EmptyDesignError,
    NumericalError,
    RankDeficiencyError,
    ValidationError,
    _integer,
)
from .graph import DirectedGraph
from .terms import _NO_KEY, ModelSpec, _add_key_bit, _change_stat_columns

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
    """A stacked dyadic regression problem: ``response`` holds each row's
    tie indicator (0 or 1) and ``matrix`` its change statistics, one column
    per term, with rows in the row-major order of the builder's dyad mask
    (``np.argwhere(mask)``; ``pooled_design`` stacks one per period).

    ``row_groups`` records which rows are identical, as the pair
    ``(first, group)`` that ``_unique_rows`` returns: row r equals row
    ``first[group[r]]``. ``build_design`` and ``pooled_design`` set it on
    every design they return (through ``_freeze``), right after the columns
    are written, however few rows repeat; ``fit_logistic`` then fits the
    distinct rows, each weighted by the rows it stands for, a weight
    counting as that many rows in every check. It is no ``__init__``
    argument, so a design made or changed by hand (``dataclasses.replace``
    included) has none and cannot carry the grouping of other rows, and a
    design that has one holds ``matrix`` and ``response`` read-only, so that
    no edit in place can leave the grouping stale.

    ``row_patterns`` keeps the column scan of the rows that the fits of
    the design start from (the distinct rows when it has ``row_groups``),
    as ``_scan`` returns it: a fit of all those rows reads it whole, and a
    fit of some of them reads its pattern ids, so that no fit labels its
    rows again. Only ``_freeze`` sets it, in the builder of a design that
    the library itself built or copied (the designs of ``build_design``,
    ``pooled_design`` and ``formation_design``, and the copy of distinct
    rows that ``_distinct`` makes, which shares them), and it makes
    ``matrix`` and ``response`` read-only, so that no edit can leave the
    labels stale; arrays a caller hands in, read-only or not, are keyed and
    labelled again at every fit. Like ``row_groups``, it is no ``__init__``
    argument.
    """

    response: np.ndarray
    matrix: np.ndarray
    term_names: tuple
    row_groups: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    row_patterns: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        d = len(self.response)
        if self.matrix.shape != (d, len(self.term_names)):
            raise DimensionError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{d} rows x {len(self.term_names)} terms"
            )
        y = np.asarray(self.response)
        if not ((y == 0) | (y == 1)).all():
            raise ValidationError("response must hold only 0 and 1")

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
) -> DyadDesign:
    """Dyadic design for ``spec`` on ``g``: every ordered pair i != j
    contributes a row, in row-major order."""
    n = g.node_count
    if n < 2:
        raise EmptyDesignError("design has no rows")
    design, key = _design(g, g, attrs, spec, ~np.eye(n, dtype=bool))
    return _record_row_groups(design, key)


def _design(stats_graph, response_graph, attrs, spec, mask):
    """``(design, key)``: the design over the dyads of the ``(n, n)`` boolean
    mask ``mask``, in row-major order, with change statistics read on
    ``stats_graph`` and tie indicators on ``response_graph``, and the row key
    of its bool-built columns (``terms._change_stat_columns``)."""
    matrix, key = _change_stat_columns(stats_graph, attrs, spec, mask)
    design = DyadDesign(
        response=response_graph.adjacency[mask].astype(np.int8),
        matrix=matrix,
        term_names=spec.names,
    )
    return design, key


def _record_row_groups(design: DyadDesign, key=_NO_KEY) -> DyadDesign:
    """Record on a freshly built ``design``, whose row key is ``key``, which
    of its rows are identical (``_unique_rows``) and the ``_scan`` of its
    distinct rows, whose keyed columns are read from the key, and freeze it
    (``_freeze``); returns ``design``."""
    first, group = _unique_rows(design.matrix, design.response, key)
    bits, keyed = key
    key = None if bits is None else bits[first], keyed
    return _freeze(design, (first, group), _scan(design.matrix, first, key=key))


def _freeze(design: DyadDesign, groups, patterns) -> DyadDesign:
    """Freeze ``design``, a design the library built or copied itself and
    hands to no caller writable: make its ``matrix`` and ``response``
    read-only, and record on it ``groups`` as its ``row_groups`` and
    ``patterns``, the ``_scan`` of the rows its fits start from, as its
    ``row_patterns``. Returns ``design``."""
    design.matrix.setflags(write=False)
    design.response.setflags(write=False)
    object.__setattr__(design, "row_groups", groups)
    object.__setattr__(design, "row_patterns", patterns)
    return design


def _distinct(design: DyadDesign):
    """``(distinct, group)``: a frozen copy of the recorded distinct rows of
    the grouped ``design`` (columns column-major, as the builders write
    them), which shares the design's ``row_patterns``, and the group of
    each of the design's rows among them."""
    first, group = design.row_groups
    distinct = DyadDesign(
        design.response[first], _take_rows(design.matrix, first), design.term_names
    )
    return _freeze(distinct, None, design.row_patterns), group


def _unique_rows(x, y, key=_NO_KEY):
    """Distinct rows of the design ``(x, y)``.

    Returns ``(first, group)``: ``first`` holds one representative row index
    per distinct (x, y) row, the row's first appearance, in row order, and
    row r equals row ``first[group[r]]``.

    ``key`` is the row key of the design's bool-built columns
    (``terms._change_stat_columns``), which packs them into one unsigned
    integer per row; a design made by hand has the empty key. The keyed
    columns are read through the key alone: each row hashes its key, its
    response and its other columns (``_hash_runs``), the rows are sorted by
    that hash, and each run of equal hashes is taken as one group. Equal
    rows hash equally, so no two equal rows fall in different runs; each
    group is then proved exact by comparing every row with its group's
    first row, ``col[first][group] == col``, for the response, the key and
    every other column: a gather of the distinct rows in row order, written
    into buffers allocated once. Only where distinct rows share a hash (a
    collision), or an entry is NaN, does that check fail, and the runs
    holding distinct rows are then split by ``np.unique`` of their rows
    (``_split_runs``). The scratch space does not grow with the columns.
    """
    order, run = _hash_runs(x, y, key)
    first, group = _label_groups(order, run)
    if _groups_hold(x, y, first, group, key):
        return first, group
    del first, group
    return _label_groups(order, _split_runs(x, y, order, run))


# Odd multipliers: the key's, which spreads its bits over the whole word
# before they meet the float hash's, and 2**64 / phi, the top bits of whose
# product are the row hash (Fibonacci hashing, Knuth, TAOCP vol. 3, 6.4)
_KEY_FACTOR = np.uint64(0xBF58476D1CE4E5B9)
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)


def _hash_runs(x, y, key):
    """``(order, run)`` for the rows of the design ``(x, y)`` with the row
    key ``key``: ``order`` sorts the rows by a hash of each row, and
    ``run[r]`` flags sorted row r as the first of a run of equal hashes,
    whose rows are in row order.

    The hash starts from a fixed-seed random projection of the response
    and the columns that ``key`` leaves out, summed column by column with
    elementwise ufuncs so that equal rows hash bit-identically (a zero of
    either sign adds up to +0.0). Its bits, xor the key times a constant,
    are multiplied by ``_FIBONACCI``, and the top bits of the product over
    the row index make one unsigned integer per row: one in-place sort of
    those gives both the order and the runs. The float hash, the product
    and the sorted integers share one buffer, and the index is counted out
    in the other, so the scratch is two row-length vectors."""
    d, p = x.shape
    bits, keyed = key
    # Python's generator: numpy.random loads lazily, and loading it would
    # add about 6 MiB to the resident size of a process that never samples
    rng = random.Random(0x5EED)
    coef = [rng.uniform(0.5, 1.5) for _ in range(p + 1)]
    buf = np.empty(d)
    h = np.multiply(y, coef[p], dtype=np.float64)
    for k in range(p):
        if k not in keyed:
            h += np.multiply(x[:, k], coef[k], out=buf)
    h += 0.0  # -0.0 to +0.0, so that equal rows have equal bits
    z, t = h.view(np.uint64), buf.view(np.uint64)
    if bits is not None:
        z ^= np.multiply(bits, _KEY_FACTOR, out=t)
    z *= _FIBONACCI
    # the row index in the low bits, written into t: 0, 1, ..., d - 1
    low = (d - 1).bit_length()
    mask = np.uint64((1 << low) - 1)
    t[:1] = 0
    t[1:] = 1
    np.cumsum(t, out=t)
    z &= ~mask
    z |= t
    z.sort()
    run = np.empty(d, dtype=bool)
    run[:1] = True
    # the hash bits of neighbours differ where their xor passes the mask
    np.greater(np.bitwise_xor(z[1:], z[:-1], out=t[1:]), mask, out=run[1:])
    z &= mask
    return z.view(np.intp), run


def _groups_hold(x, y, first, group, key):
    """True when every row of ``(x, y)`` with the row key ``key`` equals row
    ``first[group[r]]``, in its response, its key and each column that the
    key leaves out; the representatives of each column are gathered in row
    order into one buffer of distinct rows and one of rows."""
    bits, keyed = key
    d = len(group)
    same = np.empty(d, dtype=bool)
    if not np.equal(y[first][group], y, out=same).all():
        return False
    if bits is not None and not np.equal(bits[first][group], bits, out=same).all():
        return False
    distinct = np.empty(len(first), dtype=x.dtype)
    rows = np.empty(d, dtype=x.dtype)
    for k in range(x.shape[1]):
        if k in keyed:
            continue
        col = x[:, k]
        # indices in range: "clip" takes into ``out`` with no buffer of its own
        np.take(col, first, out=distinct, mode="clip")
        np.take(distinct, group, out=rows, mode="clip")
        if not np.equal(rows, col, out=same).all():
            return False
    return True


def _split_runs(x, y, order, run):
    """Group starts in the order ``order``: the runs ``run`` of equal
    hashes, split exactly where they hold distinct rows (a hash collision,
    or a NaN entry).

    The rows of each run that holds a row unlike its first are sorted, in
    place in ``order``, by ``np.unique`` of their run, response and columns,
    and a group starts wherever that key changes. The sort is stable, so
    the rows of each group stay in row order."""
    # each sorted row's run, as the position where the run starts
    start = np.maximum.accumulate(np.where(run, np.arange(len(order)), 0))
    lead = order[start]
    unlike = y[lead] != y[order]
    for k in range(x.shape[1]):
        unlike |= x[lead, k] != x[order, k]
    at = np.flatnonzero(np.isin(start, start[unlike]))
    rows = order[at]
    # the run leads each row's key, so every run keeps its place in the order
    _, key = np.unique(
        np.column_stack([start[at], y[rows], x[rows]]), axis=0, return_inverse=True
    )
    by_key = np.argsort(key, kind="stable")
    order[at] = rows[by_key]
    new = run.copy()
    new[at] = np.diff(key[by_key], prepend=-1) != 0
    return new


def _label_groups(order, new):
    """``(first, group)`` of the groups that start at the flags ``new`` of
    the rows in the order ``order``, whose rows are in row order within
    each group: ``first`` is the least row index of each group, and groups
    are labelled in the row order of their firsts."""
    d = len(order)
    lead = order[np.flatnonzero(new)]
    is_first = np.zeros(d, dtype=bool)
    is_first[lead] = True
    first = np.flatnonzero(is_first)
    del is_first
    # each first's label, written at its row and read at the group starts
    group = np.empty(d, dtype=np.intp)
    group[first] = np.arange(len(first))
    label = group[lead]
    del lead
    # each sorted row's group, counted from the group starts and relabelled,
    # in place: a cumsum that casts the flags would copy them first
    sorted_label = new.astype(np.intp)
    np.cumsum(sorted_label, out=sorted_label)
    sorted_label -= 1
    np.take(label, sorted_label, out=sorted_label, mode="clip")
    group[order] = sorted_label
    return first, group


def _logistic(eta, out=None):
    """The logistic function ``mu = 1 / (1 + exp(-eta))`` and
    ``log(1 + exp(eta))`` at ``eta``, both from one ``exp(-|eta|)`` and
    overflow-free at any eta; written into the pair of arrays ``out`` when
    given."""
    mu, log1pexp = (np.empty_like(eta), np.empty_like(eta)) if out is None else out
    # exp of -|eta| never overflows; below about -745 it underflows to 0,
    # which is the right limit, so that flag is not an error here. It is
    # held in log1pexp until log1p overwrites it there.
    e = np.abs(eta, out=log1pexp)
    np.negative(e, out=e)
    with np.errstate(under="ignore"):
        np.exp(e, out=e)
    d = 1.0 + e
    # mu = where(eta >= 0, 1, e) / (1 + e)
    np.copyto(mu, e)
    np.copyto(mu, 1.0, where=eta >= 0)
    mu /= d
    np.log1p(e, out=log1pexp)
    log1pexp += np.maximum(eta, 0.0, out=d)
    return mu, log1pexp


def _two_sided_p(theta, se):
    """Two-sided normal p-values of theta / se: 0 at |z| = inf, NaN for NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(theta / se)
    return np.array([math.erfc(v / math.sqrt(2.0)) for v in z])


# Rows per block of the rank check and of each Newton pass: a block
# of a 22-term design is about 1.4 MiB, so no step copies the whole design.
_BLOCK_ROWS = 8192

# The weight of every row of an unweighted fit, read through a zero stride
_ONE = np.ones(1)
_ONE.setflags(write=False)


def _row_blocks(d):
    """Slices that cover rows ``0..d-1`` in blocks of ``_BLOCK_ROWS``."""
    return [slice(lo, min(lo + _BLOCK_ROWS, d)) for lo in range(0, d, _BLOCK_ROWS)]


def _blocks(a):
    """``a`` cut into a list of views of ``_BLOCK_ROWS`` rows."""
    return [a[rows] for rows in _row_blocks(len(a))]


def _zero_one(col, hi, lo):
    """Whether the column ``col``, whose largest and least entries are
    ``hi`` and ``lo``, is a 0/1 column: every entry exactly 0.0 or 1.0 and
    some of them 1.0."""
    # between 0 and 1, a column is 0/1 when its nonzero entries are its ones
    return hi == 1.0 and lo >= 0.0 and np.count_nonzero(col) == np.count_nonzero(col == 1.0)


def _scan(x, rows, known=None, key=_NO_KEY):
    """The column scan of the rows ``rows`` of ``x`` (None for all):
    ``(hi, lo, cols, ids, patterns)``.

    ``hi`` and ``lo`` hold each column's largest and least entry (NaN when
    it holds a NaN). ``key`` is the row key of these rows (its bits taken
    at ``rows``), whose columns are read from its bits alone; with the
    empty key, each 0/1 column (``_zero_one``) becomes the next bit of a
    key by value as it is read (``terms._add_key_bit``). ``cols`` lists the
    keyed columns that hold a 1 on these rows. A row's key is its code: the
    rows are sorted by it, ``patterns`` holds each distinct code once, as a
    column-major float64 row of its bits at ``cols``, and ``ids[r]``, of
    the least unsigned type that holds them, is the pattern of row r. A
    keyed column with no 1 is a zero bit of every code, which moves no row.

    ``known`` may give the ``(cols, ids, patterns)`` of these rows from an
    earlier scan of rows that hold them (``_held``). Its columns are then
    read from its patterns alone, and its ids and patterns are returned
    when each of them holds a 1 on these rows; otherwise (a zero weight can
    empty one) the rows are keyed afresh, by value.
    """
    known_cols = [] if known is None else known[0]
    bits, keyed = key
    if bits is not None:
        # the bits set on some row, and on every row
        some, every = (int(f.reduce(bits)) for f in (np.bitwise_or, np.bitwise_and))
    hi, lo = [], []
    for k in range(x.shape[1]):
        if k in known_cols:
            # a column of the patterns, which hold only 0.0 and 1.0
            col = known[2][:, known_cols.index(k)]
            top, least = float(col.max()), float(col.min())
        elif k in keyed:
            bit = keyed.index(k)
            top, least = float(some >> bit & 1), float(every >> bit & 1)
        else:
            col = x[:, k] if rows is None else x[:, k].take(rows)
            top, least = float(np.maximum.reduce(col)), float(np.minimum.reduce(col))
            if known is None and bits is None and _zero_one(col, top, least):
                key = _add_key_bit(key, col == 1.0, k)
        hi.append(top)
        lo.append(least)
        col = None
    if known is not None:
        if [k for k in known_cols if hi[k] == 1.0] != known_cols:
            return _scan(x, rows)
        return np.array(hi), np.array(lo), known_cols, known[1], known[2]
    code, keyed = key
    cols = [k for k in keyed if hi[k] == 1.0]
    n = len(x) if rows is None else len(rows)
    if code is None:  # the empty key's bits: one pattern, of no column
        code = np.zeros(n, dtype=np.uint8)
    order = np.argsort(code)
    code = code[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(code[1:], code[:-1], out=new[1:])
    code = code[new]
    ids = np.empty(n, dtype=np.min_scalar_type(len(code) - 1))
    # each sorted row's pattern, 0 at the first: a count of the code changes
    label = np.zeros(n, dtype=ids.dtype)
    np.cumsum(new[1:], dtype=ids.dtype, out=label[1:])
    ids[order] = label
    shifts = np.array([keyed.index(k) for k in cols], dtype=code.dtype)
    # column-major, as the information's products read it
    patterns = np.asfortranarray((code[:, None] >> shifts) & 1, dtype=np.float64)
    return np.array(hi), np.array(lo), cols, ids, patterns


def _held(known, pick):
    """The ``(cols, ids, patterns)`` of ``_scan`` for the rows at the
    positions ``pick`` among the rows that ``known`` labels: only the
    patterns they hold, labelled again in key order, so that it equals a
    scan of those rows."""
    cols, ids, patterns = known
    ids = ids[pick]
    seen = np.bincount(ids, minlength=len(patterns)) > 0
    label = np.zeros(len(patterns), dtype=ids.dtype)
    label[seen] = np.arange(np.count_nonzero(seen))
    return cols, label[ids], np.asfortranarray(patterns[seen])


class _Rows(NamedTuple):
    """The rows that one fit reads, as one list of ``_BLOCK_ROWS``-row
    blocks, with its kept columns split into 0/1 columns and the others.

    Newton runs in the column order ``order`` (positions among the kept
    columns, in design order): the 0/1 columns first, then the others, each
    in design order. ``patterns`` holds each distinct row of the 0/1 columns
    once, and ``ids`` the pattern of every fitted row, block by block. ``xs``
    holds the other columns: views of the design, whose columns ``rest`` are
    the others, where the fit reads the design in place, and otherwise
    copies of the others alone gathered into column-major blocks. ``ys`` and
    ``ws`` are the responses (as float64) and weights.
    """

    order: np.ndarray
    patterns: np.ndarray
    ids: list
    xs: list
    rest: np.ndarray
    ys: list
    ws: list


def _fit_rows(design, w, pick):
    """``(rows, hi, lo)``: the ``_Rows`` that a fit of ``design`` reads and
    the largest and least entry of each design column on them.

    A fit starts from the design's rows, or from its distinct rows when it
    has ``row_groups``; ``w`` holds their weights, and ``pick`` the
    positions of the rows it fits among them, None for all.

    On a design with ``row_patterns``, a fit of every row it starts from
    reads their scan from there, and a fit of some of them reads their ids
    and scans only the other columns, unless a pattern column holds no 1
    on its rows (a zero weight can empty one); every other fit keys, scans
    and labels its own rows by value. The rows are read in place
    when the fit reads every row of a design without ``row_groups``;
    otherwise the other columns alone are gathered.
    """
    x = np.asarray(design.matrix, dtype=np.float64)
    y = np.asarray(design.response)
    base = None if design.row_groups is None else design.row_groups[0]
    rows = base if pick is None else pick if base is None else base[pick]
    scan = design.row_patterns
    if pick is not None:
        w = w[pick]
    n = len(w)
    if scan is None:
        scan = _scan(x, rows)
    elif pick is not None:
        scan = _scan(x, rows, _held(scan[2:], pick))
    hi, lo, cols, ids, patterns = scan
    del scan

    # a column of NaN or nonzero extremes is kept
    kept = [k for k, m in enumerate(np.maximum(hi, -lo).tolist()) if m != 0.0]
    ones = set(cols)
    other = [k for k in kept if k not in ones]
    if rows is None:
        # views of the whole rows, whose columns ``rest`` are the others
        xs, rest = _blocks(np.asfortranarray(x)), np.array(other, dtype=np.intp)
        ys = _blocks(y.astype(np.float64, copy=False))
    else:
        xs = [_take_rows(x, rows[block], other) for block in _row_blocks(n)]
        rest = np.arange(len(other))
        ys = [y[rows[block]].astype(np.float64) for block in _row_blocks(n)]
    place = {k: j for j, k in enumerate(kept)}
    order = np.array([place[k] for k in cols + other], dtype=np.intp)
    fit = _Rows(order, patterns, _blocks(ids), xs, rest, ys, _blocks(w))
    return fit, hi, lo


def _take_rows(x, rows, cols=None):
    """The rows ``rows`` of the columns ``cols`` (all when None) of the
    matrix ``x`` as a new column-major float64 array, gathered one column
    at a time."""
    cols = range(x.shape[1]) if cols is None else cols
    out = np.empty((len(cols), len(rows))).T
    for j, k in enumerate(cols):
        np.take(x[:, k], rows, out=out[:, j])
    return out


def _r_factor(rows):
    """The R factor of the fitted ``rows`` (a ``_Rows``): of their kept
    columns in design order, each row scaled by the square root of its
    weight, built in one pass over the row blocks (a row-blocked "TSQR").
    Each block is written straight into the buffer that stacks it under the
    running R (its 0/1 columns from ``patterns`` at its ids, the others from
    its ``xs`` columns ``rest``), scaled and factorised again, so no copy of
    the design is made and Q is never formed. Raises
    :class:`NumericalError` where an entry is not finite.

    For the scaled rows S = QR, S[:, J] = Q R[:, J]; Householder QR's
    backward error is bounded column by column (Higham 2002, *Accuracy and
    Stability of Numerical Algorithms*, 19.3), so R's columns J stand for
    S[:, J] in ``_rank``.
    """
    b, p = rows.patterns.shape[1], len(rows.order)
    ones, other = rows.order[:b], rows.order[b:]
    r = np.empty((0, p))
    for xb, wb, ib in zip(rows.xs, rows.ws, rows.ids):
        stacked = np.empty((len(r) + len(wb), p))
        stacked[:len(r)] = r
        block = stacked[len(r):]
        block[:, ones] = rows.patterns[ib]
        block[:, other] = xb[:, rows.rest]
        block *= np.sqrt(wb)[:, None]
        r = np.linalg.qr(stacked, mode="r")
        del stacked, block  # so that they are gone before the next block
        if not np.isfinite(r).all():
            raise NumericalError("design matrix has non-finite entries")
    return r


def _rank(r, n_w):
    """Numerical rank of the scaled rows whose ``_r_factor``, or a selection
    of its columns, is ``r``, by numpy's ``matrix_rank`` rule with a row of
    weight k counted as k rows: for the total weight ``n_w``, the tolerance
    is ``max(n_w, p) * eps * s_max``.

    ``fit_logistic`` runs it only where ``_full_rank_certificate`` cannot
    show from Newton's first information that it would return p, and on
    the column selections that name the dependent columns; it alone
    rejects a design, so every rank verdict is this rule's.
    """
    s = np.linalg.svd(r, compute_uv=False)
    tol = max(n_w, r.shape[1]) * np.finfo(np.float64).eps * s[0]
    return int((s > tol).sum())


def _full_rank_certificate(info, m2, ws):
    """True only if ``_rank`` of the ``_r_factor`` of some fitted rows would
    return ``p``: a proof from the information ``info`` (p x p, in any
    column order) of an ``_evaluate_rows`` of those rows, the sum ``m2`` of
    the squared largest |entries| of their p columns, and their weights
    ``ws``. False means only that it cannot tell.

    Write S for the fitted rows scaled by the square roots of their
    weights, whose singular values ``_rank`` compares, and d for its rows.

    * ``info`` is the rounded form of ``G = x.T @ (v * x)`` with
      ``v = w * mu * (1 - mu)``; as ``mu * (1 - mu) <= 1/4``, the computed v
      are at most ``w / 4 * (1 + eps)``, so the exact G of those v satisfies
      ``sigma_p(S)**2 >= 4 * lambda_min(G) / (1 + eps)``.
    * Each entry of G is a sum of the d terms ``v x_j x_k``. ``info`` adds
      them over the rows of each block (for a 0/1 column j, per pattern, by
      ``np.bincount``), then over the blocks, and for a 0/1 column once
      more over the patterns, which number at most d. The rows of a block
      and the blocks together number at most d + 1, and the scalings by
      ``sqrt(v)`` (or by the root of a pattern's sum of v) and the
      products add at most four roundings, so each term passes through at
      most ``2 d + 3 p`` of them (a cross entry needs p >= 2) and each
      entry is off by at most ``gamma(2 d + 3 p)`` times its sum of
      |terms|. Those sums form the PSD matrix ``|x|.T @ (v * |x|)``, of norm
      at most its trace, which is G's; so the error has norm at most
      ``2 (2 d + 3 p) eps trace``.
    * G is positive semi-definite, so ``lambda_min(G) = sigma_min(G)``,
      which is at least the computed ``sigma_min(info)`` less that
      rounding, the error of the p x p SVD (a multiple of
      ``p eps sigma_max``) and an allowance for underflow. A permutation
      of the columns changes no singular value.
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
    err = 2 * (2 * d + 3 * p) * eps * scale
    err += 4 * p * d * (1 + m2) * (1 + w_max) * tiny * eps
    low = math.sqrt(max(4 * (float(sv[-1]) - err) / (1 + eps), 0.0))
    s1 = math.sqrt(n_w * m2) * (1 + (d + 4) * eps)
    slack = 10 * (d + (len(ws) + 1) * p) * p * eps * s1 + d * p * tiny
    tol = max(n_w, p) * eps * (s1 + slack) * (1 + 2 * eps)
    return low - slack > tol


def _evaluate_rows(rows, theta):
    """Log-likelihood, score and information at ``theta`` over the fitted
    ``rows`` (a ``_Rows``), in one pass over its row blocks. ``theta``, the
    score and the information are in Newton's column order, 0/1 columns
    first.

    With ``eta = x @ theta``, ``mu`` its logistic and
    ``v = w * mu * (1 - mu)``, these are the weighted sum of
    ``y*eta - log(1 + exp(eta))``, the score ``x.T @ (w * (y - mu))`` and
    the information ``x.T @ (v * x)``. The 0/1 columns enter through their
    patterns alone. A row's eta adds its pattern's ``patterns @ theta_01``,
    read at its id. Their score and information come from sums per pattern
    (``np.bincount`` by id) of ``w * (y - mu)``, of ``v`` and of ``v`` times
    each other column, which each block adds. So the 0/1 block costs
    patterns x b**2 and the cross block rows x (p - b), not rows x p**2.

    The information's diagonal blocks are ``a.T @ a``, products of a matrix
    with its own transpose that BLAS forms at half the cost and exactly
    symmetric: over the rows, ``a`` the other columns scaled by ``sqrt(v)``,
    and over the patterns, ``a`` the patterns scaled by the square roots of
    their sums of ``v``. The cross block is formed once and mirrored. Each
    block copies its other columns once, so no temporary as large as the
    design is made.
    """
    patterns = rows.patterns
    m, b = patterns.shape
    p = len(theta)
    k = p - b + 2
    theta_r = theta[b:]
    eta01 = patterns @ theta[:b]
    ll, score, info = 0.0, np.zeros(p), np.zeros((p, p))
    # per pattern: the sums of w * (y - mu), of v and of v times each other column
    sums = np.zeros((k, m))
    for xb, yb, wb, ib in zip(rows.xs, rows.ys, rows.ws, rows.ids):
        # the other columns, copied row by row (``at`` is their transpose)
        at = xb.T[rows.rest]
        # the block's vectors, written in place
        res, v, eta, mu, log1pexp = np.empty((5, len(yb)))
        np.dot(at.T, theta_r, out=eta)
        eta += eta01[ib]
        _logistic(eta, out=(mu, log1pexp))
        np.multiply(yb, eta, out=res)
        res -= log1pexp
        ll += float(wb @ res)
        np.subtract(yb, mu, out=res)
        res *= wb
        np.subtract(1.0, mu, out=v)
        v *= mu
        v *= wb
        score[b:] += at @ res
        sqrt_v = np.sqrt(v, out=eta)
        at *= sqrt_v
        info[b:, b:] += at @ at.T
        at *= sqrt_v  # now v times the other columns
        sums += [np.bincount(ib, c, m) for c in (res, v, *at)]
        # so that no block's vectors live on into the next block
        del res, v, eta, mu, log1pexp, at, sqrt_v
    s = patterns * np.sqrt(sums[1], out=sums[1])[:, None]
    info[:b, :b] = s.T @ s
    # the 0/1 columns' score and cross block, from one product
    g = patterns.T @ sums.T
    score[:b] = g[:, 0]
    info[:b, b:] = g[:, 2:]
    info[b:, :b] = g[:, 2:].T
    return ll, score, info


def _newton(rows, theta, at_theta, tolerance, max_iterations):
    """Newton ascent with step halving from ``theta`` over the fitted
    ``rows``, where ``at_theta`` is ``_evaluate_rows`` at ``theta``.
    Returns (theta, info, ll_path, max_score, halvings, converged,
    iterations): ``max_score`` is the largest |score| at the returned theta
    and ``halvings`` counts every halved step. A theta whose score is under
    ``tolerance`` converges, the last one the cap allows included.

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
        max_score = float(np.abs(score).max())
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
        if not np.isfinite(step).all():
            break
        lam = 1.0
        for _ in range(30):
            cand = theta + lam * step
            at_cand = _evaluate_rows(rows, cand)
            if at_cand[0] >= ll - 1e-10:
                break
            lam *= 0.5
            halvings += 1
        else:  # no candidate kept the log-likelihood
            break
        theta, (ll, score, info) = cand, at_cand
        ll_path.append(ll)
    return theta, info, ll_path, max_score, halvings, converged, iterations


def _intercept_start(ys, ws, ones):
    """Where a cold Newton fit starts: the intercept-only estimate.

    ``ones`` flags the kept columns that equal 1 on every fitted row. The
    first of them starts at ``logit(sum(w * y) / sum(w))`` and every other
    coefficient at 0, the point where the score of that column is zero and
    every fitted probability is the weighted mean response. Without such a
    column, or with a response that is 0 or 1 on every fitted row, the start
    is zero."""
    start = np.zeros(len(ones))
    # tie and no-tie weight, each a sum of non-negative terms, so each is
    # positive exactly when some fitted row has that response
    tied = sum(float(np.dot(wb, yb)) for wb, yb in zip(ws, ys))
    untied = sum(float(np.dot(wb, 1.0 - yb)) for wb, yb in zip(ws, ys))
    if ones.any() and 0.0 < tied < math.inf and 0.0 < untied < math.inf:
        start[np.argmax(ones)] = math.log(tied) - math.log(untied)
    return start


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

    A design on which a builder recorded ``row_groups`` is fitted on its
    distinct rows, each weighted by the total weight of the rows it
    stands for, so it fits and ranks as its rows do; the estimates agree
    with the row-by-row fit to rounding. The rows that the fit reads (all
    of them, the positive-weight ones, or the distinct ones) are one list
    of row blocks, views of the design or gathered copies of its columns
    that are not 0/1, which each Newton step walks once; the keyed columns
    that hold a 1 on those rows enter through one pattern id per row
    (``_fit_rows``), and Newton runs with them first, in a column order
    that is undone once at the end. The rank check reads the information of
    the first of those walks, and only when that cannot certify full rank
    does it walk the same rows once more, into one R factor that gives both
    the rank and the dependent columns.

    ``max_iterations`` must be an integer >= 0 and ``tolerance`` finite and
    >= 0, or :class:`ConfigError` is raised.

    Newton starts at the intercept-only estimate when the design has a
    column of ones on the fitted rows and both responses among them, and at
    zero otherwise. Private: ``_start`` (aligned with ``term_names``) is
    where Newton starts instead.
    """
    max_iterations = _integer("max_iterations", max_iterations, 0)
    finite = isinstance(tolerance, numbers.Real) and math.isfinite(tolerance)
    if not (finite and tolerance >= 0):
        raise ConfigError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    d, p_all = design.matrix.shape
    if weights is None:
        # a read-only broadcast of 1.0 holds no d-vector of ones, and every
        # row is on
        w, on = np.ndarray((d,), buffer=_ONE, strides=(0,)), None
        n_obs = float(d)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (d,):
            raise DimensionError(f"weights have shape {w.shape}, design has {d} rows")
        if not (np.isfinite(w) & (w >= 0.0)).all():
            raise ValidationError("weights must be finite and non-negative")
        on = w > 0.0
        n_obs = float(w.sum())
    if not (d if on is None else on.any()):
        raise EmptyDesignError("no rows of positive weight to fit")
    # the fit starts from the design's rows, or its distinct rows when it
    # is grouped, and reads those of positive weight
    pick = None
    if design.row_groups is not None:
        first, group = design.row_groups
        # unweighted counts need no row-length copy of the broadcast weights
        w = np.bincount(group, None if weights is None else w, len(first))
        w = w.astype(np.float64, copy=False)
        on = w > 0.0
    if on is not None and not on.all():
        pick = np.flatnonzero(on)
    rows, hi, lo = _fit_rows(design, w, pick)
    names = design.term_names

    colmax = np.maximum(hi, -lo)
    zero_cols = colmax == 0.0
    if zero_cols.all():
        raise RankDeficiencyError("every design column is identically zero")
    dropped = tuple(n for n, z in zip(names, zero_cols) if z)
    if dropped:
        warnings.warn(
            f"dropping all-zero column(s): {', '.join(dropped)}", stacklevel=2
        )
    keep = ~zero_cols
    kept_names = [n for n, k in zip(names, keep) if k]
    p = int(keep.sum())

    if _start is None:
        start = _intercept_start(rows.ys, rows.ws, ((hi == 1.0) & (lo == 1.0))[keep])
    else:
        start = np.asarray(_start, np.float64)[keep]
    start = start[rows.order]  # Newton's order, 0/1 columns first
    # Newton's first evaluation doubles as the rank check's input. Where
    # sum(w) * m2 bounds no sum (a non-finite or overflowing entry), the QR
    # checks first, so that it raises before any evaluation warns.
    m2 = math.fsum(m * m for m in colmax[keep].tolist())
    ws = rows.ws
    n_w = sum(float(wb.sum()) for wb in ws)
    at_start = None
    if math.isfinite(n_w * m2):
        at_start = _evaluate_rows(rows, start)
    if at_start is None or not _full_rank_certificate(at_start[2], m2, ws):
        r = _r_factor(rows)
        rank = _rank(r, n_w)
        if rank < p:
            # identify a maximal independent prefix; the rest are dependent
            culprits = []
            basis = []
            for k in range(p):
                if _rank(r[:, basis + [k]], n_w) > len(basis):
                    basis.append(k)
                else:
                    culprits.append(kept_names[k])
            raise RankDeficiencyError(
                f"design is rank deficient ({rank}/{p}); dependent columns: "
                + ", ".join(culprits)
            )
        if at_start is None:
            at_start = _evaluate_rows(rows, start)

    ys = rows.ys
    boundary = min(yb.min() for yb in ys) == max(yb.max() for yb in ys)
    if boundary:
        warnings.warn(
            "response is constant; the pseudolikelihood maximum lies on the "
            "boundary and coefficients will be flagged",
            stacklevel=2,
        )

    theta, info, ll_path, max_score, halvings, converged, iterations = _newton(
        rows, start, at_start, tolerance, max_iterations
    )
    # back to design order, once
    back = np.argsort(rows.order)
    theta, info = theta[back], info[back][:, back]
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
    cov_out[kept_idx[:, None], kept_idx] = cov
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
    **options,
) -> FitResult:
    """Build the dyadic design for ``g`` and fit it in one call."""
    return fit_logistic(build_design(g, attrs, spec), **options)
