"""Model terms: grammar, global statistics, and change statistics.

A model is a sequence of terms, each mapping a directed graph (plus node
attributes) to one sufficient statistic. Supported terms:

``edges``
    Number of directed ties.
``mutual``
    Number of reciprocated pairs (each counted once).
``gwesp(decay)``
    Geometrically weighted edgewise shared partners. A shared partner of a
    tie i -> j is a node m with i -> m -> j; a tie with k of them weighs
    ``exp(decay) * (1 - (1 - exp(-decay))**k)``.
``gwdsp(decay)``
    Same weighting summed over all ordered dyads, tied or not.
``isolates``
    Number of nodes with no ties in either direction.
``odegpop``
    Out-degree popularity: sum over ties i -> j of the out-degree of the
    receiver j. Equals sum_j outdeg(j) * indeg(j).
``nodematch(attr)``
    Ties whose endpoints share a level of ``attr`` (uniform homophily).
``nodematch(attr, level)``
    Ties whose endpoints both hold the given level (differential homophily).

Each term is one entry of the table ``_TERMS``: its argument grammar and
three forms of its statistic. The global form is the statistic of one graph
(``global_stats``); the all-dyad form is every dyad's change statistic, the
statistic with the dyad present minus with it absent, in closed form
(``change_stat_matrices``); the incremental form is one dyad's change,
bound once to the sampler's live arrays. Tests check the forms agree.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, UnknownAttributeError
from .graph import DirectedGraph

__all__ = [
    "TermSpec",
    "ModelSpec",
    "parse_term",
    "parse_terms",
    "split_term_list",
    "global_stats",
    "change_stat_matrices",
]

# argument grammars: the fields a term's arguments fill, how many of them are
# required, and how an error says so
_FIELDS = ("decay", "attribute", "level")
_NO_ARGS = ((), 0, "takes no arguments")
_DECAY = (("decay",), 1, "takes exactly one decay")
_ATTRIBUTE = (("attribute", "level"), 1, "takes 1 or 2 arguments")


@dataclass(frozen=True)
class TermSpec:
    """One model term. ``decay`` only for gwesp/gwdsp, ``attribute`` and
    optional ``level`` only for nodematch."""

    kind: str
    decay: float | None = None
    attribute: str | None = None
    level: str | None = None

    def __post_init__(self):
        k = self.kind
        if k not in _TERMS:
            raise ConfigError(f"unknown term kind {k!r}")
        fields, least, takes = _rule(self).grammar
        given = {f for f in _FIELDS if getattr(self, f) not in (None, "")}
        if not set(fields[:least]) <= given <= set(fields):
            raise ConfigError(f"term {k!r} {takes}")
        if "decay" in given and not (self.decay >= 0 and math.isfinite(self.decay)):
            raise ConfigError(f"term {k!r} decay must be finite and >= 0")

    @property
    def name(self) -> str:
        """Canonical display name, also used for duplicate detection."""
        fields, _, _ = _rule(self).grammar
        args = [f"{self.decay:g}" if f == "decay" else getattr(self, f) for f in fields]
        args = ", ".join(a for a in args if a is not None)
        return f"{self.kind}({args})" if args else self.kind


@dataclass(frozen=True)
class ModelSpec:
    """An ordered, duplicate-free collection of terms."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ConfigError("a model needs at least one term")
        names = [t.name for t in self.terms]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigError(f"duplicate terms: {dupes}")

    @property
    def names(self) -> tuple:
        return tuple(t.name for t in self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def parse_term(text: str) -> TermSpec:
    """Parse one term string like ``gwesp(0.5)`` or ``nodematch(role)``.

    Keywords are case-insensitive; attribute names keep their case. Raises
    :class:`ConfigError` with a character position on malformed input.
    """
    s = text.strip()
    if not s:
        raise ConfigError("empty term")
    open_at = s.find("(")
    if open_at < 0:
        head, args = s, []
    else:
        if not s.endswith(")"):
            raise ConfigError(
                f"term {text!r}: unbalanced parenthesis at position {len(s) - 1}"
            )
        head = s[:open_at]
        inner = s[open_at + 1 : -1]
        if inner.strip() == "":
            args = []
        else:
            args = [a.strip() for a in inner.split(",")]
            if any(a == "" for a in args):
                pos = open_at + 1 + inner.find(",")
                raise ConfigError(f"term {text!r}: empty argument at position {pos}")
    kind = head.strip().lower()
    if not kind:
        raise ConfigError(f"term {text!r}: missing keyword at position 0")
    if kind not in _TERMS:
        raise ConfigError(f"term {text!r}: unknown keyword {kind!r} at position 0")
    fields, least, takes = _TERMS[kind].grammar
    if not least <= len(args) <= len(fields):
        raise ConfigError(f"term {text!r}: {kind} {takes}")
    values = dict(zip(fields, args))
    if "decay" in values:
        try:
            values["decay"] = float(args[0])
        except ValueError:
            raise ConfigError(
                f"term {text!r}: decay {args[0]!r} is not a number"
            ) from None
    return TermSpec(kind, **values)


def split_term_list(text: str) -> list:
    """Split a comma-separated term list on commas outside parentheses."""
    parts = []
    depth = 0
    start = 0
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        elif ch == "," and depth == 0:
            parts.append(text[start:k])
            start = k + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def parse_terms(terms) -> ModelSpec:
    """Parse a comma-separated string or a sequence of term strings."""
    if isinstance(terms, str):
        items = split_term_list(terms)
        if not items:
            raise ConfigError("no terms given")
    else:
        items = list(terms)
    return ModelSpec(tuple(parse_term(t) for t in items))


def _decay_tables(decay: float, n: int):
    """Lookup tables r**k and w(k) for shared-partner counts 0..n."""
    r = 1.0 - math.exp(-decay)
    rtab = np.power(r, np.arange(n + 1, dtype=np.float64))
    wtab = math.exp(decay) * (1.0 - rtab)
    return rtab, wtab


def _match_matrix(attrs, term, n: int) -> np.ndarray:
    if attrs is None:
        raise UnknownAttributeError(
            f"term {term.name!r} needs node attributes, none supplied"
        )
    if attrs.size != n:
        raise DimensionError(
            f"node table has {attrs.size} rows, graph has {n} nodes"
        )
    codes = attrs.codes(term.attribute)
    if term.level is None:
        return codes[:, None] == codes[None, :]
    lc = attrs.level_code(term.attribute, term.level)
    both = codes == lc
    return both[:, None] & both[None, :]


class _Shared:
    """One graph's arrays that several terms reuse, built once per call."""

    def __init__(self, g: DirectedGraph, attrs, spec: ModelSpec):
        self.g, self.attrs, self.n, self.A = g, attrs, g.node_count, g.adjacency
        self.Af = self.A.astype(np.float64)
        # two-path counts: P[i, j] is the number of m with i -> m -> j
        paths = any(_rule(t).paths for t in spec.terms)
        self.P = np.linalg.matrix_power(self.A.astype(np.int64), 2) if paths else None
        self._powers = {}

    def powers(self, decay: float):
        """Decay tables, ``r**P`` and ``r**max(P - 1, 0)`` for one decay."""
        if decay not in self._powers:
            rtab, wtab = _decay_tables(decay, self.n)
            rp, rpm = rtab[self.P], rtab[np.maximum(self.P - 1, 0)]
            self._powers[decay] = rtab, wtab, rp, rpm
        return self._powers[decay]


def global_stats(g: DirectedGraph, attrs, spec: ModelSpec) -> np.ndarray:
    """Vector of sufficient statistics for ``spec`` on graph ``g``."""
    s = _Shared(g, attrs, spec)
    return np.array([_rule(t).stat(t, s) for t in spec.terms], dtype=np.float64)


def _change_stat_columns(g: DirectedGraph, attrs, spec: ModelSpec, ii, jj):
    """Change statistics at the dyads ``(ii[r], jj[r])``, shape ``(rows, n_terms)``.

    Each term's all-dyad form is read at the dyads straight into its column
    of a column-major matrix, so no ``(n_terms, n, n)`` cube is held.
    """
    out = np.empty((len(spec.terms), len(ii))).T
    s = _Shared(g, attrs, spec)
    shape = (s.n, s.n)
    for k, term in enumerate(spec.terms):
        out[:, k] = np.broadcast_to(_rule(term).matrix(term, s), shape)[ii, jj]
    return out


def change_stat_matrices(g: DirectedGraph, attrs, spec: ModelSpec) -> np.ndarray:
    """All change statistics at once, shape ``(n_terms, n, n)``.

    Entry ``[t, i, j]`` is term t's statistic with the tie i -> j present
    minus the statistic with it absent; the diagonal is zero. Closed forms
    throughout, so building a full dyadic design costs a handful of matrix
    products instead of n*(n-1) toggles.
    """
    n = g.node_count
    if n < 2:
        return np.zeros((len(spec.terms), n, n), dtype=np.float64)
    ii, jj = np.divmod(np.arange(n * n), n)
    out = _change_stat_columns(g, attrs, spec, ii, jj).T.reshape(-1, n, n)
    out[:, np.arange(n), np.arange(n)] = 0.0
    return out


def _gwdsp_stat(t, s):
    _, wtab = _decay_tables(t.decay, s.n)
    return wtab[s.P].sum() - wtab[s.P.diagonal()].sum()


def _gwesp_matrix(t, s):
    _, wtab, rp, rpm = s.powers(t.decay)
    Af = s.Af
    # closing the focal tie: weight of its own partner count, plus the focal
    # tie promoting each two-path it completes
    closed = (Af * rpm) @ Af.T + Af.T @ (Af * rpm)
    return wtab[s.P] + np.where(s.A, closed, (Af * rp) @ Af.T + Af.T @ (Af * rp))


def _gwdsp_matrix(t, s):
    rtab, _, rp, rpm = s.powers(t.decay)
    Af = s.Af
    base = np.where(s.A, rpm @ Af.T + Af.T @ rpm, rp @ Af.T + Af.T @ rp)
    # remove the y == i and x == j contributions, whose two-path counts are
    # the diagonal cycle counts corrected for mutuality
    mut = s.A & s.A.T
    cyc = s.P.diagonal()
    e1 = np.maximum(cyc[:, None] - mut, 0)
    e2 = np.maximum(cyc[None, :] - mut, 0)
    return base - Af.T * (rtab[e1] + rtab[e2])


def _gwesp_delta(t, attrs, a, indeg, outdeg, paths):
    rtab, wtab = _decay_tables(t.decay, len(a))

    def delta(i, j, aij):
        row = rtab[np.maximum(paths[i] - aij, 0)]
        col = rtab[np.maximum(paths[:, j] - aij, 0)]
        s1 = float(row[(a[i] & a[j]).astype(bool)].sum())
        s2 = float(col[(a[:, j] & a[:, i]).astype(bool)].sum())
        return float(wtab[paths[i, j]]) + s1 + s2
    return delta


def _gwdsp_delta(t, attrs, a, indeg, outdeg, paths):
    rtab, _ = _decay_tables(t.decay, len(a))

    def delta(i, j, aij):
        row = rtab[np.maximum(paths[i] - aij, 0)] * a[j]
        col = rtab[np.maximum(paths[:, j] - aij, 0)] * a[:, i]
        return float(row.sum() - row[i] + col.sum() - col[j])
    return delta


def _nodematch_delta(t, attrs, a, *_):
    m = _match_matrix(attrs, t, len(a)).astype(np.uint8)
    return lambda i, j, aij: float(m[i, j])


# stat(term, shared) and matrix(term, shared) read a _Shared; a matrix is
# anything that broadcasts to n x n. delta(term, attrs, a, indeg, outdeg, paths)
# binds to a chain's live arrays and returns f(i, j, a[i, j]). paths marks the
# terms that read two-path counts.
_Term = namedtuple("_Term", "grammar stat matrix delta paths", defaults=(False,))


_TERMS = {
    "edges": _Term(
        _NO_ARGS,
        lambda t, s: s.g.edge_count,
        lambda t, s: 1.0,
        lambda t, *_: lambda i, j, aij: 1.0,
    ),
    "mutual": _Term(
        _NO_ARGS,
        lambda t, s: (s.A & s.A.T).sum() // 2,
        lambda t, s: s.Af.T,
        lambda t, attrs, a, *_: lambda i, j, aij: float(a[j, i]),
    ),
    "isolates": _Term(
        _NO_ARGS,
        lambda t, s: (s.g.total_degrees == 0).sum(),
        # an endpoint is left isolated when the focal tie is its only tie
        lambda t, s: -(
            (s.g.total_degrees[:, None] == s.A).astype(np.float64)
            + (s.g.total_degrees[None, :] == s.A).astype(np.float64)
        ),
        # int() first: numpy bools saturate instead of adding to 2
        lambda t, attrs, a, indeg, outdeg, paths: lambda i, j, aij: -float(
            int(indeg[i] + outdeg[i] == aij) + int(indeg[j] + outdeg[j] == aij)
        ),
    ),
    "odegpop": _Term(
        _NO_ARGS,
        lambda t, s: (s.g.in_degrees * s.g.out_degrees).sum(),
        lambda t, s: s.g.in_degrees[:, None] + s.g.out_degrees[None, :],
        lambda t, attrs, a, indeg, outdeg, paths: (
            lambda i, j, aij: float(indeg[i] + outdeg[j])
        ),
    ),
    "gwesp": _Term(
        _DECAY,
        lambda t, s: _decay_tables(t.decay, s.n)[1][s.P[s.A]].sum(),
        _gwesp_matrix,
        _gwesp_delta,
        paths=True,
    ),
    "gwdsp": _Term(_DECAY, _gwdsp_stat, _gwdsp_matrix, _gwdsp_delta, paths=True),
    "nodematch": _Term(
        _ATTRIBUTE,
        lambda t, s: (s.A & _match_matrix(s.attrs, t, s.n)).sum(),
        lambda t, s: _match_matrix(s.attrs, t, s.n),
        _nodematch_delta,
    ),
}


def _rule(term: TermSpec) -> _Term:
    """The table entry of ``term``."""
    return _TERMS[term.kind]
