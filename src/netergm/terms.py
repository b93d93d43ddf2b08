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
statistic with the dyad present minus with it absent, in closed form, read
at a design's dyads by ``_change_stat_columns`` (an all-dyad form that is a
bool, as ``edges``', ``mutual``'s and ``nodematch``'s are, also gives one
bit of the design's row key); the incremental form is one
dyad's change as a short Python source snippet, which the sampler inlines
into the one step function it compiles for a model. The snippet reads the
chain's neighbour sets and two-path counts and walks only the endpoints'
neighbours. gwesp and gwdsp, whose snippets walk those neighbours, also give
an interval read from set sizes alone that holds their change, so the
sampler can decide most proposals without the walk. Tests check the forms
agree.

Cost and sparsity. Two-path counts and the all-dyad forms of gwesp and
gwdsp come from the edge list, not from dense matrix products: the counts
join the out-edge list to itself on the middle node, and each shared-partner
column is a sum over the walks i -> m <- j and i <- m -> j through the
tie's co-senders and co-receivers (for gwdsp only through the dyads that a
two-path joins; the rest of its weight is a degree count). The work is
O(n^2 + sum over m of deg(m)^2) instead of O(n^3), the n^2 being the output
matrices, so it follows the ties on the sparse discussion networks this
package models: on an 800-node graph of density 0.75% there are 28,312
two-paths, where a dense product does 5e8 multiply-adds. On a dense graph the
walks number up to n^3 and are taken a block of rows at a time, so memory
stays O(n^2). Each dyad's sum is taken in a canonical order, so dyads with
equal shared-partner profiles get bit-equal change statistics whatever the
node labels.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionError, UnknownAttributeError
from .graph import DirectedGraph, _row_lists, _walk_blocks, _walks, two_path_counts

__all__ = [
    "TermSpec",
    "ModelSpec",
    "parse_term",
    "parse_terms",
    "split_term_list",
    "global_stats",
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
        """Canonical display name."""
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
        # a level resolves case-insensitively (NodeTable.level_code)
        keys = [replace(t, level=t.level and t.level.lower()) for t in self.terms]
        dupes = sorted({t.name for t, key in zip(self.terms, keys) if keys.count(key) > 1})
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


def _match_codes(attrs, term, n: int) -> np.ndarray:
    """Node codes of a nodematch term: i -> j, i != j, matches exactly when
    ``code[i] == code[j]``. Uniform: the level codes. With a level: -1 at the
    nodes that hold it and each other node's own index."""
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
        return codes
    lc = attrs.level_code(term.attribute, term.level)
    return np.where(codes == lc, -1, np.arange(n))


def _nodematch_stat(t, s):
    c, ties = _match_codes(s.attrs, t, s.n), s.g._out_lists
    return (c[ties.rows] == c[ties.cols]).sum()


class _Shared:
    """One graph's arrays that several terms reuse, built once per call."""

    def __init__(self, g: DirectedGraph, attrs, spec: ModelSpec):
        self.g, self.attrs, self.n, self.A = g, attrs, g.node_count, g.adjacency
        # two-path counts: P[i, j] is the number of m with i -> m -> j
        paths = any(_rule(t).paths for t in spec.terms)
        self.P = two_path_counts(g) if paths else None

    @cached_property
    def linked(self):
        """The dyads i -> m, i != m, that at least one two-path joins."""
        linked = self.P > 0
        np.fill_diagonal(linked, False)
        return _row_lists(linked)


def global_stats(g: DirectedGraph, attrs, spec: ModelSpec) -> np.ndarray:
    """Vector of sufficient statistics for ``spec`` on graph ``g``."""
    s = _Shared(g, attrs, spec)
    return np.array([_rule(t).stat(t, s) for t in spec.terms], dtype=np.float64)


def _change_stat_columns(g: DirectedGraph, attrs, spec: ModelSpec, dyads):
    """``(matrix, key)``: the change statistics at the design's dyads, shape
    ``(rows, n_terms)``, and the row key of its bool-built columns.

    ``dyads`` is an ``(n, n)`` boolean mask, whose dyads come in row-major
    order. Each term's all-dyad form is read through that one mask straight
    into its column of a column-major matrix, so no ``(n_terms, n, n)`` cube
    is held. A column whose all-dyad form is a bool (``edges``, ``mutual``
    and every ``nodematch``) also becomes the next bit of the key
    (``_add_key_bit``), so ``edges`` is bit 0 when it leads the model.
    """
    s = _Shared(g, attrs, spec)
    shape = (s.n, s.n)
    out = np.empty((len(spec.terms), np.count_nonzero(dyads))).T
    key = _NO_KEY
    for k, term in enumerate(spec.terms):
        col = np.broadcast_to(_rule(term).matrix(term, s), shape)[dyads]
        out[:, k] = col
        if col.dtype == bool:
            key = _add_key_bit(key, col, k)
        del col  # so that no column lives on into the next term's matrix
    return out, key


# A row key ``(bits, cols)`` packs 0/1 design columns into one unsigned
# integer per row: bit b of ``bits[r]`` is row r's entry in column
# ``cols[b]``. The empty key names no column and holds no bits. It is the
# one code of 0/1 columns that the estimator groups and fits by.
_NO_KEY = (None, ())
_KEY_BITS = 64


def _add_key_bit(key, col, k):
    """The row key ``key`` with the bool vector ``col``, design column
    ``k``, as its next bit, or ``key`` itself when it holds ``_KEY_BITS``
    bits already. The bits are of the least unsigned type that holds them:
    they are set in place, and copied only to widen."""
    bits, cols = key
    b = len(cols)
    if b == _KEY_BITS:
        return key
    if bits is None:
        bits = np.zeros(len(col), dtype=np.uint8)
    elif b == 8 * bits.itemsize:
        bits = bits.astype(np.min_scalar_type(1 << b))
    bits |= col.view(np.uint8) * bits.dtype.type(1 << b)
    return bits, cols + (k,)


def _gwdsp_stat(t, s):
    _, wtab = _decay_tables(t.decay, s.n)
    return wtab[s.P].sum() - wtab[s.P.diagonal()].sum()


def _partner_sums(s, out, sources, table):
    """Add to the float matrix ``out``, at every dyad i -> j, the partner sum
    of one shared-partner term; returns ``out``. The diagonal takes sums too
    but holds no change statistic.

    A source is a dyad (a, b) of ``sources``. Toggling i -> j on changes by
    one the two-path count of each source (i, b) with j -> b and of each
    source (a, j) with a -> i; k is that count with i -> j off, and each
    such source adds ``table[k]``. Both kinds are walks i -> b <- j and
    i <- a -> j, so the work is the number of walks, done a block of rows at
    a time, with no n x n matrix product.

    The sum at each dyad is canonical: its terms are added one by one in
    ascending k, so it depends only on how many sources of each k the dyad
    has. Dyads with equal profiles therefore get bit-equal values, and
    relabelling the nodes permutes the result exactly.
    """
    n, inn = s.n, s.g._in_lists
    flat, tied = out.reshape(-1), s.A.reshape(-1)
    level = s.P[sources.rows, sources.cols]
    for lo, hi in _walk_blocks(n, (sources, inn), (inn, sources)):
        i1, j1, p, _ = _walks(sources, inn, lo, hi)
        i2, j2, _, q = _walks(inn, sources, lo, hi)
        dyad = np.concatenate([i1 * n + j1, i2 * n + j2])
        ks = np.concatenate([level[p], level[q]]) - tied[dyad]
        # sorted by (k, dyad); np.add.at adds repeated indices in the order
        # given, so each dyad's terms go in ascending k
        ks, dyad = np.divmod(np.sort(ks * (n * n) + dyad), n * n)
        np.add.at(flat, dyad, table[ks])
    return out


def _gwesp_matrix(t, s):
    rtab, wtab = _decay_tables(t.decay, s.n)
    # the focal tie's own weight, plus what it adds to the ties it gives a
    # new shared partner: w(k + 1) - w(k) = r**k for a tie with k of them
    return _partner_sums(s, wtab[s.P], s.g._out_lists, rtab)


def _gwdsp_matrix(t, s):
    rtab, _ = _decay_tables(t.decay, s.n)
    g = s.g
    # i -> j opens the two-paths i -> j -> m (m != i) and m -> i -> j
    # (m != j); each raises the count k of the dyad it spans, whose weight
    # gains r**k = 1 + (r**k - 1). The ones sum to the degree counts below,
    # and the rest vanish at k = 0, so only the dyads that a two-path
    # already joins are sources.
    base = np.add.outer(g.in_degrees, g.out_degrees).astype(np.float64)
    base -= 2.0 * s.A.T
    return _partner_sums(s, base, s.linked, rtab - 1.0)


# The incremental form, in the names the sampler's step binds: i -> j is
# the dyad toggled, aij is true when it is present, out[i] and inn[j] are
# the live neighbour sets, whose sizes are the degrees, and P[i][m] the
# two-path counts. A snippet is a block of statements whose last line is
# the change statistic; ``{k}`` stands for the term's position, so two terms
# of one kind keep their tables apart.
#
# gwesp and gwdsp walk neighbours, so they also give a bound: a head of
# statements, then a low and a high expression that hold the change. The
# snippet runs after the head and reads its names; the high end may read
# the low end as lo{k}. Each sum adds rtab entries, all in [0, 1], one by
# one from 0.0, and such a float sum of c entries lies in [0, c], since
# rounding is monotone and integers are exact. The gwesp change therefore
# lies between w = wtab[P[i][j]] and w plus the sizes of its two
# shared-partner sets, and the gwdsp change between 0 and the sizes of the
# two sets it walks.

# With i -> j present every count below includes it, so none drops under 0.
# Each sum runs over the shared partners in ascending order, since float
# addition is not associative and set order depends on the set's history; a
# set of one has only one order, so only sets of two or more are sorted.
_GWESP_BOUND = (
    """\
P_i = P[i]
shared1 = out[i] & out[j]
shared2 = inn[j] & inn[i]""",
    "wtab{k}[P_i[j]]",
    "lo{k} + len(shared1) + len(shared2)",
)
_GWESP_DELTA = """\
s1 = 0.0
if shared1:
    for m in sorted(shared1) if len(shared1) > 1 else shared1:
        s1 += rtab{k}[P_i[m] - aij]
s2 = 0.0
if shared2:
    for m in sorted(shared2) if len(shared2) > 1 else shared2:
        s2 += rtab{k}[P[m][j] - aij]
wtab{k}[P_i[j]] + s1 + s2"""

_GWDSP_BOUND = ("", "0.0", "len(out[j]) + len(inn[i])")
_GWDSP_DELTA = """\
P_i = P[i]
total = 0.0
for m in out[j]:
    if m != i:
        total += rtab{k}[P_i[m] - aij]
for m in inn[i]:
    if m != j:
        total += rtab{k}[P[m][j] - aij]
total"""


def _shared_partner_tables(t, attrs, n):
    rtab, wtab = _decay_tables(t.decay, n)
    return {"rtab": rtab.tolist(), "wtab": wtab.tolist()}


# stat(term, shared) and matrix(term, shared) read a _Shared; a matrix is
# anything that broadcasts to n x n. delta is the incremental form, a
# snippet as above. tables(term, attrs, n) gives the O(n) lists a snippet
# reads, by name without the {k}; bound is the (head, low, high) of an
# O(degree) delta. paths marks the terms that read two-path counts.
_Term = namedtuple(
    "_Term", "grammar stat matrix delta tables bound paths", defaults=(None, None, False)
)


_TERMS = {
    "edges": _Term(
        _NO_ARGS,
        lambda t, s: s.g.edge_count,
        lambda t, s: True,
        "1.0",
    ),
    "mutual": _Term(
        _NO_ARGS,
        lambda t, s: (s.A & s.A.T).sum() // 2,
        lambda t, s: s.A.T,
        "(i in out[j])",
    ),
    "isolates": _Term(
        _NO_ARGS,
        lambda t, s: (s.g.total_degrees == 0).sum(),
        # an endpoint is left isolated when the focal tie is its only tie
        lambda t, s: -(
            (s.g.total_degrees[:, None] == s.A).astype(np.float64)
            + (s.g.total_degrees[None, :] == s.A).astype(np.float64)
        ),
        # the degrees are Python ints, so two left-isolated endpoints add to 2
        "-((len(inn[i]) + len(out[i]) == aij) + (len(inn[j]) + len(out[j]) == aij))",
    ),
    "odegpop": _Term(
        _NO_ARGS,
        lambda t, s: (s.g.in_degrees * s.g.out_degrees).sum(),
        lambda t, s: s.g.in_degrees[:, None] + s.g.out_degrees[None, :],
        "(len(inn[i]) + len(out[j]))",
    ),
    "gwesp": _Term(
        _DECAY,
        lambda t, s: _decay_tables(t.decay, s.n)[1][s.P[s.A]].sum(),
        _gwesp_matrix,
        _GWESP_DELTA,
        _shared_partner_tables,
        _GWESP_BOUND,
        paths=True,
    ),
    "gwdsp": _Term(
        _DECAY,
        _gwdsp_stat,
        _gwdsp_matrix,
        _GWDSP_DELTA,
        _shared_partner_tables,
        _GWDSP_BOUND,
        paths=True,
    ),
    "nodematch": _Term(
        _ATTRIBUTE,
        _nodematch_stat,
        lambda t, s: (c := _match_codes(s.attrs, t, s.n))[:, None] == c[None, :],
        "(code{k}[i] == code{k}[j])",
        lambda t, attrs, n: {"code": _match_codes(attrs, t, n).tolist()},
    ),
}


def _rule(term: TermSpec) -> _Term:
    """The table entry of ``term``."""
    return _TERMS[term.kind]
