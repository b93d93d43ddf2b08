"""Immutable directed graphs and node-subset selection.

The graph type is deliberately small: a node count plus a frozen edge set,
with a cached dense boolean adjacency matrix and cached neighbour lists for
the numerical layers. Weak and strong components both come from one routine,
``_components``, which ``largest_component`` reads.
Graphs here are simple (no loops, no parallel edges) and node identity is a
plain integer index; mapping external ids to indices is the ingest layer's
job.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    GraphIndexError,
    InvalidDyadError,
    ValidationError,
    _integer,
    _one_of,
)

__all__ = [
    "DirectedGraph",
    "NodeSubset",
    "build_graph",
    "largest_component",
    "activity_subset",
    "induced_subgraph",
    "two_path_counts",
]


COMPONENT_MODES = ("weak", "strong")


@dataclass(frozen=True)
class DirectedGraph:
    """A simple directed graph on nodes ``0..node_count-1``.

    Parameters
    ----------
    node_count : int
        Number of nodes. May be zero for the degenerate empty graph that
        falls out of filtering every event away.
    edges : frozenset of (int, int)
        Ordered pairs (sender, receiver), loop-free, indices in range.
    """

    node_count: int
    edges: frozenset

    def __post_init__(self):
        if self.node_count < 0:
            raise GraphIndexError(f"node_count must be >= 0, got {self.node_count}")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        for i, j in self.edges:
            if i == j:
                raise InvalidDyadError(f"loop edge ({i}, {j}) is not allowed")
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise GraphIndexError(
                    f"edge ({i}, {j}) outside node range 0..{self.node_count - 1}"
                )

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense boolean adjacency matrix; ``adjacency[i, j]`` is tie i -> j."""
        a = np.zeros((self.node_count, self.node_count), dtype=bool)
        if self.edges:
            idx = np.array(sorted(self.edges), dtype=np.int64)
            a[idx[:, 0], idx[:, 1]] = True
        a.setflags(write=False)
        return a

    @classmethod
    def from_adjacency(cls, a: np.ndarray) -> "DirectedGraph":
        a = np.asarray(a, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"adjacency must be square, got shape {a.shape}")
        ii, jj = np.nonzero(a)
        keep = ii != jj
        return cls(a.shape[0], frozenset(zip(ii[keep].tolist(), jj[keep].tolist())))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    @cached_property
    def _out_lists(self) -> "_Lists":
        """Out-lists of the ties, read-only: row i lists each m with i -> m."""
        return _row_lists(self.adjacency)

    @cached_property
    def _in_lists(self) -> "_Lists":
        """In-lists of the ties, read-only: row m lists each i with i -> m."""
        return _row_lists(self.adjacency.T)

    @cached_property
    def out_degrees(self) -> np.ndarray:
        d = self.adjacency.sum(axis=1).astype(np.int64)
        d.setflags(write=False)
        return d

    @cached_property
    def in_degrees(self) -> np.ndarray:
        d = self.adjacency.sum(axis=0).astype(np.int64)
        d.setflags(write=False)
        return d

    @cached_property
    def total_degrees(self) -> np.ndarray:
        d = self.out_degrees + self.in_degrees
        d.setflags(write=False)
        return d

    def with_dyad(self, i: int, j: int, present: bool) -> "DirectedGraph":
        """Copy of this graph with tie (i, j) forced present or absent."""
        if i == j:
            raise InvalidDyadError(f"dyad ({i}, {j}) is a loop")
        if not (0 <= i < self.node_count and 0 <= j < self.node_count):
            raise GraphIndexError(f"dyad ({i}, {j}) outside node range")
        if present:
            return DirectedGraph(self.node_count, self.edges | {(i, j)})
        return DirectedGraph(self.node_count, self.edges - {(i, j)})


@dataclass(frozen=True)
class NodeSubset:
    """A selection of nodes from a parent graph, kept in ascending order."""

    parent_size: int
    members: tuple

    def __post_init__(self):
        m = tuple(self.members)
        object.__setattr__(self, "members", m)
        if any(not (0 <= v < self.parent_size) for v in m):
            raise GraphIndexError("subset member outside parent node range")
        if len(set(m)) != len(m):
            raise ValidationError("subset members must be unique")
        if list(m) != sorted(m):
            raise ValidationError("subset members must be sorted ascending")

    @cached_property
    def index_map(self) -> dict:
        """Parent index -> position in the subset (a bijection onto 0..k-1)."""
        return {old: new for new, old in enumerate(self.members)}

    def __len__(self) -> int:
        return len(self.members)


class _Lists(NamedTuple):
    """The rows of a boolean matrix as neighbour lists: entry e says that
    row ``rows[e]`` holds column ``cols[e]``, entries run in row-major order,
    and row v's entries are ``starts[v]:starts[v + 1]``."""

    starts: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def _row_lists(a: np.ndarray) -> _Lists:
    """Neighbour lists of the rows of the square boolean matrix ``a``, as
    read-only arrays."""
    rows, cols = np.nonzero(a)
    starts = np.searchsorted(rows, np.arange(len(a) + 1))
    for x in (starts, rows, cols):
        x.setflags(write=False)
    return _Lists(starts, rows, cols)


def _expand(starts: np.ndarray, v: np.ndarray, deg: np.ndarray | None = None):
    """Every entry of the lists of the rows ``v``, as ``(origin, pos)``: the
    list of row ``v[origin[k]]`` holds entry ``pos[k]``. ``deg``, the
    lengths of those lists, is taken from ``starts`` unless given."""
    if deg is None:
        deg = starts[v + 1] - starts[v]
    origin = np.repeat(np.arange(len(v)), deg)
    pos = np.arange(len(origin)) + np.repeat(starts[v] - np.cumsum(deg) + deg, deg)
    return origin, pos


def _walks(first: _Lists, second: _Lists, lo: int, hi: int):
    """Every walk i -> m -> j with ``lo <= i < hi`` whose first step is an
    entry of ``first`` and whose second is an entry of ``second``, as
    ``(i, j, p, q)``: p is the position of the first step in ``first`` and q
    that of the second in ``second``."""
    start, stop = first.starts[lo], first.starts[hi]
    origin, q = _expand(second.starts, first.cols[start:stop])
    p = origin + start
    return first.rows[p], second.cols[q], p, q


# Walks expanded at once: a block of rows holds at most this many, unless one
# row alone has more, so the scratch arrays stay a few tens of MiB on dense
# graphs too, and under the design's own size at the paper's scale
_WALK_BLOCK = 1 << 18


def _walk_blocks(n: int, *steps):
    """Consecutive row ranges ``(lo, hi)`` covering rows ``0..n-1``. Each
    ``(first, second)`` pair in ``steps`` names one kind of walk; a range
    holds at most ``_WALK_BLOCK`` walks of all kinds together, unless a
    single row alone has more."""
    upto = np.zeros(n + 1, dtype=np.int64)
    for first, second in steps:
        # walks from rows before v: every first step adds the second-step
        # degree of its middle node
        w = np.zeros(len(first.cols) + 1, dtype=np.int64)
        np.cumsum(np.diff(second.starts)[first.cols], out=w[1:])
        upto += w[first.starts]
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(upto, upto[lo] + _WALK_BLOCK, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def two_path_counts(g: DirectedGraph) -> np.ndarray:
    """Two-path counts as an int64 matrix: entry ``[i, j]`` is the number of
    nodes m with i -> m -> j, and the diagonal counts two-cycles.

    The counts come from the edge list: every tie i -> m is joined to the
    out-list of m, and the walks i -> m -> j are counted with
    ``np.bincount``, a block of rows at a time. The work is
    O(n^2 + sum over m of indeg(m) * outdeg(m)), the n^2 being the zeroed
    result, so on a sparse graph it is far below the n^3 of a dense matrix
    product: at n = 800 and density 0.75%, 28,312 two-paths against 5e8
    multiply-adds. The counts are exact integers. Nothing is cached on the
    graph: each call walks the edges again.
    """
    n = g.node_count
    out = g._out_lists
    counts = np.zeros((n, n), dtype=np.int64)
    for lo, hi in _walk_blocks(n, (out, out)):
        i, j, _, _ = _walks(out, out, lo, hi)
        counts[lo:hi] = np.bincount(
            (i - lo) * n + j, minlength=(hi - lo) * n
        ).reshape(hi - lo, n)
    return counts


def build_graph(node_count: int, pairs: Iterable) -> DirectedGraph:
    """Build a simple directed graph, dropping loops and duplicate pairs.

    Parameters
    ----------
    node_count : int
        Positive number of nodes.
    pairs : iterable of (int, int)
        Candidate edges; out-of-range indices raise, loops and repeats are
        dropped with a counted warning.
    """
    if node_count < 1:
        raise GraphIndexError(f"node_count must be >= 1, got {node_count}")
    seen = set()
    loops = 0
    dupes = 0
    for pair in pairs:
        i, j = pair
        if not (0 <= i < node_count and 0 <= j < node_count):
            raise GraphIndexError(
                f"pair ({i}, {j}) outside node range 0..{node_count - 1}"
            )
        if i == j:
            loops += 1
            continue
        if (i, j) in seen:
            dupes += 1
            continue
        seen.add((i, j))
    if loops:
        warnings.warn(f"dropped {loops} self-loop pair(s)", stacklevel=2)
    if dupes:
        warnings.warn(f"collapsed {dupes} duplicate pair(s)", stacklevel=2)
    return DirectedGraph(node_count, frozenset(seen))


def _components(g: DirectedGraph, mode: str) -> list:
    """The weak or strong components of ``g``, each a list of nodes.

    Kosaraju's two passes (Sharir 1981) over adjacency lists built once from
    ``g.edges``: a depth-first search along the out-lists lists the nodes in
    the order they finish, then, latest-finished first, each node not yet
    assigned collects what it reaches along the in-lists. A weak component
    is a strong component of the graph with every tie taken both ways, so
    the weak mode puts every tie into one list in both directions and reads
    it as the out- and the in-lists.
    """
    n = g.node_count
    out = [[] for _ in range(n)]
    inn = out if mode == "weak" else [[] for _ in range(n)]
    for i, j in g.edges:
        out[i].append(j)
        inn[j].append(i)
    order = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        stack = [(start, iter(out[start]))]
        seen[start] = True
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(out[w])))
                    break
            else:
                order.append(v)
                stack.pop()
    comps = []
    assigned = [False] * n
    for start in reversed(order):
        if assigned[start]:
            continue
        assigned[start] = True
        comp = [start]
        # the loop reads the nodes that it appends
        for v in comp:
            for w in inn[v]:
                if not assigned[w]:
                    assigned[w] = True
                    comp.append(w)
        comps.append(comp)
    return comps


def largest_component(g: DirectedGraph, mode: str = "weak") -> NodeSubset:
    """Largest connected component as a :class:`NodeSubset`.

    ``mode`` selects weak (default) or strong connectivity; both kinds of
    component come from ``_components``. Ties on size are broken toward the
    component containing the smallest node index, so the result is
    deterministic.
    """
    _one_of("mode", mode, COMPONENT_MODES)
    if g.node_count == 0:
        return NodeSubset(0, ())
    best = max(_components(g, mode), key=lambda c: (len(c), -min(c)))
    return NodeSubset(g.node_count, tuple(sorted(best)))


def activity_subset(g: DirectedGraph, k: int) -> NodeSubset:
    """Nodes whose total (in + out) degree is at least ``k``.

    A single pass over the original degrees; the rule is not iterated, so
    surviving nodes may fall below ``k`` within the induced subgraph.
    """
    k = _integer("k", k, 0)
    keep = np.nonzero(g.total_degrees >= k)[0] if g.node_count else []
    return NodeSubset(g.node_count, tuple(int(v) for v in keep))


def induced_subgraph(g: DirectedGraph, subset: NodeSubset) -> DirectedGraph:
    """Subgraph on ``subset``, with nodes renumbered by the subset's order."""
    if subset.parent_size != g.node_count:
        raise DimensionError(
            f"subset parent size {subset.parent_size} != graph node count {g.node_count}"
        )
    remap = subset.index_map
    kept = frozenset(
        (remap[i], remap[j]) for i, j in g.edges if i in remap and j in remap
    )
    return DirectedGraph(len(subset), kept)
