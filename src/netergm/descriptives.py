"""Whole-network descriptive statistics for directed graphs.

Centralization follows the classic sum-of-differences form: for a node
score vector c, centralization is ``sum(max(c) - c) / M`` where M is the
theoretical maximum of that sum, so a perfectly star-like graph scores 1.
The M used per score:

===============  =========================
indegree          (n-1)^2
outdegree         (n-1)^2
total_degree      (n-1) * 2(n-1)
betweenness       (n-1)^2 * (n-2)
eigenvector       n - 1  (scores rescaled to max 1)
===============  =========================

Metrics whose denominator vanishes raise :class:`UndefinedMetricError`;
:func:`describe` turns those into blanks (None) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, NumericalError, UndefinedMetricError
from .graph import (
    DirectedGraph,
    _expand,
    _row_lists,
    largest_component,
    two_path_counts,
)

__all__ = [
    "DescriptiveRow",
    "density",
    "edgewise_reciprocity",
    "transitivity",
    "betweenness_scores",
    "eigenvector_scores",
    "centralization",
    "describe",
]

CENTRALIZATION_KINDS = (
    "indegree",
    "outdegree",
    "total_degree",
    "betweenness",
    "eigenvector",
)


@dataclass(frozen=True)
class DescriptiveRow:
    """One network's descriptive battery; None marks an undefined metric."""

    nodes: int
    edges: int
    density: float | None
    mean_indegree: float | None
    mean_outdegree: float | None
    mean_total_degree: float | None
    reciprocity: float | None
    transitivity: float | None
    indegree_centralization: float | None
    outdegree_centralization: float | None
    total_degree_centralization: float | None
    betweenness_centralization: float | None
    eigenvector_centralization: float | None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def density(g: DirectedGraph) -> float:
    """Ties divided by the n*(n-1) possible ties."""
    n = g.node_count
    if n < 2:
        raise UndefinedMetricError(f"density undefined for {n} node(s)")
    return g.edge_count / (n * (n - 1))


def edgewise_reciprocity(g: DirectedGraph) -> float:
    """Fraction of ties whose reverse tie is also present."""
    if g.edge_count == 0:
        raise UndefinedMetricError("reciprocity undefined with no ties")
    a = g.adjacency
    return int((a & a.T).sum()) / g.edge_count


def transitivity(g: DirectedGraph) -> float:
    """Fraction of directed two-paths i -> m -> j (i != j) closed by i -> j."""
    p = two_path_counts(g)
    two_paths = int(p.sum() - np.trace(p))
    if two_paths == 0:
        raise UndefinedMetricError("transitivity undefined with no two-paths")
    closed = int(p[g.adjacency].sum())
    return closed / two_paths


# Sources per block of the betweenness search; the path counts, dependencies
# and visited marks of a block are flat arrays of 256 * n entries.
_SOURCE_BLOCK = 256

# float64 holds every integer below 2**53 exactly, so path counts summed below
# it are the same in any order
_EXACT_BELOW = 2.0**53


def _bottom_up(frontier_entries: int, unseen_entries: int) -> bool:
    """Whether a breadth-first level runs bottom-up: exactly when the
    in-lists of the pairs not yet reached hold fewer entries than the
    out-lists of the frontier."""
    return unseen_entries < frontier_entries


def betweenness_scores(g: DirectedGraph) -> np.ndarray:
    """Directed shortest-path betweenness (Brandes 2001), unnormalised.

    Brandes' two passes run level-synchronously for a block of sources at
    once. A frontier is the flat list of ``source * n + node`` pairs at one
    breadth-first level. The forward pass finds the edges of the
    shortest-path DAG (directed acyclic graph) from the frontier into the
    pairs not yet seen, and the shortest-path counts (sigma) of the pairs
    they reach are the sums, by ``np.bincount``, of the counts of their
    predecessors. Each level takes the direction that scans fewer list
    entries (Beamer, Asanovic & Patterson 2012), from two exact counts:

    - Top-down, the frontier expands through the out-edge list and keeps the
      edges that reach an unseen pair. The pairs they reach are deduplicated
      by a scatter, not a sort: each edge writes its index into a
      block-length ``slot`` array at its pair, and the edge whose index
      survives stands for that pair. A second scatter, of each reached
      pair's position, then labels every kept edge with its pair.
    - Bottom-up, every unseen pair, in ascending order, expands through the
      in-edge list and keeps the edges from a frontier pair. A level runs
      bottom-up when the unseen pairs' in-lists hold fewer entries than the
      frontier's out-lists, so no level expands more entries than it would
      top-down, and a wide middle level of a small-world graph expands far
      fewer. Within one source the ascending pairs list each predecessor's
      kept edges in its out-list order, the order top-down keeps them in, so
      the backward pass needs no re-sort.

    A bottom-up level adds a pair's counts in another order than top-down,
    so it runs only while the largest count in the frontier times the
    largest in-degree is below 2**53: every such sum is an exact integer in
    any order. Should a later level of the block pass that bound, the pairs
    a bottom-up level reached stand in another order than top-down would
    have left them, so the block's forward pass runs again top-down only.
    Scores are therefore bit-identical to an all top-down search.

    The backward pass sweeps the kept DAG edges deepest level first,
    passing the dependencies ``sigma[v] / sigma[w] * (1 + delta[w])`` back
    to the predecessors, so no list is expanded twice. Each step costs
    O(entries expanded), and no level expands more than it would top-down,
    where every (source, node) pair expands its out-edges once, so the work
    is O(n * m) whatever the diameter of the graph; a block whose forward
    pass runs again does it twice. A bottom-up level also scans the block's
    pairs for the unseen ones.
    """
    n = g.node_count
    out, into = g._out_lists, g._in_lists
    out_deg, in_deg = np.diff(out.starts), np.diff(into.starts)
    max_in, max_out = int(in_deg.max(initial=0)), int(out_deg.max(initial=0))
    c = np.zeros(n, dtype=np.float64)
    pairs = min(n, _SOURCE_BLOCK) * n
    # read only where the same level has just written it, so never cleared
    slot = np.empty(pairs, dtype=np.int64)
    # marks the frontier of a bottom-up level, and is cleared after it
    frontier = np.zeros(pairs, dtype=bool)
    for lo in range(0, n, _SOURCE_BLOCK):
        src = np.arange(lo, min(lo + _SOURCE_BLOCK, n))
        own = np.arange(len(src)) * n + src
        for may_go_up in (True, False):
            sigma = np.zeros(len(src) * n)
            sigma[own] = 1.0
            unseen = np.ones(len(src) * n, dtype=bool)
            unseen[own] = False
            # in-list entries of the unseen pairs, but for those of the nodes
            # in `pending`, the frontiers not yet counted, of `uncounted` pairs
            unseen_in = len(src) * g.edge_count
            pending, uncounted = [], 0
            went_up = False
            f = own
            # per level: the frontier and its kept edges, as (index into f, pair)
            dag = []
            while True:
                v = f % n
                sf = sigma[f]
                deg = out_deg[v]
                pending.append(v)
                uncounted += len(v)
                up = False
                # the frontier's out-lists hold at most len(f) * max_out
                # entries and the unseen in-lists at least unseen_in -
                # uncounted * max_in; where that settles the rule, neither
                # count is summed, so small frontiers pay nothing for it
                if may_go_up and unseen_in - uncounted * max_in < len(f) * max_out:
                    unseen_in -= int(in_deg[np.concatenate(pending)].sum())
                    pending, uncounted = [], 0
                    up = _bottom_up(int(deg.sum()), unseen_in)
                if up or went_up:
                    exact = sf.max() * max_in < _EXACT_BELOW
                    if went_up and not exact:
                        dag = None  # run the block again, top-down only
                        break
                    up = up and exact
                if up:
                    went_up = True
                    u = np.flatnonzero(unseen)
                    x = u % n
                    child, pos = _expand(into.starts, x, in_deg[x])
                    p = (u - x)[child] + into.cols[pos]
                    frontier[f] = True
                    kept = np.flatnonzero(frontier[p])
                    frontier[f] = False
                    child, p = child[kept], p[kept]
                    if not len(p):
                        break
                    slot[f] = np.arange(len(f))
                    origin = slot[p]
                    w = u[child]
                    # the kept edges of one pair are adjacent
                    opens = np.empty(len(w), dtype=bool)
                    opens[0] = True
                    np.not_equal(child[1:], child[:-1], out=opens[1:])
                    reached = w[np.flatnonzero(opens)]
                    inv = np.cumsum(opens) - 1
                else:
                    origin, pos = _expand(out.starts, v, deg)
                    w = (f - v)[origin] + out.cols[pos]
                    # gathers by index: through a boolean mask numpy
                    # gathers a large level several times slower
                    new = unseen[w].nonzero()[0]
                    origin, w = origin[new], w[new]
                    if not len(w):
                        break
                    idx = np.arange(len(w))
                    slot[w] = idx
                    reached = w[(slot[w] == idx).nonzero()[0]]
                    # each kept edge's reached pair, as an index into reached
                    slot[reached] = np.arange(len(reached))
                    inv = slot[w]
                unseen[reached] = False
                sigma[reached] = np.bincount(
                    inv, weights=sf[origin], minlength=len(reached)
                )
                dag.append((f, origin, w))
                f = reached
            if dag is not None:
                break
        delta = np.zeros_like(sigma)
        for f, origin, w in reversed(dag):
            share = sigma[f][origin] / sigma[w] * (1.0 + delta[w])
            delta[f] += np.bincount(origin, weights=share, minlength=len(f))
        delta[own] = 0.0
        c += delta.reshape(len(src), n).sum(axis=0)
    return c


def eigenvector_scores(
    g: DirectedGraph,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
) -> np.ndarray:
    """Dominant-eigenvector scores of the symmetrized graph, max scaled to 1.

    Computed on the largest weakly connected component; other nodes score
    zero. Power iteration runs on S + I (same eigenvectors as S) so that
    bipartite components cannot oscillate. Each step is a sum over the
    component's neighbour lists, O(ties) rather than O(n^2).
    """
    n = g.node_count
    if g.edge_count == 0:
        raise UndefinedMetricError("eigenvector scores need at least one tie")
    comp = largest_component(g, mode="weak")
    members = np.array(comp.members, dtype=np.int64)
    a = g.adjacency
    s = _row_lists((a | a.T)[np.ix_(members, members)])
    x = np.full(len(members), 1.0 / np.sqrt(len(members)))
    for _ in range(max_iterations):
        y = x + np.bincount(s.rows, weights=x[s.cols], minlength=len(x))
        y /= np.linalg.norm(y)
        if np.max(np.abs(y - x)) < tolerance:
            x = y
            break
        x = y
    else:
        raise NumericalError(
            f"eigenvector iteration did not converge in {max_iterations} steps"
        )
    scores = np.zeros(n, dtype=np.float64)
    scores[members] = x / x.max()
    return scores


def centralization(g: DirectedGraph, kind: str) -> float:
    """Freeman-style centralization of one node score; see module docs."""
    if kind not in CENTRALIZATION_KINDS:
        raise ConfigError(f"kind must be one of {CENTRALIZATION_KINDS}, got {kind!r}")
    n = g.node_count
    if n < 3:
        raise UndefinedMetricError(f"centralization undefined for {n} node(s)")
    if kind == "indegree":
        c = g.in_degrees.astype(np.float64)
        m = (n - 1) ** 2
    elif kind == "outdegree":
        c = g.out_degrees.astype(np.float64)
        m = (n - 1) ** 2
    elif kind == "total_degree":
        c = g.total_degrees.astype(np.float64)
        m = (n - 1) * 2 * (n - 1)
    elif kind == "betweenness":
        c = betweenness_scores(g)
        m = (n - 1) ** 2 * (n - 2)
    else:
        c = eigenvector_scores(g)
        m = n - 1
    return float((c.max() - c).sum() / m)


def describe(g: DirectedGraph) -> DescriptiveRow:
    """Full battery for one network; undefined metrics come back as None."""
    n = g.node_count

    def guarded(fn, *args):
        try:
            return fn(*args)
        except (UndefinedMetricError, NumericalError):
            return None

    mean_in = g.edge_count / n if n else None
    return DescriptiveRow(
        nodes=n,
        edges=g.edge_count,
        density=guarded(density, g),
        mean_indegree=mean_in,
        mean_outdegree=mean_in,
        mean_total_degree=2 * g.edge_count / n if n else None,
        reciprocity=guarded(edgewise_reciprocity, g),
        transitivity=guarded(transitivity, g),
        **{
            f"{kind}_centralization": guarded(centralization, g, kind)
            for kind in CENTRALIZATION_KINDS
        },
    )
