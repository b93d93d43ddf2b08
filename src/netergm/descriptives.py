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
from .graph import DirectedGraph, _expand, largest_component, two_path_counts

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


def betweenness_scores(g: DirectedGraph) -> np.ndarray:
    """Directed shortest-path betweenness (Brandes 2001), unnormalised.

    Brandes' two passes run level-synchronously for a block of sources at
    once. A frontier is the flat list of ``source * n + node`` pairs at one
    breadth-first level. The forward pass expands it through the out-edge
    list and keeps the edges that reach a pair not yet seen: those are the
    edges of the shortest-path DAG (directed acyclic graph) into the next
    level. The pairs they reach are deduplicated by a scatter, not a sort:
    each edge writes its index into a block-length ``slot`` array at its
    pair, and the edge whose index survives stands for that pair. The
    shortest-path counts (sigma) of the new pairs are the sums, by
    ``np.bincount``, of the counts of their predecessors. The backward pass
    sweeps the kept DAG edges deepest level first, passing the dependencies
    ``sigma[v] / sigma[w] * (1 + delta[w])`` back to the predecessors, so no
    out-list is expanded twice. Each step costs O(edges expanded), and every
    (source, node) pair expands its out-edges once, so the work is
    O(n * m) whatever the diameter of the graph; no level scans all pairs
    of a block.
    """
    n = g.node_count
    out = g._out_lists
    c = np.zeros(n, dtype=np.float64)
    # read only where the same level has just written it, so never cleared
    slot = np.empty(min(n, _SOURCE_BLOCK) * n, dtype=np.int64)
    for lo in range(0, n, _SOURCE_BLOCK):
        src = np.arange(lo, min(lo + _SOURCE_BLOCK, n))
        own = np.arange(len(src)) * n + src
        sigma = np.zeros(len(src) * n)
        sigma[own] = 1.0
        unseen = np.ones(len(src) * n, dtype=bool)
        unseen[own] = False
        f = own
        # per level: the frontier and its kept edges, as (index into f, pair)
        dag = []
        while True:
            v = f % n
            origin, pos = _expand(out.starts, v)
            w = (f - v)[origin] + out.cols[pos]
            new = unseen[w]
            origin, w = origin[new], w[new]
            if not len(w):
                break
            idx = np.arange(len(w))
            slot[w] = idx
            rep = slot[w]
            first = rep == idx
            reached = w[first]
            unseen[reached] = False
            inv = (np.cumsum(first) - 1)[rep]
            sigma[reached] = np.bincount(
                inv, weights=sigma[f][origin], minlength=len(reached)
            )
            dag.append((f, origin, w))
            f = reached
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
    bipartite components cannot oscillate.
    """
    n = g.node_count
    if g.edge_count == 0:
        raise UndefinedMetricError("eigenvector scores need at least one tie")
    comp = largest_component(g, mode="weak")
    members = np.array(comp.members, dtype=np.int64)
    a = g.adjacency
    s = (a | a.T)[np.ix_(members, members)].astype(np.float64)
    s += np.eye(len(members))
    x = np.full(len(members), 1.0 / np.sqrt(len(members)))
    for _ in range(max_iterations):
        y = s @ x
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
