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

from .errors import NumericalError, UndefinedMetricError
from .graph import DirectedGraph, largest_component

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
    a = g.adjacency.astype(np.int64)
    p = a @ a
    two_paths = int(p.sum() - np.trace(p))
    if two_paths == 0:
        raise UndefinedMetricError("transitivity undefined with no two-paths")
    closed = int((p * a).sum())
    return closed / two_paths


def betweenness_scores(g: DirectedGraph) -> np.ndarray:
    """Directed shortest-path betweenness, accumulated pair by pair."""
    n = g.node_count
    out = [[] for _ in range(n)]
    for i, j in g.edges:
        out[i].append(j)
    c = np.zeros(n, dtype=np.float64)
    for s in range(n):
        sigma = [0.0] * n
        dist = [-1] * n
        preds = [[] for _ in range(n)]
        sigma[s] = 1.0
        dist[s] = 0
        queue = [s]
        order = []
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for w in out[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                c[w] += delta[w]
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
        raise ValueError(f"kind must be one of {CENTRALIZATION_KINDS}, got {kind!r}")
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
        indegree_centralization=guarded(centralization, g, "indegree"),
        outdegree_centralization=guarded(centralization, g, "outdegree"),
        total_degree_centralization=guarded(centralization, g, "total_degree"),
        betweenness_centralization=guarded(centralization, g, "betweenness"),
        eigenvector_centralization=guarded(centralization, g, "eigenvector"),
    )
