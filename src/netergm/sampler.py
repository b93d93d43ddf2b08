"""Metropolis sampling from the model's network distribution.

Proposals toggle one uniformly chosen ordered dyad. The chain starts from
the empty graph and keeps the adjacency matrix, degree vectors, and the
two-path count matrix up to date incrementally, so each step touches at
most two rows and columns regardless of graph size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError
from .graph import DirectedGraph
from .terms import ModelSpec, _rule

__all__ = ["SamplerControl", "sample_ergm"]


@dataclass(frozen=True)
class SamplerControl:
    """Chain schedule. ``burn_in`` defaults to 10 * n * (n-1) toggles and
    ``thin`` to n * (n-1) when left as None."""

    burn_in: int | None = None
    thin: int | None = None
    sample_count: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.burn_in is not None and self.burn_in < 0:
            raise ConfigError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.thin is not None and self.thin < 1:
            raise ConfigError(f"thin must be >= 1, got {self.thin}")
        if self.sample_count < 1:
            raise ConfigError(f"sample_count must be >= 1, got {self.sample_count}")

    def resolved(self, node_count: int) -> tuple:
        dyads = node_count * (node_count - 1)
        burn = 10 * dyads if self.burn_in is None else self.burn_in
        thin = dyads if self.thin is None else self.thin
        return burn, thin


class _Chain:
    """Mutable chain state with one bound change-statistic closure per term."""

    def __init__(self, n, attrs, spec, theta):
        self.a = np.zeros((n, n), dtype=np.uint8)
        self.indeg = np.zeros(n, dtype=np.int64)
        self.outdeg = np.zeros(n, dtype=np.int64)
        uses_paths = any(_rule(t).paths for t in spec.terms)
        self.paths = np.zeros((n, n), dtype=np.int64) if uses_paths else None
        live = (attrs, self.a, self.indeg, self.outdeg, self.paths)
        bound = [_rule(t).delta(t, *live) for t in spec.terms]
        # zero coefficients never move the ratio, but a missing attribute raises
        self.deltas = [(float(th), d) for th, d in zip(theta, bound) if th != 0.0]

    def log_ratio(self, i, j):
        aij = int(self.a[i, j])
        total = 0.0
        for th, delta in self.deltas:
            total += th * delta(i, j, aij)
        if not math.isfinite(total):
            raise NumericalError(
                f"non-finite acceptance ratio at dyad ({i}, {j})"
            )
        return -total if aij else total

    def toggle(self, i, j):
        sign = -1 if self.a[i, j] else 1
        if self.paths is not None:
            # int64 cast: a negative sign would overflow the uint8 rows
            self.paths[i, :] += sign * self.a[j, :].astype(np.int64)
            self.paths[:, j] += sign * self.a[:, i].astype(np.int64)
        self.a[i, j] ^= 1
        self.outdeg[i] += sign
        self.indeg[j] += sign

    def snapshot(self) -> DirectedGraph:
        return DirectedGraph.from_adjacency(self.a.astype(bool))


def sample_ergm(
    node_count: int,
    attrs,
    spec: ModelSpec,
    theta,
    control: SamplerControl = SamplerControl(),
) -> list:
    """Draw graphs from the model distribution at coefficients ``theta``.

    Parameters
    ----------
    node_count : int
        Nodes in every sampled graph; at least 2.
    attrs : NodeTable or None
        Needed only when ``spec`` contains homophily terms.
    spec : ModelSpec
        Terms defining the distribution.
    theta : sequence of float
        One finite coefficient per term.
    control : SamplerControl
        Burn-in, thinning, sample count, and seed.

    Returns
    -------
    list of DirectedGraph
        ``control.sample_count`` retained graphs, one per ``thin`` toggles
        after burn-in. A warning is issued when the retained graphs are
        near-empty or near-complete on average (mean density outside
        [0.001, 0.999]), the classic degeneracy symptom.
    """
    if node_count < 2:
        raise ConfigError(f"need at least 2 nodes to sample, got {node_count}")
    theta = list(theta)
    if len(theta) != len(spec.terms):
        raise DimensionError(
            f"theta has {len(theta)} entries for {len(spec.terms)} terms"
        )
    if not all(math.isfinite(t) for t in theta):
        raise NumericalError("theta contains non-finite entries")
    burn, thin = control.resolved(node_count)
    chain = _Chain(node_count, attrs, spec, theta)
    rng = np.random.default_rng(control.seed)
    total = burn + thin * control.sample_count

    chunk = 16384
    buf_i = buf_j = buf_logu = None
    pos = chunk  # force first refill

    kept = []
    next_keep = burn + thin
    for step in range(1, total + 1):
        if pos >= chunk:
            buf_i = rng.integers(0, node_count, size=chunk)
            buf_j = rng.integers(0, node_count - 1, size=chunk)
            buf_j = buf_j + (buf_j >= buf_i)
            buf_logu = np.log(rng.random(size=chunk))
            pos = 0
        i = int(buf_i[pos])
        j = int(buf_j[pos])
        logu = float(buf_logu[pos])
        pos += 1
        if logu < chain.log_ratio(i, j):
            chain.toggle(i, j)
        if step == next_keep:
            kept.append(chain.snapshot())
            next_keep += thin
    densities = [
        g.edge_count / (node_count * (node_count - 1)) for g in kept
    ]
    mean_density = float(np.mean(densities))
    if not 0.001 <= mean_density <= 0.999:
        warnings.warn(
            f"sampler output looks degenerate: mean density {mean_density:.4f}",
            stacklevel=2,
        )
    return kept
