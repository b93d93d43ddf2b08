"""Metropolis sampling from the model's network distribution.

Proposals toggle one uniformly chosen ordered dyad. The chain starts from
the empty graph and keeps each node's out- and in-neighbour sets and the
two-path counts up to date incrementally; a degree is read as the size of a
neighbour set. A toggle and every change statistic walk only the endpoints'
neighbour sets, so each step costs O(degree) whatever the graph size.

Draws come in chunks of 16,384, and each stretch of proposals between two
kept samples (or up to the chunk's end) runs as one loop that computes the
log acceptance ratio inline, with no per-step bookkeeping. On one core of a
2-vCPU machine under Python 3.11 that is about 750k-830k steps/s on a
40-node gwesp chain, 1.1M on a 363-node gwesp + gwdsp chain at 0.4%
density, and 250k-290k on a 14-node chain with every term kind at 40%
density; change statistics, not the loop, set the pace of the last.

The schedule's counts and ``node_count`` are checked by ``errors._integer``,
the integer check every module shares.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError, _integer
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
        for name, least in (("burn_in", 0), ("thin", 1), ("sample_count", 1), ("seed", 0)):
            value = getattr(self, name)
            # None leaves burn_in and thin to scale with the graph
            if value is not None or name in ("sample_count", "seed"):
                object.__setattr__(self, name, _integer(name, value, least))

    def resolved(self, node_count: int) -> tuple:
        dyads = node_count * (node_count - 1)
        burn = 10 * dyads if self.burn_in is None else self.burn_in
        thin = dyads if self.thin is None else self.thin
        return burn, thin


class _Chain:
    """Mutable chain state: neighbour sets ``out[i]`` and ``inn[j]``, whose
    sizes are the degrees, and two-path counts ``P[i][m]`` when a term reads
    them."""

    def __init__(self, n, attrs, spec, theta):
        self.n = n
        self.out = out = [set() for _ in range(n)]
        self.inn = [set() for _ in range(n)]
        uses_paths = any(_rule(t).paths for t in spec.terms)
        self.P = [[0] * n for _ in range(n)] if uses_paths else None
        bound = [_rule(t).delta(t, attrs, self) for t in spec.terms]
        # zero coefficients never move the ratio, but a missing attribute raises
        self.deltas = tuple(
            (float(th), d) for th, d in zip(theta, bound) if th != 0.0
        )

    def toggle(self, i, j):
        sign = -1 if j in self.out[i] else 1
        self.out[i] ^= {j}
        self.inn[j] ^= {i}
        if self.P is not None:
            # i -> j opens or closes the two-paths i -> j -> m and m -> i -> j
            P_i = self.P[i]
            for m in self.out[j]:
                P_i[m] += sign
            for m in self.inn[i]:
                self.P[m][j] += sign

    def snapshot(self) -> DirectedGraph:
        edges = frozenset((i, j) for i, out_i in enumerate(self.out) for j in out_i)
        return DirectedGraph(self.n, edges)


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
    node_count = _integer("node_count", node_count, 2)
    theta = list(theta)
    if len(theta) != len(spec.terms):
        raise DimensionError(
            f"theta has {len(theta)} entries for {len(spec.terms)} terms"
        )
    for k, t in enumerate(theta):
        # numpy floats and integers are Real; bools, numpy's included, are not
        # coefficients even where Python would read them as 0 and 1
        if isinstance(t, bool) or not isinstance(t, numbers.Real):
            raise ConfigError(f"theta[{k}] must be a real number, got {t!r}")
    if not all(math.isfinite(t) for t in theta):
        raise NumericalError("theta contains non-finite entries")
    burn, thin = control.resolved(node_count)
    chain = _Chain(node_count, attrs, spec, theta)
    out, deltas, toggle = chain.out, chain.deltas, chain.toggle
    isfinite = math.isfinite
    rng = np.random.default_rng(control.seed)
    total = burn + thin * control.sample_count

    kept = []
    keep = burn + thin  # the step count at which the next sample is kept
    chunk = 16384
    step = 0
    while step < total:
        buf_i = rng.integers(0, node_count, size=chunk)
        buf_j = rng.integers(0, node_count - 1, size=chunk)
        buf_j = buf_j + (buf_j >= buf_i)
        buf_logu = np.log(rng.random(size=chunk))
        used = min(chunk, total - step)
        # memoryviews hand out Python ints and floats one at a time, where
        # tolist() would hold a chunk of float objects at once
        view_i, view_j, view_logu = (memoryview(b[:used]) for b in (buf_i, buf_j, buf_logu))
        lo = 0
        while lo < used:
            # one stretch: the draws up to the next kept sample or the end of
            # the chunk, with no per-step check of either
            hi = min(used, keep - step)
            for i, j, logu in zip(view_i[lo:hi], view_j[lo:hi], view_logu[lo:hi]):
                # the log acceptance ratio of toggling i -> j; a plain loop,
                # not sum(), which from Python 3.12 compensates float rounding
                # and would change chains on those versions only
                aij = j in out[i]
                ratio = 0.0
                for th, delta in deltas:
                    ratio += th * delta(i, j, aij)
                if not isfinite(ratio):
                    raise NumericalError(f"non-finite acceptance ratio at dyad ({i}, {j})")
                if logu < (-ratio if aij else ratio):
                    toggle(i, j)
            if hi == keep - step:
                kept.append(chain.snapshot())
                keep += thin
            lo = hi
        step += used
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
