"""Metropolis sampling from the model's network distribution.

Proposals toggle one uniformly chosen ordered dyad. The chain starts from
the empty graph and keeps each node's out- and in-neighbour sets and the
two-path counts up to date incrementally; a degree is read as the size of a
neighbour set. A toggle and every change statistic walk only the endpoints'
neighbour sets, so each step costs O(degree) whatever the graph size.

One step function is compiled for each model. Every term's incremental form
is a source snippet (``terms._TERMS``), and the step inlines the snippets of
the terms with nonzero coefficients in spec order, the acceptance test and
the toggle, so a proposal makes no Python call per term. The log ratio is
summed as before, ``th * delta`` term by term from 0.0, left to right, so
chains are bit-identical to the per-term loop that ``tests/helpers.py``
keeps as the oracle. The source is compiled once per distinct text and
cached; the step's names are bound as arguments of a factory, so a call
leaves no reference cycle.

Exact early decisions. gwesp and gwdsp are the only deltas that walk
neighbours. Each also gives an interval [low, high] that holds its exact
delta, read from set sizes (see ``terms``). Float rounding is monotone:
if x <= y then fl(x + t) <= fl(y + t) and, for th >= 0, fl(th * x) <=
fl(th * y). So the ratio summed by the same operations with each such term
at one end of its interval, the low end for a positive coefficient and the
high end for a negative one, is at most the exact ratio, and the sum with
the other ends is at least it. When both sums are finite and logu falls
below the lower (accept) or at or above the upper (reject), the exact ratio
is finite and gives the same decision; otherwise the exact deltas are
summed, and a non-finite ratio raises ``NumericalError`` at the same dyad
as before. A present tie compares logu with -ratio, whose interval is the
negated one. On the 40-node gwesp chain of ``sim_recovery`` about 2% of
proposals need the exact sums, and on the 14-node chain below about 60%.

The toggle is ``out[i] ^= {j}`` and ``inn[j] ^= {i}``, not add and
discard. gwdsp sums over its sets in iteration order, which follows each
set's history of insertions and deletions, so another set operation could
change the last bits of its delta and, through them, a chain.

Draws come in chunks of 16,384, and each stretch of proposals between two
kept samples (or up to the chunk's end) is one call of the step. On one
core of a shared 2-vCPU machine under Python 3.11, best of several runs,
that is about 750k-920k steps/s on the 40-node gwesp chain, 730k-850k on
the 22-term battery at n=363 and 1% density, and 190k-260k on a 14-node
chain with every term kind at 40% density, where the intervals decide
least; the per-term loop it replaced ran 580k-710k, 510k-670k and
140k-220k there. Set-up is O(n) per term, except the n x n ``P``; the 22
default terms at n=800 set up in about 6 ms and 6 MiB.

The schedule's counts and ``node_count`` are checked by ``errors._integer``,
the integer check every module shares.
"""

from __future__ import annotations

import functools
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


# The toggle of i -> j, inlined into the step. ``^= {j}`` rather than
# add/discard: gwdsp sums over its sets in iteration order, which follows
# each set's history, so the toggle keeps the operations that chains were
# recorded with. The two-path counts change only where a nonzero term reads
# them.
_TOGGLE = """\
out[i] ^= {j}
inn[j] ^= {i}"""
# i -> j opens or closes the two-paths i -> j -> m and m -> i -> j
_TOGGLE_PATHS = """
sign = -1 if aij else 1
P_i = P[i]
for m in out[j]:
    P_i[m] += sign
for m in inn[i]:
    P[m][j] += sign"""

_RAISE = 'raise NumericalError(f"non-finite acceptance ratio at dyad ({i}, {j})")'


@functools.lru_cache(maxsize=None)
def _compile(text: str):
    """The factory ``make`` that ``text`` defines, compiled once per text."""
    namespace = {}
    exec(compile(text, "<netergm step>", "exec"), namespace)
    return namespace["make"]


def _function(names: dict, params: str, body: list):
    """``def f(params): body`` with ``names`` bound through a factory.

    The factory's arguments are the closure of ``f``, so ``f`` holds no
    reference to itself and a chain leaves no reference cycle behind.
    """
    text = "\n".join(
        [f"def make({', '.join(names)}):", f"    def f({params}):"]
        + _indent(_indent(body))
        + ["    return f"]
    )
    return _compile(text)(**names)


class _Chain:
    """Mutable chain state: neighbour sets ``out[i]`` and ``inn[j]``, whose
    sizes are the degrees, and the n x n two-path counts ``P[i][m]`` when a
    term with a nonzero coefficient reads them. ``names`` holds what the
    compiled step reads: the state, each term's O(n) tables and each
    nonzero coefficient ``th{k}``."""

    def __init__(self, n, attrs, spec, theta):
        self.n = n
        self.out = [set() for _ in range(n)]
        self.inn = [set() for _ in range(n)]
        rules = [_rule(t) for t in spec.terms]
        # only a nonzero term's compiled snippet reads the two-path counts
        paths = any(r.paths and th != 0.0 for r, th in zip(rules, theta))
        self.P = [[0] * n for _ in range(n)] if paths else None
        self.names = {"out": self.out, "inn": self.inn, "P": self.P}
        self.snippets = []  # (k, delta, bound, theta > 0) of each nonzero term
        for k, (t, r, th) in enumerate(zip(spec.terms, rules, theta)):
            # zero coefficients never move the ratio, but their O(n) tables
            # are built, so a missing attribute or level raises
            if r.tables is not None:
                for name, table in r.tables(t, attrs, n).items():
                    self.names[f"{name}{k}"] = table
            if th != 0.0:
                self.names[f"th{k}"] = float(th)
                bound = r.bound and tuple(b.format(k=k) for b in r.bound)
                self.snippets.append((k, r.delta.format(k=k), bound, th > 0))
        self.toggle_source = _TOGGLE + (_TOGGLE_PATHS if self.P is not None else "")

    def step(self):
        """The compiled step: ``run(view_i, view_j, view_logu)`` makes one
        proposal per draw and returns how many of them reached the exact
        sum because the interval did not decide: with no interval term,
        only a non-finite ratio does, and it raises."""
        names = dict(self.names, isfinite=math.isfinite, inf=math.inf,
                     NumericalError=NumericalError)
        return _function(names, "view_i, view_j, view_logu", _step_body(self))

    @property
    def deltas(self) -> tuple:
        """``(theta, f)`` of each nonzero term, ``f(i, j, aij)`` its change
        statistic compiled from the same snippet as the step."""
        return tuple(
            (self.names[f"th{k}"], _function(
                self.names, "i, j, aij",
                _head(bound) + _delta_body(k, delta) + [f"return d{k}"],
            ))
            for k, delta, bound, _ in self.snippets
        )

    def toggle(self, i, j):
        """Toggle i -> j by the step's own toggle source."""
        body = ["aij = j in out[i]"] + self.toggle_source.splitlines()
        _function(self.names, "i, j", body)(i, j)

    def snapshot(self) -> DirectedGraph:
        edges = frozenset((i, j) for i, out_i in enumerate(self.out) for j in out_i)
        return DirectedGraph(self.n, edges)


def _head(bound) -> list:
    """The statements that a bound and its delta read first."""
    return bound[0].splitlines() if bound else []


def _delta_body(k, delta) -> list:
    """Lines that leave a term's change statistic in ``d{k}``."""
    *block, value = delta.splitlines()
    return block + [f"d{k} = {value}"]


def _step_body(chain) -> list:
    """The step's source lines, one proposal per draw.

    The ratio is summed in spec order from 0.0, ``th{k} * d{k}`` by
    ``th{k} * d{k}``, in one left-to-right expression; not ``sum()``, which
    from Python 3.12 compensates float rounding and would change chains on
    those versions only. Where terms give an
    interval (gwesp, gwdsp), the sum from the first of them on is taken
    twice, once with each term at the end of its interval that gives the
    lower ratio (the low end for a positive coefficient, the high end for a
    negative one) and once at the other; with no such term, both sums are
    the exact ratio. When both sums are finite and logu falls outside them,
    that decides; otherwise the exact deltas are summed.
    """
    terms = chain.snippets
    first = next((n for n, term in enumerate(terms) if term[2]), len(terms))
    loop = ["aij = j in out[i]"]
    ratio = ["0.0"]
    for k, delta, _, _ in terms[:first]:
        *block, value = delta.splitlines()
        loop += block
        ratio.append(f"th{k} * ({value})")
    loop.append("ratio = " + " + ".join(ratio))
    low, high, exact, rest = ["ratio"], ["ratio"], ["exact += 1"], ["ratio"]
    for k, delta, bound, positive in terms[first:]:
        if bound:
            _, lo_k, hi_k = bound
            loop += _head(bound) + [f"lo{k} = {lo_k}", f"hi{k} = {hi_k}"]
            ends = (f"lo{k}", f"hi{k}") if positive else (f"hi{k}", f"lo{k}")
            exact += _delta_body(k, delta)
        else:
            loop += _delta_body(k, delta)
            ends = (f"d{k}", f"d{k}")
        low.append(f"th{k} * {ends[0]}")
        high.append(f"th{k} * {ends[1]}")
        rest.append(f"th{k} * d{k}")
    exact += ["ratio = " + " + ".join(rest), "if not isfinite(ratio):", "    " + _RAISE]
    loop += [
        "lo = " + " + ".join(low),
        "hi = " + " + ".join(high),
        # a present tie compares logu with -ratio, whose interval this is
        "if aij:",
        "    lo, hi = -hi, -lo",
        # each test also proves both ends finite
        "if hi <= logu and -inf < lo:",
        "    continue",
        "if not (logu < lo and hi < inf):",
    ] + _indent(exact + [
        "if not logu < (-ratio if aij else ratio):",
        "    continue",
    ]) + chain.toggle_source.splitlines()
    return ["exact = 0", "for i, j, logu in zip(view_i, view_j, view_logu):"] + _indent(loop) + [
        "return exact"
    ]


def _indent(lines) -> list:
    return ["    " + line for line in lines]


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
    run = chain.step()
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
            run(view_i[lo:hi], view_j[lo:hi], view_logu[lo:hi])
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
