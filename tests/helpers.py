"""Shared test utilities: random fixtures, slow, loop-based reference
implementations of the sufficient statistics, and the toggle-and-recompute
change-statistic oracle.

The reference code here deliberately avoids the library's vectorized paths
(and numpy where practical) so it can serve as an independent oracle. The
one exception is ``change_stat_matrices``, which lays the library's
closed-form change statistics out as ``(n_terms, n, n)`` matrices so that
the toggle route and the sampler's incremental deltas can be checked
against them. ``dense_gwesp_matrix`` and ``dense_gwdsp_matrix`` keep the
dense n x n matrix-product forms of the shared-partner terms, the oracle
of the library's edge-list sums. ``refit_every_replicate`` runs the pooled
bootstrap with the library's own fit on every replicate, the oracle of
fitting each distinct draw once. ``OracleChain`` and ``oracle_sample`` are
the Metropolis chain as a plain loop that calls one delta function per term,
the oracle of the sampler's compiled step.
"""

from __future__ import annotations

import csv
import importlib.util
import math
import random
import warnings
from pathlib import Path

import numpy as np

from netergm import (
    DirectedGraph,
    DyadDesign,
    InvalidDyadError,
    NetworkModelError,
    NodeTable,
    NumericalError,
    assemble_network,
    build_graph,
    fit_logistic,
    global_stats,
    largest_component,
    load_attributes,
    load_events,
    pooled_design,
    slice_periods,
)
from netergm.estimator import _unique_rows
from netergm.ingest import DEFAULT_LEVELS
from netergm.terms import _change_stat_columns, _decay_tables


def random_graph(rng, n, p):
    """Erdos-Renyi style directed graph without loops."""
    a = rng.random((n, n)) < p
    np.fill_diagonal(a, False)
    ii, jj = np.nonzero(a)
    return DirectedGraph(n, frozenset(zip(ii.tolist(), jj.tolist())))


def random_table(rng, ids):
    """Node table over the full default attribute vocabulary."""
    ids = tuple(ids)
    columns = {
        name: tuple(rng.choice(levels, size=len(ids)))
        for name, levels in DEFAULT_LEVELS.items()
    }
    return NodeTable(ids, columns, dict(DEFAULT_LEVELS))


def simple_table(ids, levels=None, **columns):
    """Table from explicit columns; levels inferred from observed values
    unless declared."""
    if levels is None:
        levels = {name: tuple(sorted(set(vals))) for name, vals in columns.items()}
    cols = {name: tuple(str(v) for v in vals) for name, vals in columns.items()}
    return NodeTable(tuple(ids), cols, dict(levels))


def _weight(tau, k):
    r = 1.0 - math.exp(-tau)
    return math.exp(tau) * (1.0 - r**k)


def naive_stats(n, edges, attrs, spec):
    """Sufficient statistics by direct counting over a plain edge set."""
    edges = set(edges)
    out = []
    for t in spec.terms:
        if t.kind == "edges":
            out.append(float(len(edges)))
        elif t.kind == "mutual":
            out.append(
                float(sum(1 for i, j in edges if i < j and (j, i) in edges))
            )
        elif t.kind == "isolates":
            deg = [0] * n
            for i, j in edges:
                deg[i] += 1
                deg[j] += 1
            out.append(float(sum(1 for d in deg if d == 0)))
        elif t.kind == "odegpop":
            indeg = [0] * n
            outdeg = [0] * n
            for i, j in edges:
                outdeg[i] += 1
                indeg[j] += 1
            out.append(float(sum(indeg[v] * outdeg[v] for v in range(n))))
        elif t.kind == "gwesp":
            tot = 0.0
            for i, j in edges:
                k = sum(1 for v in range(n) if (i, v) in edges and (v, j) in edges)
                tot += _weight(t.decay, k)
            out.append(tot)
        elif t.kind == "gwdsp":
            tot = 0.0
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    k = sum(
                        1 for v in range(n) if (i, v) in edges and (v, j) in edges
                    )
                    tot += _weight(t.decay, k)
            out.append(tot)
        elif t.kind == "nodematch":
            vals = attrs.values(t.attribute)
            if t.level is None:
                tot = sum(1 for i, j in edges if vals[i] == vals[j])
            else:
                want = t.level.lower()
                tot = sum(
                    1
                    for i, j in edges
                    if vals[i] == vals[j] and vals[i].lower() == want
                )
            out.append(float(tot))
        else:
            raise AssertionError(f"oracle does not know term {t.kind}")
    return np.array(out)


def change_stats(g, attrs, dyad, spec):
    """Change statistics for one dyad, by toggle and full recomputation.

    This is the reference route: statistic on the graph with the dyad
    present minus the statistic with it absent. The current state of the
    dyad in ``g`` does not matter.
    """
    i, j = dyad
    if i == j:
        raise InvalidDyadError(f"dyad ({i}, {j}) is a loop")
    plus = g.with_dyad(i, j, True)
    minus = g.with_dyad(i, j, False)
    return global_stats(plus, attrs, spec) - global_stats(minus, attrs, spec)


def change_stat_matrices(g, attrs, spec):
    """All-dyad change statistics, shape ``(n_terms, n, n)``, read from the
    library's closed forms at every ordered pair; the diagonal is zero.

    Entry ``[t, i, j]`` is term t's statistic with the tie i -> j present
    minus the statistic with it absent, the form the sampler's incremental
    deltas and the toggle route are checked against.
    """
    n = g.node_count
    if n < 2:
        return np.zeros((len(spec.terms), n, n), dtype=np.float64)
    every = np.ones((n, n), dtype=bool)
    out = _change_stat_columns(g, attrs, spec, every)[0].T.reshape(-1, n, n)
    out[:, np.arange(n), np.arange(n)] = 0.0
    return out


def _dense_tables(g, decay):
    """Adjacency as floats, integer two-path counts, and for one decay the
    tables ``r**P`` and ``r**max(P - 1, 0)`` with their lookup tables."""
    n = g.node_count
    a = g.adjacency.astype(np.int64)
    P = a @ a
    r = 1.0 - math.exp(-decay)
    rtab = np.power(r, np.arange(n + 1, dtype=np.float64))
    wtab = math.exp(decay) * (1.0 - rtab)
    return a.astype(np.float64), P, rtab, wtab, rtab[P], rtab[np.maximum(P - 1, 0)]


def dense_gwesp_matrix(g, decay):
    """All-dyad gwesp change statistics from eight dense n x n products;
    the diagonal holds no change statistic."""
    Af, P, _, wtab, rp, rpm = _dense_tables(g, decay)
    A = g.adjacency
    # closing the focal tie: weight of its own partner count, plus the focal
    # tie promoting each two-path it completes
    closed = (Af * rpm) @ Af.T + Af.T @ (Af * rpm)
    return wtab[P] + np.where(A, closed, (Af * rp) @ Af.T + Af.T @ (Af * rp))


def dense_gwdsp_matrix(g, decay):
    """All-dyad gwdsp change statistics from dense n x n products; the
    diagonal holds no change statistic."""
    Af, P, rtab, _, rp, rpm = _dense_tables(g, decay)
    A = g.adjacency
    base = np.where(A, rpm @ Af.T + Af.T @ rpm, rp @ Af.T + Af.T @ rp)
    # remove the y == i and x == j contributions, whose two-path counts are
    # the diagonal cycle counts corrected for mutuality
    mut = A & A.T
    cyc = P.diagonal()
    e1 = np.maximum(cyc[:, None] - mut, 0)
    e2 = np.maximum(cyc[None, :] - mut, 0)
    return base - Af.T * (rtab[e1] + rtab[e2])


def replicate_rows(design, counts):
    """``design`` with row r repeated ``counts[r]`` times, in row order.

    A fit with integer weights must equal the fit of this design.
    """
    rows = [r for r, c in enumerate(counts) for _ in range(int(c))]
    return DyadDesign(
        response=design.response[rows],
        matrix=design.matrix[rows],
        term_names=design.term_names,
    )


def sorted_gather_unique_rows(x, y):
    """``estimator._unique_rows`` as it was before groups were proved by a
    gather of the distinct rows: every column is gathered in hash order, and
    a group starts wherever any column or the response differs from the
    previous sorted row. The reference for ``(first, group)``."""
    d, p = x.shape
    rng = random.Random(0x5EED)
    coef = [rng.uniform(0.5, 1.5) for _ in range(p + 1)]
    buf = np.empty(d)
    h = np.multiply(y, coef[p], dtype=np.float64)
    for k in range(p):
        h += np.multiply(x[:, k], coef[k], out=buf)
    order = np.argsort(h)
    # run[r]: sorted row r starts a run of equal hashes
    run = np.ones(d, dtype=bool)
    np.take(h, order, out=buf)
    del h
    np.not_equal(buf[1:], buf[:-1], out=run[1:])
    new = run.copy()
    ys = y[order]
    new[1:] |= ys[1:] != ys[:-1]
    del ys
    step = np.empty(max(d - 1, 0), dtype=bool)
    for k in range(p):
        np.take(x[:, k], order, out=buf)
        new[1:] |= np.not_equal(buf[1:], buf[:-1], out=step)
    del buf, step
    split = new & ~run
    if split.any():
        # runs holding more than one distinct row: sort their rows by the
        # columns and the response, runs kept in place, and flag them again
        run_id = np.cumsum(run) - 1
        bad = np.zeros(run_id[-1] + 1, dtype=bool)
        bad[run_id[split]] = True
        at = np.flatnonzero(bad[run_id])
        rows = order[at]
        keys = [x[rows, k] for k in reversed(range(p))] + [y[rows], run_id[at]]
        order[at] = rows = rows[np.lexsort(keys)]
        # a run's first row has its run flag set, whatever row precedes it
        prev = order[at - 1]
        flags = run[at] | (y[rows] != y[prev])
        for k in range(p):
            flags |= x[rows, k] != x[prev, k]
        new[at] = flags
        del run_id
    del run, split
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts) if d else order
    del starts
    by_row = np.argsort(first)
    label = np.empty_like(by_row)
    label[by_row] = np.arange(len(by_row))
    first = first[by_row]
    del by_row
    sorted_label = np.cumsum(new)
    del new
    sorted_label -= 1
    group = np.empty(d, dtype=np.intp)
    group[order] = label[sorted_label]
    return first, group


def assert_same_scan(got, expect):
    """Two ``estimator._scan`` results ``(hi, lo, cols, ids, patterns)``
    equal field for field: arrays in value, dtype and memory order."""
    for a, b in zip(got, expect, strict=True):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype
            assert a.flags.f_contiguous == b.flags.f_contiguous
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b


def refit_every_replicate(
    series, attrs, spec, replications, seed, mode, include_lagged_tie=False
):
    """``fit_btergm``'s bootstrap with every replicate refit, the draw of
    every unit once included, as the fields of its ``BootstrapResult``: the
    reference for fitting each distinct draw once. The point fit and the
    replicates run on the pooled design's distinct rows, column-major, and a
    replicate starts at the point estimate unless the point fit is flagged
    or did not converge, as in ``fit_btergm``."""
    pooled = pooled_design(series, attrs, spec, include_lagged_tie)
    if mode == "temporal":
        units = len(series) - 1
        unit_of_row = np.repeat(np.arange(units), pooled.n_rows // units)
    else:
        units = series.node_count
        # each modeled period's rows are its off-diagonal dyads in
        # row-major order; a row's unit is the dyad's sender
        sender = np.argwhere(~np.eye(units, dtype=bool))[:, 0]
        unit_of_row = np.resize(sender, pooled.n_rows)
    first, group = _unique_rows(pooled.matrix, pooled.response)
    distinct = DyadDesign(
        pooled.response[first],
        np.asfortranarray(pooled.matrix[first]),
        pooled.term_names,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        point = fit_logistic(distinct, weights=np.bincount(group))
    warm = point.converged and not point.separation_flags.any()
    coefs, reasons, iterations = [], {}, []
    for rep in range(replications):
        pick = np.random.default_rng([seed, rep]).integers(0, units, size=units)
        draws = np.bincount(pick, minlength=units)
        weights = np.bincount(group, weights=draws[unit_of_row], minlength=len(first))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = fit_logistic(
                    distinct,
                    weights=weights,
                    _start=point.coefficients if warm else None,
                )
        except (NetworkModelError, np.linalg.LinAlgError) as exc:
            reason = type(exc).__name__
            iterations.append(None)
        else:
            iterations.append(fit.iterations)
            if not fit.converged:
                reason = "not_converged"
            elif set(fit.dropped_terms) - set(point.dropped_terms):
                reason = "dropped_term"
            else:
                coefs.append(fit.coefficients)
                continue
        reasons[reason] = reasons.get(reason, 0) + 1
    reps = np.array(coefs)
    lo, hi = np.percentile(reps, [2.5, 97.5], axis=0)
    return {
        "term_names": pooled.term_names,
        "point_estimates": point.coefficients,
        "replicate_coefficients": reps,
        "standard_errors": reps.std(axis=0, ddof=1),
        "ci_lower": lo,
        "ci_upper": hi,
        "significant": (lo > 0) | (hi < 0),
        "replications": replications,
        "dropped_replicates": sum(reasons.values()),
        "drop_reasons": reasons,
        "seed": seed,
        "mode": mode,
        "replicate_iterations": tuple(iterations),
    }


# The demo inputs and outputs committed under ``demos/output``
DEMO_OUTPUT = Path(__file__).resolve().parents[1] / "demos" / "output"


def with_bom(source, dest):
    """Write ``source``'s bytes to ``dest`` after a UTF-8 byte-order mark,
    as Excel's "CSV UTF-8" export and Windows Notepad write it; returns
    ``dest``."""
    dest = Path(dest)
    dest.write_bytes(b"\xef\xbb\xbf" + Path(source).read_bytes())
    return dest


def _bench_gen():
    """The benchmark's input generator, ``bench/gen.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def large_mple_network(variant, n=800, mean_degree=6.0):
    """The graph and node table of the benchmark's ``large_mple`` workload
    (800 nodes, mean degree 6) for one input variant, made by the
    benchmark's own generator, ``bench/gen.py``; ``n`` and ``mean_degree``
    give another size and density from the same generator."""
    gen = _bench_gen()
    pairs, ids, columns = gen.random_network(variant, n, mean_degree)
    levels = {name: gen.LEVELS[name] for name in columns}
    return build_graph(n, pairs), NodeTable(ids, columns, levels)


def panel_bootstrap_inputs(variant, root):
    """The panel series and node table of the benchmark's
    ``panel_bootstrap`` workload for one input variant: the synthetic
    course that ``bench/gen.py`` writes under ``root``, cut to its largest
    component and sliced into quarterly panels."""
    events_path, attrs_path = _bench_gen().write_course_files(str(root), variant)
    events = load_events(events_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g, table = assemble_network(events, load_attributes(attrs_path))
    table = table.restrict([table.ids[m] for m in largest_component(g).members])
    return slice_periods(events, table), table


def naive_global_stats(g, attrs, spec):
    return naive_stats(g.node_count, set(g.edges), attrs, spec)


def naive_change_stat(g, attrs, dyad, spec):
    """Toggle delta by recounting both graph states from scratch."""
    i, j = dyad
    edges = set(g.edges)
    with_edge = naive_stats(g.node_count, edges | {(i, j)}, attrs, spec)
    without = naive_stats(g.node_count, edges - {(i, j)}, attrs, spec)
    return with_edge - without


def _gwesp_delta(c, t):
    rtab, wtab = (x.tolist() for x in _decay_tables(t.decay, c.n))
    out, inn, P = c.out, c.inn, c.P

    def delta(i, j, aij):
        # ascending order over shared partners, as the sampler sums them
        P_i = P[i]
        s1 = 0.0
        for m in sorted(out[i] & out[j]):
            s1 += rtab[P_i[m] - aij]
        s2 = 0.0
        for m in sorted(inn[j] & inn[i]):
            s2 += rtab[P[m][j] - aij]
        return wtab[P_i[j]] + s1 + s2
    return delta


def _gwdsp_delta(c, t):
    rtab = _decay_tables(t.decay, c.n)[0].tolist()
    out, inn, P = c.out, c.inn, c.P

    def delta(i, j, aij):
        # set iteration order, as the sampler sums them
        P_i = P[i]
        total = 0.0
        for m in out[j]:
            if m != i:
                total += rtab[P_i[m] - aij]
        for m in inn[i]:
            if m != j:
                total += rtab[P[m][j] - aij]
        return total
    return delta


def _oracle_delta(c, t, attrs):
    out, inn = c.out, c.inn
    if t.kind == "edges":
        return lambda i, j, aij: 1.0
    if t.kind == "mutual":
        return lambda i, j, aij: i in out[j]
    if t.kind == "isolates":
        return lambda i, j, aij: -(
            (len(inn[i]) + len(out[i]) == aij) + (len(inn[j]) + len(out[j]) == aij)
        )
    if t.kind == "odegpop":
        return lambda i, j, aij: len(inn[i]) + len(out[j])
    if t.kind == "gwesp":
        return _gwesp_delta(c, t)
    if t.kind == "gwdsp":
        return _gwdsp_delta(c, t)
    # the attribute's strings, and a level compared case-insensitively, so
    # the oracle shares no code with terms._match_codes
    values = attrs.values(t.attribute)
    if t.level is None:
        return lambda i, j, aij: 1.0 if values[i] == values[j] else 0.0
    level = t.level.lower()
    return lambda i, j, aij: 1.0 if values[i].lower() == level == values[j].lower() else 0.0


class OracleChain:
    """The Metropolis chain as a plain loop: neighbour sets, two-path counts
    and one delta function per term, the log ratio summed term by term from
    0.0 in spec order."""

    def __init__(self, n, attrs, spec, theta):
        self.n = n
        self.out = [set() for _ in range(n)]
        self.inn = [set() for _ in range(n)]
        self.P = [[0] * n for _ in range(n)]
        self.deltas = [
            (float(th), _oracle_delta(self, t, attrs))
            for t, th in zip(spec.terms, theta) if th != 0.0
        ]

    def toggle(self, i, j):
        sign = -1 if j in self.out[i] else 1
        self.out[i] ^= {j}
        self.inn[j] ^= {i}
        for m in self.out[j]:
            self.P[i][m] += sign
        for m in self.inn[i]:
            self.P[m][j] += sign

    def step(self, i, j, logu) -> bool:
        """One proposal to toggle i -> j; True when it is accepted."""
        aij = j in self.out[i]
        ratio = 0.0
        for th, delta in self.deltas:
            ratio += th * delta(i, j, aij)
        if not math.isfinite(ratio):
            raise NumericalError(f"non-finite acceptance ratio at dyad ({i}, {j})")
        accept = logu < (-ratio if aij else ratio)
        if accept:
            self.toggle(i, j)
        return accept

    def edges(self) -> frozenset:
        return frozenset((i, j) for i, out_i in enumerate(self.out) for j in out_i)


def oracle_sample(node_count, attrs, spec, theta, control) -> list:
    """The kept edge sets of ``sample_ergm``'s chain, from the same draws,
    one ``OracleChain.step`` per proposal."""
    chain = OracleChain(node_count, attrs, spec, theta)
    burn, thin = control.resolved(node_count)
    total = burn + thin * control.sample_count
    rng = np.random.default_rng(control.seed)
    kept = []
    step = 0
    while step < total:
        chunk = 16384
        buf_i = rng.integers(0, node_count, size=chunk)
        buf_j = rng.integers(0, node_count - 1, size=chunk)
        buf_j = buf_j + (buf_j >= buf_i)
        buf_logu = np.log(rng.random(size=chunk))
        for i, j, logu in zip(buf_i.tolist(), buf_j.tolist(), buf_logu.tolist()):
            if step == total:
                break
            chain.step(i, j, logu)
            step += 1
            if step >= burn + thin and (step - burn) % thin == 0:
                kept.append(chain.edges())
    return kept


PARTICIPANTS = 80
FACILITATORS = 3


def make_course_files(root, seed=7):
    """Write a synthetic interaction log and attribute table shaped like a
    semester-long online course: 80 participants, 3 facilitators, events on
    days 1..72 covering all four quarters.

    Returns a dict with the two file paths plus the id lists.
    """
    rng = np.random.default_rng(seed)
    people = [f"p{k:03d}" for k in range(1, PARTICIPANTS + 1)]
    staff = [f"f{k:02d}" for k in range(1, FACILITATORS + 1)]

    attrs_path = root / "attrs.csv"
    with open(attrs_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        cols = list(DEFAULT_LEVELS)
        writer.writerow(["id"] + cols)
        for pid in people + staff:
            row = [pid]
            for name in cols:
                if name == "facilitator":
                    row.append("Yes" if pid.startswith("f") else "No")
                else:
                    row.append(str(rng.choice(DEFAULT_LEVELS[name])))
            writer.writerow(row)

    events_path = root / "events.csv"
    rows = []
    # a random spanning backbone keeps the participant graph connected
    order = list(people)
    rng.shuffle(order)
    for k in range(1, len(order)):
        other = order[rng.integers(0, k)]
        rows.append((order[k], other, int(rng.integers(1, 73))))
    for _ in range(800):
        i, j = rng.choice(PARTICIPANTS, size=2, replace=False)
        rows.append((people[i], people[j], int(rng.integers(1, 73))))
    for _ in range(30):
        f = staff[rng.integers(0, FACILITATORS)]
        p = people[rng.integers(0, PARTICIPANTS)]
        pair = (f, p) if rng.random() < 0.5 else (p, f)
        rows.append((*pair, int(rng.integers(1, 73))))
    for _ in range(5):
        p = people[rng.integers(0, PARTICIPANTS)]
        rows.append((p, p, int(rng.integers(1, 73))))
    # one event pinned inside each quarter so every panel is non-empty
    for day in (5, 25, 45, 65):
        i, j = rng.choice(PARTICIPANTS, size=2, replace=False)
        rows.append((people[i], people[j], day))
    with open(events_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sender_id", "receiver_id", "day"])
        writer.writerows(rows)

    return {
        "edges": str(events_path),
        "attrs": str(attrs_path),
        "participants": people,
        "staff": staff,
    }
