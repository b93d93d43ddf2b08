"""Shared test utilities: random fixtures, slow, loop-based reference
implementations of the sufficient statistics, and the toggle-and-recompute
change-statistic oracle.

The reference code here deliberately avoids the library's vectorized paths
(and numpy where practical) so it can serve as an independent oracle.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from netergm import DirectedGraph, DyadDesign, InvalidDyadError, NodeTable, global_stats
from netergm.ingest import DEFAULT_LEVELS


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


def replicate_rows(design, counts):
    """``design`` with row r repeated ``counts[r]`` times, in row order.

    A fit with integer weights must equal the fit of this design.
    """
    rows = [r for r, c in enumerate(counts) for _ in range(int(c))]
    return DyadDesign(
        dyads=design.dyads[rows],
        response=design.response[rows],
        matrix=design.matrix[rows],
        term_names=design.term_names,
        periods=None if design.periods is None else design.periods[rows],
    )


def naive_global_stats(g, attrs, spec):
    return naive_stats(g.node_count, set(g.edges), attrs, spec)


def naive_change_stat(g, attrs, dyad, spec):
    """Toggle delta by recounting both graph states from scratch."""
    i, j = dyad
    edges = set(g.edges)
    with_edge = naive_stats(g.node_count, edges | {(i, j)}, attrs, spec)
    without = naive_stats(g.node_count, edges - {(i, j)}, attrs, spec)
    return with_edge - without


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
