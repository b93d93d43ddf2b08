"""Walkthrough: pooled temporal fits and per-transition formation models.

Four quarterly panels are evolved from a seed network: each quarter keeps
about half of the previous ties, reciprocates some of the rest, and adds
fresh ties at a declining rate. The pooled model stacks all transitions
into one fit and bootstraps confidence intervals; the formation models ask,
separately for each transition, which absent ties formed.

    python3 demos/03_temporal_models.py
"""

import warnings

import numpy as np

from netergm import (
    NetworkSeries,
    NodeTable,
    build_graph,
    fit_btergm,
    fit_formation,
    parse_terms,
)
from netergm.temporal import formation_bic_all_dyads
from netergm.report import btergm_table, formation_table, render_text

NODES = 45
LABELS = ("Q1", "Q2", "Q3", "Q4")


def evolve(rng, prev_edges, birth_count):
    """One panel transition: decay, reciprocation, and fresh ties."""
    nxt = set()
    for i, j in prev_edges:
        r = rng.random()
        if r < 0.45:
            nxt.add((i, j))
            # answered threads tend to stay two-way
            if rng.random() < 0.3:
                nxt.add((j, i))
        elif r < 0.6:
            nxt.add((j, i))
    births = rng.integers(0, NODES, size=(int(birth_count), 2))
    nxt.update((int(i), int(j)) for i, j in births if i != j)
    return nxt


def main():
    rng = np.random.default_rng(303)
    ids = tuple(f"p{k:03d}" for k in range(NODES))
    genders = tuple(str(g) for g in rng.choice(("Female", "Male"), size=NODES))
    table = NodeTable(ids, {"gender": genders}, {"gender": ("Female", "Male")})

    # Sparse panels on purpose: isolation only has leverage when some
    # participants actually sit near zero degree each quarter.
    seed = {
        (int(i), int(j))
        for i, j in rng.integers(0, NODES, size=(100, 2))
        if i != j
    }
    for i, j in list(seed)[:15]:
        seed.add((j, i))
    panels, edges = [], seed
    for births in (0, 35, 20, 8):
        if births:
            edges = evolve(rng, edges, births)
        panels.append(build_graph(NODES, sorted(edges)))
    for label, g in zip(LABELS, panels):
        print(f"{label}: {g.edge_count} edges")
    print()

    series = NetworkSeries(NODES, LABELS, tuple(panels))
    spec = parse_terms(("edges", "mutual", "isolates", "nodematch(gender)"))

    # Replicates that separate or lose a column are dropped and counted;
    # suppress their warnings so the tables stay readable.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        point, boot = fit_btergm(series, table, spec, replications=50, seed=5)
    print(render_text(btergm_table(boot, "Pooled temporal model")))
    print()

    # Small panels can separate on sparse terms; the fit flags that rather
    # than failing, so keep the run quiet and read the note column.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in range(1, len(series)):
            prev, curr = series.graphs[t - 1], series.graphs[t]
            fit = fit_formation(prev, curr, table, spec)
            title = f"Formation model {series.labels[t - 1]} -> {series.labels[t]}"
            print(render_text(formation_table(
                fit, title,
                bic_all_dyads=formation_bic_all_dyads(fit, NODES),
            )))
            print()


if __name__ == "__main__":
    main()
