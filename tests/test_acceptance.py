"""Acceptance battery.

Thirteen checks covering information-criterion arithmetic against reference
results, descriptive consistency, oracle equivalence for change statistics
and logistic fits, rounding-compatible reporting, sampler-based parameter
recovery, model reductions, separation handling, CLI determinism, and scale.
Each test prints one ``criterion NN: PASS/FAIL`` line.
"""

import filecmp
import itertools
import math
import os
import time
import warnings

import numpy as np
import pytest
from scipy.special import expit

from netergm import (
    NetworkSeries,
    build_graph,
    describe,
    fit_btergm,
    fit_formation,
    fit_mple,
    parse_terms,
    sample_ergm,
)
from netergm.cli import main
from netergm.config import CROSS_SECTIONAL_TERMS
from netergm.estimator import (
    DyadDesign,
    akaike_criterion,
    bayes_criterion,
    fit_logistic,
    null_pseudo_deviance,
)
from netergm.report import fit_table, format_number, render_text
from netergm.sampler import SamplerControl

from helpers import (
    change_stats,
    naive_change_stat,
    random_graph,
    random_table,
    simple_table,
)
from irls_reference import irls_fit


def check(num: int, condition: bool, detail: str):
    status = "PASS" if condition else "FAIL"
    print(f"criterion {num:02d}: {status} ({detail})")
    assert condition, f"criterion {num:02d}: {detail}"


def quiet_cli(*argv) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(list(argv))


# Reference results: (residual deviance, params, dyads, AIC, BIC).
INFORMATION_ROWS = (
    (12471.0, 22, 131406, 12515.0, 12730.0),
    (9876.0, 22, 51302, 9920.0, 10115.0),
)

# Reference (log-likelihood, AIC) pairs for 23-parameter fits.
LOGLIK_AIC_ROWS = (
    (-3103.28, 6252.559),
    (-1631.17, 3308.34),
    (-744.255, 1534.509),
    (-2474.966, 4995.932),
    (-1528.12, 3102.24),
    (-704.742, 1455.484),
)

# Reference network sizes: (nodes, edges, density, mean total degree).
DESCRIPTIVE_ROWS = (
    (363, 1406, 0.011, 7.750),
    (227, 1225, 0.024, 10.790),
    (363, 515, 0.004, 2.840),
    (363, 523, 0.004, 2.880),
    (363, 264, 0.002, 1.450),
    (363, 104, 0.001, 0.570),
    (227, 389, 0.008, 3.430),
    (227, 476, 0.009, 4.190),
    (227, 260, 0.005, 2.290),
    (227, 100, 0.002, 0.880),
)

# Reference (coefficient, exp(coefficient)) pairs, both rounded to 3 places.
EXP_REPORT_PAIRS = (
    (2.031, 7.623),
    (1.843, 6.313),
    (0.961, 2.615),
    (-0.009, 0.991),
    (0.894, 2.444),
    (-5.557, 0.004),
    (1.011, 2.749),
    (2.257, 9.550),
    (2.344, 10.427),
    (-4.601, 0.010),
)

ORACLE_KINDS = (
    "edges",
    "mutual",
    "isolates",
    "odegpop",
    "gwesp(0.5)",
    "gwdsp(0.5)",
    "nodematch(gender)",
    "nodematch(region, South)",
)


def test_criterion_01_information_criterion_identities():
    worst = 0.0
    for dev, p, dyads, aic_ref, bic_ref in INFORMATION_ROWS:
        worst = max(worst, abs(akaike_criterion(dev, p) - aic_ref))
        worst = max(worst, abs(bayes_criterion(dev, p, dyads) - bic_ref))
    check(1, worst <= 1.0, f"worst AIC/BIC gap {worst:.3f} over "
                           f"{len(INFORMATION_ROWS)} fits, tolerance 1")


def test_criterion_02_null_deviance_formula():
    got = null_pseudo_deviance(131406)
    rel = abs(got - 182167.0) / 182167.0
    # The analogous figure for the denser subsample is arithmetically
    # inconsistent with any dyad count in range and is deliberately excluded.
    check(2, rel <= 3e-5, f"2 D ln2 = {got:.1f} vs 182167, "
                          f"relative gap {rel:.2e} <= 3e-5")


def test_criterion_03_loglik_aic_identity():
    worst = 0.0
    for ll, aic_ref in LOGLIK_AIC_ROWS:
        worst = max(worst, abs(akaike_criterion(-2.0 * ll, 23) - aic_ref))
    check(3, worst <= 0.01, f"worst AIC gap {worst:.4f} over "
                            f"{len(LOGLIK_AIC_ROWS)} columns, tolerance 0.01")


def test_criterion_04_descriptive_consistency():
    worst_d, worst_m = 0.0, 0.0
    for n, e, density_ref, mean_ref in DESCRIPTIVE_ROWS:
        pairs = ((i, j) for i in range(n) for j in range(n) if i != j)
        g = build_graph(n, list(itertools.islice(pairs, e)))
        row = describe(g)
        worst_d = max(worst_d, abs(row.density - density_ref))
        worst_m = max(worst_m, abs(row.mean_total_degree - mean_ref))
    ok = worst_d <= 0.005 and worst_m <= 0.01
    check(4, ok, f"{len(DESCRIPTIVE_ROWS)} networks: worst density gap "
                 f"{worst_d:.4f} <= 0.005, worst mean-degree gap "
                 f"{worst_m:.4f} <= 0.01")


def test_criterion_05_change_statistic_oracle():
    spec = parse_terms(ORACLE_KINDS)
    weighted = np.array([t.kind in ("gwesp", "gwdsp") for t in spec.terms])
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.6)))
        attrs = random_table(rng, tuple(f"p{k}" for k in range(n)))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                got = change_stats(g, attrs, (i, j), spec)
                want = naive_change_stat(g, attrs, (i, j), spec)
                assert np.array_equal(got[~weighted], want[~weighted])
                worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    check(5, ok, f"200 graphs, all dyads, 8 kinds: worst gap {worst:.1e} "
                 f"<= 1e-12, {elapsed:.1f}s < 30s")


def test_criterion_06_logistic_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        rows = int(rng.integers(150, 600))
        p = int(rng.integers(2, 6))
        beta = rng.normal(scale=0.8, size=p)
        x = np.column_stack([np.ones(rows), rng.normal(size=(rows, p - 1))])
        y = (rng.random(rows) < expit(x @ beta)).astype(float)
        design = DyadDesign(
            response=y,
            matrix=x,
            term_names=tuple(f"t{k}" for k in range(p)),
        )
        fit = fit_logistic(design)
        ref_beta, _ = irls_fit(x, y)
        worst = max(worst, float(np.max(
            np.abs(fit.coefficients - ref_beta) / np.abs(ref_beta)
        )))
    worst_closed = 0.0
    spec = parse_terms("edges")
    for _ in range(50):
        n = int(rng.integers(5, 25))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.8)))
        d = n * (n - 1)
        assert 0 < g.edge_count < d
        fit = fit_mple(g, None, spec, tolerance=1e-12)
        closed = math.log(g.edge_count / (d - g.edge_count))
        worst_closed = max(worst_closed, abs(fit.coefficients[0] - closed))
    ok = worst <= 1e-6 and worst_closed <= 1e-10
    check(6, ok, f"20 designs vs IRLS: worst relative gap {worst:.1e} <= 1e-6; "
                 f"50 closed-form fits: worst gap {worst_closed:.1e} <= 1e-10")


def test_criterion_07_exp_reporting():
    half = 0.0005
    bad = []
    for b, reported in EXP_REPORT_PAIRS:
        lo, hi = math.exp(b - half), math.exp(b + half)
        if not (lo < reported + half and reported - half < hi):
            bad.append((b, reported))
    assert format_number(math.exp(-5.557)) == "0.004"
    check(7, not bad, f"{len(EXP_REPORT_PAIRS)} coefficient/exp pairs "
                      f"rounding-compatible at 3 places; mismatches: {bad}")


def test_criterion_08_parameter_recovery():
    start = time.perf_counter()
    spec = parse_terms(("edges", "mutual"))
    truth = np.array([-3.0, 1.5])
    graphs = sample_ergm(60, None, spec, truth,
                         SamplerControl(sample_count=100, seed=88))
    coefs = np.array([fit_mple(g, None, spec).coefficients for g in graphs])
    elapsed = time.perf_counter() - start
    mean = coefs.mean(axis=0)
    positives = int((coefs[:, 1] > 0).sum())
    ok = (np.max(np.abs(mean - truth)) <= 0.3
          and positives >= 95 and elapsed < 300.0)
    check(8, ok, f"mean estimates ({mean[0]:.3f}, {mean[1]:.3f}) vs "
                 f"(-3.0, 1.5) within 0.3; reciprocity positive in "
                 f"{positives}/100 fits; {elapsed:.1f}s < 300s")


def test_criterion_09_formation_reduces_to_cross_sectional():
    rng = np.random.default_rng(9)
    spec = parse_terms(("edges", "mutual", "nodematch(team)"))
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(20):
            n = int(rng.integers(8, 15))
            curr = random_graph(rng, n, float(rng.uniform(0.25, 0.45)))
            table = simple_table(
                tuple(f"p{k}" for k in range(n)),
                levels={"team": ("a", "b", "c")},
                team=tuple(rng.choice(("a", "b", "c"), size=n)),
            )
            empty = build_graph(n, [])
            formed = fit_formation(empty, curr, table, spec)
            direct = fit_mple(curr, table, spec)
            worst = max(worst, float(np.max(
                np.abs(formed.coefficients - direct.coefficients)
            )))
            worst = max(worst, float(np.max(
                np.abs(formed.standard_errors - direct.standard_errors)
            )))
    check(9, worst <= 1e-8,
          f"20 instances, empty previous panel: worst gap {worst:.1e} <= 1e-8")


def test_criterion_10_pooled_reduces_to_single_slice():
    rng = np.random.default_rng(10)
    g = random_graph(rng, 12, 0.3)
    for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
        g = g.with_dyad(i, j, True)
    spec = parse_terms(("edges", "mutual"))
    series = NetworkSeries(12, ("P0", "P1", "P2"), (g, g, g))
    point, _ = fit_btergm(series, None, spec, replications=3, seed=0)
    single = fit_mple(g, None, spec)
    worst = float(np.max(np.abs(point.coefficients - single.coefficients)))
    check(10, worst <= 1e-8,
          f"three identical panels: worst coefficient gap {worst:.1e} <= 1e-8")


def test_criterion_11_separation_is_flagged_not_fatal():
    ids = tuple(f"n{k}" for k in range(10))
    table = simple_table(ids, team=tuple("a" if k < 5 else "b" for k in range(10)))
    edges = [(i, j) for i in range(5) for j in range(5) if i != j]
    g = build_graph(10, edges)
    spec = parse_terms(("edges", "nodematch(team, a)"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_mple(g, None if table is None else table, spec)
    k = fit.term_names.index("nodematch(team, a)")
    flagged = bool(fit.separation_flags[k])
    extreme = abs(fit.coefficients[k]) > 15 or fit.standard_errors[k] > 100
    text = render_text(fit_table(fit, "Separated fit"))
    ok = flagged and extreme and "separation" in text
    check(11, ok, f"coefficient {fit.coefficients[k]:.2f}, SE "
                  f"{fit.standard_errors[k]:.1f}: flagged and rendered cleanly")


def test_criterion_12_seeded_runs_are_byte_identical(course_files, tmp_path):
    outs = {}
    for tag in ("a", "b"):
        t_dir = tmp_path / f"tergm_{tag}"
        assert quiet_cli(
            "tergm",
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--terms", "edges,mutual",
            "--replications", "4",
            "--seed", "9",
            "--out-dir", str(t_dir),
            "--format", "csv",
        ) == 0
        s_dir = tmp_path / f"sim_{tag}"
        assert quiet_cli(
            "simulate",
            "--nodes", "12",
            "--terms", "edges,mutual",
            "--theta=-1.5,1.0",
            "--samples", "3",
            "--burn-in", "400",
            "--thin", "60",
            "--seed", "4",
            "--out-dir", str(s_dir),
            "--format", "csv",
        ) == 0
        outs[tag] = (t_dir, s_dir)
    names_t = sorted(p for p in os.listdir(outs["a"][0]) if p.endswith(".csv"))
    names_s = sorted(p for p in os.listdir(outs["a"][1]) if p.endswith(".csv"))
    assert names_t == ["tergm.csv", "tergm_replicates.csv"]
    assert names_s == ["sample_000.csv", "sample_001.csv",
                       "sample_002.csv", "trace.csv"]
    same = all(
        filecmp.cmp(outs["a"][0] / p, outs["b"][0] / p, shallow=False)
        for p in names_t
    ) and all(
        filecmp.cmp(outs["a"][1] / p, outs["b"][1] / p, shallow=False)
        for p in names_s
    )
    check(12, same, f"{len(names_t) + len(names_s)} machine-readable files "
                    f"byte-identical across two seeded runs")


def test_criterion_13_full_battery_scale():
    rng = np.random.default_rng(13)
    g = random_graph(rng, 363, 1406 / (363 * 362))
    table = random_table(rng, tuple(f"p{k:04d}" for k in range(363)))
    spec = parse_terms(CROSS_SECTIONAL_TERMS)
    start = time.perf_counter()
    fit = fit_mple(g, table, spec)
    elapsed = time.perf_counter() - start
    ok = (elapsed < 60.0 and fit.n_dyads == 131406
          and len(fit.coefficients) == 22 and fit.converged)
    check(13, ok, f"22-term fit on 131,406 dyads in {elapsed:.1f}s < 60s, "
                  f"converged: {format_number(fit.converged)}")
