import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from netergm import (
    DimensionError,
    DirectedGraph,
    DyadDesign,
    EmptyDesignError,
    InvalidDyadError,
    NumericalError,
    RankDeficiencyError,
    ValidationError,
    build_design,
    build_graph,
    fit_logistic,
    fit_mple,
    parse_terms,
)
from netergm.estimator import (
    _rank,
    _sigmoid,
    _two_sided_p,
    akaike_criterion,
    bayes_criterion,
    null_pseudo_deviance,
)
from helpers import change_stats, random_graph, replicate_rows, simple_table
from irls_reference import irls_fit, logistic_log_likelihood


def synthetic_design(rng, rows, true_beta):
    p = len(true_beta)
    x = np.column_stack([np.ones(rows), rng.normal(size=(rows, p - 1))])
    y = (rng.random(rows) < expit(x @ np.asarray(true_beta))).astype(float)
    dyads = np.column_stack([np.zeros(rows, dtype=np.int64),
                             np.ones(rows, dtype=np.int64)])
    names = tuple(f"t{k}" for k in range(p))
    return DyadDesign(dyads=dyads, response=y, matrix=x, term_names=names)


class TestMetricHelpers:
    def test_null_deviance_formula(self):
        assert null_pseudo_deviance(10) == pytest.approx(20 * math.log(2))

    def test_information_criteria(self):
        assert akaike_criterion(100.0, 3) == pytest.approx(106.0)
        assert bayes_criterion(100.0, 3, 50) == pytest.approx(
            100.0 + 3 * math.log(50)
        )


class TestBuildDesign:
    def test_row_order_and_response(self):
        g = build_graph(3, [(0, 1), (2, 0)])
        design = build_design(g, None, parse_terms("edges"))
        expect = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        assert [tuple(r) for r in design.dyads] == expect
        np.testing.assert_array_equal(design.response, [1, 0, 0, 0, 1, 0])
        np.testing.assert_allclose(design.matrix, 1.0)

    def test_rows_match_change_stats(self):
        rng = np.random.default_rng(41)
        g = random_graph(rng, 7, 0.3)
        table = simple_table(
            tuple(f"n{k}" for k in range(7)),
            team=tuple("ab"[k % 2] for k in range(7)),
        )
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)", "nodematch(team)"))
        design = build_design(g, table, spec)
        for row, (i, j) in zip(design.matrix, design.dyads):
            np.testing.assert_allclose(
                row, change_stats(g, table, (int(i), int(j)), spec), atol=1e-10
            )

    def test_free_dyads_subset(self):
        g = build_graph(4, [(0, 1)])
        design = build_design(g, None, parse_terms("edges"),
                              free_dyads=[(0, 1), (2, 3)])
        assert [tuple(r) for r in design.dyads] == [(0, 1), (2, 3)]
        np.testing.assert_array_equal(design.response, [1, 0])

    def test_free_dyads_validation(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(InvalidDyadError):
            build_design(g, None, parse_terms("edges"), free_dyads=[(1, 1)])
        with pytest.raises(InvalidDyadError):
            build_design(g, None, parse_terms("edges"), free_dyads=[(0, 5)])
        with pytest.raises(EmptyDesignError):
            build_design(g, None, parse_terms("edges"), free_dyads=[])

    def test_design_shape_validation(self):
        with pytest.raises(DimensionError):
            DyadDesign(
                dyads=np.zeros((3, 2), dtype=np.int64),
                response=np.zeros(4),
                matrix=np.zeros((4, 1)),
                term_names=("edges",),
            )


class TestFitAgainstReference:
    def test_twenty_random_designs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            rows = int(rng.integers(150, 400))
            p = int(rng.integers(2, 6))
            beta = rng.normal(scale=0.8, size=p)
            design = synthetic_design(rng, rows, beta)
            fit = fit_logistic(design)
            ref_coef, ref_cov = irls_fit(design.matrix, design.response)
            assert fit.converged
            np.testing.assert_allclose(fit.coefficients, ref_coef, rtol=1e-6)
            np.testing.assert_allclose(
                fit.standard_errors, np.sqrt(np.diag(ref_cov)), rtol=1e-6
            )

    def test_edges_only_closed_form(self):
        rng = np.random.default_rng(43)
        spec = parse_terms("edges")
        done = 0
        while done < 50:
            n = int(rng.integers(3, 12))
            g = random_graph(rng, n, rng.random())
            d = n * (n - 1)
            e = g.edge_count
            if e == 0 or e == d:
                continue
            fit = fit_mple(g, None, spec)
            np.testing.assert_allclose(
                fit.coefficients[0], math.log(e / (d - e)), atol=1e-10
            )
            done += 1

    def test_likelihood_never_below_reference(self):
        # the in-house fit must reach at least the reference optimum
        rng = np.random.default_rng(44)
        design = synthetic_design(rng, 300, [-0.5, 1.0, 0.3])
        fit = fit_logistic(design)
        ref_coef, _ = irls_fit(design.matrix, design.response)
        own = logistic_log_likelihood(design.matrix, design.response,
                                      fit.coefficients)
        ref = logistic_log_likelihood(design.matrix, design.response, ref_coef)
        assert own >= ref - 1e-9


class TestFitDiagnostics:
    def test_metric_identities(self):
        rng = np.random.default_rng(45)
        g = random_graph(rng, 10, 0.3)
        fit = fit_mple(g, None, parse_terms(("edges", "mutual")))
        d = 10 * 9
        assert fit.n_dyads == d
        assert fit.null_deviance == pytest.approx(2 * d * math.log(2))
        assert fit.aic == pytest.approx(fit.residual_deviance + 2 * fit.n_params)
        assert fit.bic == pytest.approx(
            fit.residual_deviance + fit.n_params * math.log(d)
        )
        assert fit.log_likelihood == pytest.approx(-fit.residual_deviance / 2)
        np.testing.assert_allclose(
            fit.exp_coefficients, np.exp(fit.coefficients)
        )
        assert fit.residual_deviance <= fit.null_deviance + 1e-9

    def test_p_values_are_two_sided_normal(self):
        rng = np.random.default_rng(46)
        design = synthetic_design(rng, 250, [0.2, -0.7])
        fit = fit_logistic(design)
        z = np.abs(fit.coefficients / fit.standard_errors)
        np.testing.assert_allclose(fit.p_values, 2 * norm.sf(z), atol=1e-12)

    def test_all_zero_column_dropped(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        table = simple_table(
            tuple("abcd"),
            levels={"team": ("blue", "red")},
            team=("blue",) * 4,
        )
        # nobody is red, so the level indicator column is identically zero
        spec = parse_terms(("edges", "nodematch(team, red)"))
        with pytest.warns(UserWarning, match="all-zero"):
            fit = fit_mple(g, table, spec)
        assert fit.dropped_terms == ("nodematch(team, red)",)
        assert np.isnan(fit.coefficients[1])
        assert np.isfinite(fit.coefficients[0])
        assert fit.n_params == 1

    def test_every_column_zero_raises(self):
        g = build_graph(4, [(0, 1)])
        table = simple_table(
            tuple("abcd"),
            levels={"team": ("blue", "red")},
            team=("blue",) * 4,
        )
        with pytest.raises(RankDeficiencyError):
            fit_mple(g, table, parse_terms(("nodematch(team, red)",)))

    def test_duplicate_column_raises_with_name(self):
        rng = np.random.default_rng(47)
        x = np.column_stack([np.ones(60), rng.normal(size=60)])
        x = np.column_stack([x, x[:, 1]])
        y = (rng.random(60) < 0.4).astype(float)
        dyads = np.column_stack([np.zeros(60, dtype=np.int64),
                                 np.ones(60, dtype=np.int64)])
        design = DyadDesign(dyads, y, x, ("a", "b", "b_copy"))
        with pytest.raises(RankDeficiencyError, match="b_copy"):
            fit_logistic(design)

    def test_constant_column_beside_edges_raises_with_name(self):
        g = build_graph(4, [(0, 1), (1, 2)])
        table = simple_table(tuple("abcd"), team=("blue",) * 4)
        # everyone shares a team, so nodematch(team) is the edges column again
        with pytest.raises(RankDeficiencyError, match=r"nodematch\(team\)"):
            fit_mple(g, table, parse_terms(("edges", "nodematch(team)")))

    def test_constant_response_is_boundary_not_crash(self):
        g = DirectedGraph(5, frozenset())
        # boundary fits warn twice: constant response, then separation
        with pytest.warns(UserWarning) as rec:
            fit = fit_mple(g, None, parse_terms("edges"))
        assert any("constant" in str(w.message) for w in rec)
        assert not fit.converged
        assert fit.separation_flags[0]
        assert fit.coefficients[0] < -15

    def test_separation_flagged_without_crash(self):
        # ties exist exactly where the indicator column is 1
        ids = tuple(f"n{k}" for k in range(10))
        team = tuple("a" if k < 5 else "b" for k in range(10))
        table = simple_table(ids, team=team)
        edges = [(i, j) for i in range(5) for j in range(5) if i != j]
        g = build_graph(10, edges)
        spec = parse_terms(("edges", "nodematch(team, a)"))
        with pytest.warns(UserWarning, match="separation"):
            fit = fit_mple(g, table, spec)
        assert fit.separation_flags.any()
        assert np.isfinite(fit.coefficients).all()

    def test_iteration_cap_respected(self):
        rng = np.random.default_rng(48)
        design = synthetic_design(rng, 200, [0.5, -1.0, 0.8])
        fit = fit_logistic(design, max_iterations=1)
        assert not fit.converged
        assert fit.iterations <= 1

    def test_capped_fit_reports_information_at_returned_theta(self):
        rng = np.random.default_rng(48)
        design = synthetic_design(rng, 200, [0.5, -1.0, 0.8])
        assert fit_logistic(design).iterations > 2
        fit = fit_logistic(design, max_iterations=2)
        assert not fit.converged and fit.iterations == 2
        x = design.matrix
        mu = expit(x @ fit.coefficients)
        info = (x * (mu * (1 - mu))[:, None]).T @ x
        np.testing.assert_allclose(fit.covariance, np.linalg.inv(info), rtol=1e-10)

    def test_fit_mple_equals_fit_logistic_on_same_design(self):
        rng = np.random.default_rng(49)
        g = random_graph(rng, 8, 0.35)
        spec = parse_terms(("edges", "mutual"))
        a = fit_mple(g, None, spec)
        b = fit_logistic(build_design(g, None, spec))
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-14)
        assert a.residual_deviance == pytest.approx(b.residual_deviance)


def planted_design(rng, rows, p):
    """Integer design whose column k is exactly 2*x[:, a] - x[:, b], a, b < k."""
    x = rng.integers(-3, 4, size=(rows, p)).astype(float)
    x[:, 0] = 1.0
    k = int(rng.integers(2, p))
    a, b = rng.choice(k, size=2, replace=False)
    x[:, k] = 2.0 * x[:, a] - x[:, b]
    return x, k


class TestWeights:
    """Integer weights fit exactly as replicated rows would."""

    @staticmethod
    def assert_same_fit(weighted, replicated):
        for field in ("coefficients", "standard_errors", "p_values"):
            np.testing.assert_allclose(
                getattr(weighted, field), getattr(replicated, field),
                rtol=1e-8, atol=1e-12, err_msg=field,
            )
        for field in ("null_deviance", "residual_deviance", "aic", "bic"):
            assert getattr(weighted, field) == pytest.approx(
                getattr(replicated, field), rel=1e-8
            ), field
        assert weighted.n_dyads == replicated.n_dyads
        assert weighted.n_params == replicated.n_params
        assert weighted.converged == replicated.converged
        assert weighted.dropped_terms == replicated.dropped_terms
        np.testing.assert_array_equal(
            weighted.separation_flags, replicated.separation_flags
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_integer_weights_match_replicated_rows(self, seed):
        rng = np.random.default_rng(200 + seed)
        design = synthetic_design(rng, 150, [0.3, -0.8, 0.5, 0.2])
        counts = rng.integers(0, 4, size=150)
        assert (counts == 0).any()
        self.assert_same_fit(
            fit_logistic(design, weights=counts),
            fit_logistic(replicate_rows(design, counts)),
        )

    def test_unit_weights_are_the_unweighted_fit(self):
        design = synthetic_design(np.random.default_rng(205), 120, [0.4, -0.6])
        a = fit_logistic(design)
        b = fit_logistic(design, weights=np.ones(120))
        for field in ("coefficients", "standard_errors", "p_values", "covariance"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert (a.residual_deviance, a.null_deviance, a.bic) == (
            b.residual_deviance, b.null_deviance, b.bic
        )
        assert a.n_dyads == b.n_dyads == 120 and isinstance(b.n_dyads, int)

    def test_zero_weights_that_empty_a_column_drop_it(self):
        rng = np.random.default_rng(206)
        design = synthetic_design(rng, 100, [0.2, -0.5])
        x = np.column_stack([design.matrix, np.r_[np.ones(6), np.zeros(94)]])
        design = dataclasses.replace(design, matrix=x, term_names=("a", "b", "rare"))
        counts = rng.integers(1, 3, size=100)
        counts[:6] = 0
        with pytest.warns(UserWarning, match="all-zero"):
            weighted = fit_logistic(design, weights=counts)
        with pytest.warns(UserWarning, match="all-zero"):
            replicated = fit_logistic(replicate_rows(design, counts))
        assert weighted.dropped_terms == ("rare",)
        self.assert_same_fit(weighted, replicated)

    def test_zero_weights_that_make_a_column_collinear_raise(self):
        rng = np.random.default_rng(207)
        design = synthetic_design(rng, 100, [0.2, -0.5])
        twin = design.matrix[:, 1].copy()
        twin[:4] += 1.0
        x = np.column_stack([design.matrix, twin])
        design = dataclasses.replace(design, matrix=x, term_names=("a", "b", "twin"))
        assert _rank(design.matrix) == 3  # full rank while the first rows count
        counts = rng.integers(1, 3, size=100)
        counts[:4] = 0
        with pytest.raises(RankDeficiencyError, match="dependent columns: twin$"):
            fit_logistic(design, weights=counts)
        with pytest.raises(RankDeficiencyError, match="dependent columns: twin$"):
            fit_logistic(replicate_rows(design, counts))

    def test_constant_response_on_weighted_rows_is_boundary(self):
        rng = np.random.default_rng(208)
        design = synthetic_design(rng, 80, [0.0, 0.7])
        counts = np.where(design.response == 1.0, 0, 2)
        fits = []
        for args in ((design, counts), (replicate_rows(design, counts), None)):
            with pytest.warns(UserWarning) as rec:
                fits.append(fit_logistic(args[0], weights=args[1]))
            assert any("response is constant" in str(w.message) for w in rec)
        assert not fits[0].converged
        self.assert_same_fit(*fits)

    def test_wrong_length_raises(self):
        design = synthetic_design(np.random.default_rng(209), 30, [0.1, 0.2])
        with pytest.raises(DimensionError, match="weights"):
            fit_logistic(design, weights=np.ones(29))

    @pytest.mark.parametrize(
        "bad", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"]
    )
    def test_bad_entry_raises(self, bad):
        design = synthetic_design(np.random.default_rng(210), 30, [0.1, 0.2])
        weights = np.ones(30)
        weights[7] = bad
        with pytest.raises(ValidationError, match="finite and non-negative"):
            fit_logistic(design, weights=weights)

    def test_nothing_to_fit_raises(self):
        design = synthetic_design(np.random.default_rng(211), 30, [0.1, 0.2])
        with pytest.raises(EmptyDesignError, match="no rows of positive weight"):
            fit_logistic(design, weights=np.zeros(30))
        empty = DyadDesign(
            np.zeros((0, 2), dtype=np.int64), np.zeros(0), np.zeros((0, 2)), ("a", "b")
        )
        with pytest.raises(EmptyDesignError, match="no rows of positive weight"):
            fit_logistic(empty)


def test_fit_holds_less_than_two_copies_of_the_design():
    rng = np.random.default_rng(212)
    # column-major, as the design builders write it
    x = rng.standard_normal((8, 40000)).T
    y = (rng.random(40000) < expit(x @ np.linspace(-0.5, 0.5, 8))).astype(float)
    dyads = np.zeros((40000, 2), dtype=np.int64)
    design = DyadDesign(dyads, y, x, tuple(f"t{k}" for k in range(8)))
    tracemalloc.start()
    try:
        fit_logistic(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * design.matrix.nbytes


class TestNumpyKernelsAgainstScipy:
    """The numpy sigmoid, p-values and rank rule against scipy and numpy."""

    def test_sigmoid_matches_expit(self):
        eta = np.concatenate([
            np.linspace(-800.0, 800.0, 4001),
            [-np.inf, -745.0, -40.0, -1e-300, 0.0, 1e-300, 40.0, 745.0, np.inf],
        ])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            mu = _sigmoid(eta)
        # scipy's 1 / (1 + exp(-eta)) flushes to 0 below eta of about -744,
        # where the true value is subnormal; everywhere else compare relative
        np.testing.assert_allclose(
            mu, expit(eta), rtol=1e-15, atol=np.finfo(np.float64).tiny
        )
        assert mu[0] == 0.0 and mu[-1] == 1.0

    def test_p_values_at_infinite_z_and_nan_se(self):
        theta = np.array([1.5, -2.0, 0.5, 0.0, 3.0, -0.4])
        se = np.array([0.0, 0.0, np.nan, 1.0, 2.0, 0.3])
        p = _two_sided_p(theta, se)
        np.testing.assert_array_equal(p[:2], 0.0)
        assert np.isnan(p[2])
        np.testing.assert_allclose(
            p[3:], 2 * norm.sf(np.abs(theta[3:] / se[3:])), rtol=1e-14
        )

    def test_planted_dependency_is_named(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            rows, p = int(rng.integers(30, 200)), int(rng.integers(3, 9))
            x, k = planted_design(rng, rows, p)
            y = (rng.random(rows) < 0.4).astype(float)
            dyads = np.zeros((rows, 2), dtype=np.int64)
            names = tuple(f"c{j}" for j in range(p))
            design = DyadDesign(dyads, y, x, names)
            with pytest.raises(RankDeficiencyError) as err:
                fit_logistic(design)
            # the planted column is the last of its dependent set
            assert str(err.value).endswith(f"dependent columns: c{k}")

    def test_rank_agrees_with_matrix_rank(self):
        rng = np.random.default_rng(62)
        for _ in range(25):
            rows, p = int(rng.integers(30, 200)), int(rng.integers(3, 9))
            full = rng.normal(size=(rows, p))
            planted, _ = planted_design(rng, rows, p)
            assert _rank(full) == np.linalg.matrix_rank(full) == p
            assert _rank(planted) == np.linalg.matrix_rank(planted) == p - 1

    def test_non_finite_design_raises(self):
        x = np.column_stack([np.ones(5), [0.0, 1.0, np.nan, 1.0, 0.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        design = DyadDesign(np.zeros((5, 2), dtype=np.int64), y, x, ("a", "b"))
        with pytest.raises(NumericalError, match="non-finite"):
            fit_logistic(design)
