import dataclasses
import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import norm

from netergm import (
    ConfigError,
    DimensionError,
    DirectedGraph,
    DyadDesign,
    EmptyDesignError,
    NetworkModelError,
    NumericalError,
    RankDeficiencyError,
    ValidationError,
    build_design,
    build_graph,
    fit_btergm,
    fit_logistic,
    fit_mple,
    largest_component,
    parse_terms,
)
from netergm import config, estimator, ingest
from netergm.estimator import (
    _BLOCK_ROWS,
    _blocks,
    _design,
    _distinct,
    _evaluate_rows,
    _fit_rows,
    _freeze,
    _full_rank_certificate,
    _logistic,
    _rank,
    _record_row_groups,
    _scan,
    _split_runs,
    _two_sided_p,
    _unique_rows,
    akaike_criterion,
    bayes_criterion,
    null_pseudo_deviance,
)
from netergm.terms import _NO_KEY, _add_key_bit
from helpers import (
    assert_same_scan,
    change_stats,
    large_mple_network,
    random_graph,
    replicate_rows,
    simple_table,
    sorted_gather_unique_rows,
)
from irls_reference import irls_fit, logistic_log_likelihood


def synthetic_design(rng, rows, true_beta):
    p = len(true_beta)
    x = np.column_stack([np.ones(rows), rng.normal(size=(rows, p - 1))])
    y = (rng.random(rows) < expit(x @ np.asarray(true_beta))).astype(float)
    names = tuple(f"t{k}" for k in range(p))
    return DyadDesign(response=y, matrix=x, term_names=names)


def information(x, theta):
    """Observed information of the logistic fit of ``x`` at ``theta``."""
    mu = expit(x @ theta)
    return (x * (mu * (1.0 - mu))[:, None]).T @ x


def assert_identical_fits(a, b):
    """Every field of two FitResults equal, NaN matching NaN."""
    for f in dataclasses.fields(a):
        np.testing.assert_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)


def in_design_order(rows, theta):
    """A theta of Newton's column order (``rows.order``) in design order."""
    return theta[np.argsort(rows.order)]


def qr_only(info, m2, ws):
    """A rank certificate that never holds, so the QR always decides."""
    return False


def fit_checked(design, **options):
    """``fit_logistic``, checked against the oracle whose rank check always
    runs the row-blocked QR: the same FitResult, or the same error with the
    same message, which is raised again."""
    outcomes = []
    for certificate in (estimator._full_rank_certificate, qr_only):
        with mock.patch.object(estimator, "_full_rank_certificate", certificate):
            try:
                outcomes.append(fit_logistic(design, **options))
            except NetworkModelError as exc:
                outcomes.append(exc)
    fit, oracle = outcomes
    if isinstance(fit, Exception):
        assert type(fit) is type(oracle) and str(fit) == str(oracle), (fit, oracle)
        raise fit
    assert not isinstance(oracle, Exception), oracle
    assert_identical_fits(fit, oracle)
    return fit


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
        assert [tuple(r) for r in np.argwhere(~np.eye(3, dtype=bool))] == expect
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
        for row, (i, j) in zip(design.matrix, np.argwhere(~np.eye(7, dtype=bool))):
            np.testing.assert_allclose(
                row, change_stats(g, table, (int(i), int(j)), spec), atol=1e-10
            )

    def test_one_node_has_no_design(self):
        with pytest.raises(EmptyDesignError):
            build_design(build_graph(1, []), None, parse_terms("edges"))

    def test_a_mask_picks_its_dyads_in_row_major_order(self):
        rng = np.random.default_rng(43)
        stats_g, response_g = random_graph(rng, 6, 0.3), random_graph(rng, 6, 0.3)
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)"))
        mask = rng.random((6, 6)) < 0.4
        np.fill_diagonal(mask, False)
        design, (bits, keyed) = _design(stats_g, response_g, None, spec, mask)
        np.testing.assert_array_equal(
            design.response, [response_g.has_edge(i, j) for i, j in np.argwhere(mask)]
        )
        # mutual, built from a bool matrix, is the key's one bit
        assert keyed == (1,) and bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, design.matrix[:, 1])
        # the statistics are read on stats_g, column-major
        assert design.matrix.flags.f_contiguous
        full = build_design(stats_g, None, spec)
        on = mask[~np.eye(6, dtype=bool)]
        np.testing.assert_array_equal(design.matrix, full.matrix[on])

    def test_design_shape_validation(self):
        with pytest.raises(DimensionError):
            DyadDesign(
                response=np.zeros(4),
                matrix=np.zeros((3, 1)),
                term_names=("edges",),
            )

    @pytest.mark.parametrize(
        "response",
        [
            np.arange(50) % 3,  # interaction counts 0, 1 and 2
            np.full(50, 0.5),
            np.where(np.arange(50) == 7, np.nan, np.arange(50) % 2),
        ],
        ids=["counts", "half", "nan"],
    )
    def test_a_response_other_than_0_and_1_is_rejected(self, response):
        x = np.column_stack([np.ones(50), np.random.default_rng(53).normal(size=50)])
        with pytest.raises(ValidationError, match="response must hold only 0 and 1"):
            DyadDesign(response, x, ("edges", "z"))
        # a 0/1 response of either dtype is a design
        DyadDesign(np.arange(50) % 2, x, ("edges", "z"))
        DyadDesign((np.arange(50) % 2).astype(float), x, ("edges", "z"))


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
        design = DyadDesign(y, x, ("a", "b", "b_copy"))
        with pytest.raises(RankDeficiencyError, match="b_copy"):
            fit_checked(design)

    def test_constant_column_beside_edges_raises_with_name(self):
        g = build_graph(4, [(0, 1), (1, 2)])
        table = simple_table(tuple("abcd"), team=("blue",) * 4)
        # everyone shares a team, so nodematch(team) is the edges column again
        spec = parse_terms(("edges", "nodematch(team)"))
        with pytest.raises(RankDeficiencyError, match=r"nodematch\(team\)"):
            fit_checked(build_design(g, table, spec))

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

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"max_iterations": -1}, "max_iterations must be >= 0"),
            ({"max_iterations": 2.0}, "max_iterations must be an integer"),
            ({"max_iterations": True}, "max_iterations must be an integer"),
            ({"tolerance": float("nan")}, "tolerance must be finite and >= 0"),
            ({"tolerance": float("inf")}, "tolerance must be finite and >= 0"),
            ({"tolerance": -1e-8}, "tolerance must be finite and >= 0"),
            ({"tolerance": "1e-8"}, "tolerance must be finite and >= 0"),
        ],
    )
    def test_out_of_range_options_raise(self, options, message):
        design = synthetic_design(np.random.default_rng(48), 50, [0.5, -1.0])
        with pytest.raises(ConfigError, match=message):
            fit_logistic(design, **options)

    def test_zero_cap_and_numpy_integer_cap(self):
        design = synthetic_design(np.random.default_rng(48), 200, [0.5, -1.0, 0.8])
        fit = fit_logistic(design, max_iterations=0, tolerance=0.0)
        assert not fit.converged and fit.iterations == 0
        # the intercept-only estimate: t0 is the column of ones
        ties = int(design.response.sum())
        assert fit.coefficients[0] == math.log(ties) - math.log(200 - ties)
        np.testing.assert_array_equal(fit.coefficients[1:], 0.0)
        assert_identical_fits(
            fit_logistic(design, max_iterations=np.int64(3)),
            fit_logistic(design, max_iterations=3),
        )

    def test_stationary_point_at_the_cap_converges(self):
        design = synthetic_design(np.random.default_rng(48), 200, [0.5, -1.0, 0.8])
        free = fit_logistic(design)
        assert free.converged and free.iterations == 5
        capped = fit_logistic(design, max_iterations=5)
        assert capped.converged and capped.max_abs_score < 1e-8
        assert_identical_fits(capped, free)
        # a separated coefficient still drifts at the cap
        ids = tuple(f"n{k}" for k in range(10))
        table = simple_table(ids, team=tuple("a" if k < 5 else "b" for k in range(10)))
        g = build_graph(10, [(i, j) for i in range(5) for j in range(5) if i != j])
        drifting = fit_mple(g, table, parse_terms(("edges", "nodematch(team, a)")),
                            max_iterations=5)
        assert not drifting.converged and drifting.iterations == 5
        assert drifting.max_abs_score > 1e-8

    def test_capped_fit_reports_information_at_returned_theta(self):
        rng = np.random.default_rng(48)
        design = synthetic_design(rng, 200, [0.5, -1.0, 0.8])
        assert fit_logistic(design).iterations > 2
        fit = fit_logistic(design, max_iterations=2)
        assert not fit.converged and fit.iterations == 2
        info = information(design.matrix, fit.coefficients)
        np.testing.assert_allclose(fit.covariance, np.linalg.inv(info), rtol=1e-10)

    def test_newton_record(self):
        # far starts make Newton overshoot, so some steps are halved
        rng = np.random.default_rng(50)
        halved = 0
        for start, tolerance in [
            ([0, 0], 1e-8), ([5, 5], 1e-8), ([-5, 8], 1e-6), ([0, 10], 1e-8)
        ]:
            design = synthetic_design(rng, 200, [0.5, -1.0])
            with mock.patch.object(
                estimator, "_evaluate_rows", wraps=estimator._evaluate_rows
            ) as spy:
                fit = fit_logistic(design, tolerance=tolerance, _start=start)
            assert fit.converged
            # each evaluation is the start, an accepted step or a halving
            assert spy.call_count == len(fit.ll_path) + fit.step_halvings
            assert len(fit.ll_path) == fit.iterations + 1
            # the line search lets a step lose at most 1e-10 to rounding
            assert (np.diff(fit.ll_path) >= -1e-10).all()
            assert fit.ll_path[-1] == fit.log_likelihood
            x, y = design.matrix, design.response
            score = x.T @ (y - expit(x @ fit.coefficients))
            assert fit.max_abs_score < tolerance
            assert fit.max_abs_score == pytest.approx(np.abs(score).max(), abs=1e-10)
            halved += fit.step_halvings
        assert halved > 0

    def test_newton_record_of_capped_and_boundary_fits(self):
        rng = np.random.default_rng(48)
        capped = fit_logistic(
            synthetic_design(rng, 200, [0.5, -1.0, 0.8]), max_iterations=2
        )
        with pytest.warns(UserWarning):
            boundary = fit_mple(DirectedGraph(5, frozenset()), None, parse_terms("edges"))
        for fit in (capped, boundary):
            assert not fit.converged
            assert len(fit.ll_path) == fit.iterations + 1
            assert (np.diff(fit.ll_path) >= -1e-10).all()
            assert fit.ll_path[-1] == fit.log_likelihood

    def test_halved_steps_leave_the_information_of_the_returned_theta(self, monkeypatch):
        # the far starts of test_newton_record: every halved candidate is
        # evaluated in full, and its information must be dropped with it
        real = estimator._evaluate_rows
        rng = np.random.default_rng(50)
        halved = 0
        for start, tolerance in [
            ([0, 0], 1e-8), ([5, 5], 1e-8), ([-5, 8], 1e-6), ([0, 10], 1e-8)
        ]:
            design = synthetic_design(rng, 200, [0.5, -1.0])
            evaluations = []

            def record(rows, theta):
                out = real(rows, theta)
                evaluations.append((in_design_order(rows, theta), out[0]))
                return out

            monkeypatch.setattr(estimator, "_evaluate_rows", record)
            fit = fit_logistic(design, tolerance=tolerance, _start=start)
            rejected = [t for t, ll in evaluations if ll not in fit.ll_path]
            assert len(rejected) == fit.step_halvings
            x = design.matrix
            cov = np.linalg.inv(information(x, fit.coefficients))
            np.testing.assert_allclose(fit.covariance, cov, rtol=1e-10)
            for theta in rejected:
                cov = np.linalg.inv(information(x, theta))
                assert not np.allclose(fit.covariance, cov, rtol=1e-6)
            halved += fit.step_halvings
        assert halved > 0

    def test_failed_line_search_keeps_the_information_of_the_returned_theta(
        self, monkeypatch
    ):
        # after the first step every candidate loses and reports a doubled
        # information, so the line search gives up and any use of a
        # rejected candidate's information shows in the covariance
        real = estimator._evaluate_rows
        thetas = []

        def losing(rows, theta):
            ll, score, info = real(rows, theta)
            thetas.append(in_design_order(rows, theta))
            return (ll, score, info) if len(thetas) <= 2 else (-np.inf, score, 2 * info)

        monkeypatch.setattr(estimator, "_evaluate_rows", losing)
        design = synthetic_design(np.random.default_rng(48), 200, [0.5, -1.0, 0.8])
        fit = fit_logistic(design)
        assert not fit.converged
        assert fit.iterations == 2 and fit.step_halvings == 30
        assert len(thetas) == 2 + 30 and len(fit.ll_path) == 2
        np.testing.assert_array_equal(fit.coefficients, thetas[1])
        cov = np.linalg.inv(information(design.matrix, thetas[1]))
        np.testing.assert_allclose(fit.covariance, cov, rtol=1e-10)

    @pytest.mark.parametrize("noise", [1.0, 1e-4])
    def test_condition_number_of_the_information(self, noise):
        # at noise 1e-4 the third column nearly repeats the second
        rng = np.random.default_rng(75)
        rows = 500
        x = np.column_stack([np.ones(rows), rng.normal(size=(rows, 2))])
        x[:, 2] = x[:, 1] + noise * x[:, 2]
        y = (rng.random(rows) < expit(x @ [-0.5, 0.8, 0.2])).astype(float)
        design = DyadDesign(y, x, ("a", "b", "c"))
        with warnings.catch_warnings():
            # the near repeat gives b and c standard errors past SE_THRESHOLD
            warnings.simplefilter("ignore")
            fit = fit_logistic(design)
        cond = np.linalg.cond(information(x, fit.coefficients))
        assert fit.condition_number == pytest.approx(cond, rel=1e-6)
        assert cond < 100.0 if noise == 1.0 else cond > 1e6

    def test_fit_mple_equals_fit_logistic_on_same_design(self):
        rng = np.random.default_rng(49)
        g = random_graph(rng, 8, 0.35)
        spec = parse_terms(("edges", "mutual"))
        a = fit_mple(g, None, spec)
        b = fit_logistic(build_design(g, None, spec))
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-14)
        assert a.residual_deviance == pytest.approx(b.residual_deviance)


@st.composite
def designs_with_a_ones_column(draw):
    """A logistic design of normal columns with a column of ones at a drawn
    place, its response drawn at drawn coefficients, and weights that are
    None or drawn integers with some zeros."""
    rows, p = draw(st.integers(20, 300)), draw(st.integers(1, 5))
    ones = draw(st.integers(0, p - 1))
    beta = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=p, max_size=p)))
    beta[ones] = draw(st.floats(-4.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(rows, p))
    x[:, ones] = 1.0
    y = (rng.random(rows) < expit(x @ beta)).astype(np.int8)
    weights = None
    if draw(st.booleans()):
        weights = rng.integers(0, 4, size=rows).astype(np.float64)
    names = tuple(f"t{k}" for k in range(p))
    return DyadDesign(y, np.asfortranarray(x), names), weights


def first_evaluation(design, **options):
    """The theta of the first ``_evaluate_rows`` of a fit of ``design``, in
    design order: where Newton starts."""
    with mock.patch.object(estimator, "_evaluate_rows", wraps=_evaluate_rows) as spy:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            fit_logistic(design, **options)
    return in_design_order(*spy.call_args_list[0].args)


class TestInterceptStart:
    """A cold fit starts at the intercept-only estimate where the design has
    a column of ones, and at zero elsewhere."""

    def test_an_intercept_only_design_converges_at_once(self):
        rng = np.random.default_rng(240)
        for g in (random_graph(rng, 30, 0.1), random_graph(rng, 100, 0.01)):
            fit = fit_mple(g, None, parse_terms("edges"))
            assert fit.converged and fit.iterations == 0 and len(fit.ll_path) == 1
            m, d = len(g.edges), g.node_count * (g.node_count - 1)
            assert fit.coefficients[0] == pytest.approx(math.log(m / (d - m)), rel=1e-14)
            assert fit.standard_errors[0] == pytest.approx(
                math.sqrt(1 / m + 1 / (d - m)), rel=1e-10
            )

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(designs_with_a_ones_column())
    def test_agrees_with_the_zero_start_in_no_more_passes(self, case):
        design, weights = case
        p = len(design.term_names)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                fits = [
                    fit_logistic(design, weights=weights, tolerance=1e-10, _start=start)
                    for start in (None, np.zeros(p))
                ]
            except RankDeficiencyError:
                assume(False)
        cold, zero = fits
        assume(zero.converged and not zero.separation_flags.any())
        assert cold.converged and cold.iterations <= zero.iterations
        scale = max(1.0, float(np.abs(zero.coefficients).max()))
        assert np.abs(cold.coefficients - zero.coefficients).max() <= 1e-9 * scale
        np.testing.assert_allclose(
            cold.standard_errors, zero.standard_errors, rtol=1e-8
        )

    def test_only_the_first_column_of_ones_on_the_fitted_rows_moves(self):
        rng = np.random.default_rng(241)
        y = (rng.random(120) < 0.3).astype(np.int8)
        b = rng.normal(size=120)
        # a is 1 on the fitted rows only: rows 0-9 weigh nothing
        a = np.ones(120)
        a[:10] = 2.0
        w = np.ones(120)
        w[:10] = 0.0
        logit = math.log(y[10:].sum()) - math.log(110 - y[10:].sum())
        design = DyadDesign(y, np.column_stack([b, a]), ("b", "a"))
        np.testing.assert_array_equal(first_evaluation(design, weights=w), [0.0, logit])
        # two columns of ones: the first starts at the estimate, and the fit
        # then names the second as dependent
        x = np.column_stack([b, a, np.ones(120)])
        design = DyadDesign(y, x, ("b", "a", "a_copy"))
        with mock.patch.object(estimator, "_evaluate_rows", wraps=_evaluate_rows) as spy:
            with pytest.raises(RankDeficiencyError, match="dependent columns: a_copy$"):
                fit_logistic(design, weights=w)
        np.testing.assert_array_equal(
            in_design_order(*spy.call_args_list[0].args), [0.0, logit, 0.0]
        )

    @pytest.mark.parametrize("case", ["no ones", "constant twos", "no ties", "all ties"])
    def test_the_zero_start_stays_without_an_intercept_or_at_the_boundary(self, case):
        design = synthetic_design(np.random.default_rng(242), 80, [-0.5, 0.7])
        x, y = design.matrix.copy(), design.response.copy()
        if case == "no ones":
            x[0, 0] = 0.0
        elif case == "constant twos":
            x[:, 0] = 2.0
        else:
            y[:] = 1.0 if case == "all ties" else 0.0
        design = dataclasses.replace(design, matrix=x, response=y)
        np.testing.assert_array_equal(first_evaluation(design), [0.0, 0.0])
        # and the path is the zero start's, bit for bit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert_identical_fits(
                fit_logistic(design), fit_logistic(design, _start=np.zeros(2))
            )

    def test_a_given_start_is_kept(self):
        design = synthetic_design(np.random.default_rng(243), 80, [-0.5, 0.7])
        np.testing.assert_array_equal(
            first_evaluation(design, _start=[0.25, -0.5]), [0.25, -0.5]
        )


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

    @pytest.mark.parametrize("case", [*range(5), "tiny_column"])
    def test_integer_weights_match_replicated_rows(self, case):
        if case == "tiny_column":
            # 20 rows, one of them with a b entry at 1e-12 of the largest
            # singular value: noise for the 200,000 copies, so for the weights
            x = np.column_stack([np.ones(20), np.zeros(20)])
            x[0, 1] = 1e-12 * np.sqrt(20.0)
            design = DyadDesign(np.arange(20) % 2, x, ("a", "b"))
            counts = np.full(20, 10**4)
            messages = []
            for args in ((design, counts), (replicate_rows(design, counts), None)):
                with pytest.raises(RankDeficiencyError, match="dependent columns: b$") as exc:
                    fit_checked(args[0], weights=args[1])
                messages.append(str(exc.value))
            assert messages[0] == messages[1]
            return
        rng = np.random.default_rng(200 + case)
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
        assert rank(design.matrix) == 3  # full rank while the first rows count
        counts = rng.integers(1, 3, size=100)
        counts[:4] = 0
        with pytest.raises(RankDeficiencyError, match="dependent columns: twin$"):
            fit_checked(design, weights=counts)
        with pytest.raises(RankDeficiencyError, match="dependent columns: twin$"):
            fit_checked(replicate_rows(design, counts))

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
        empty = DyadDesign(np.zeros(0), np.zeros((0, 2)), ("a", "b"))
        with pytest.raises(EmptyDesignError, match="no rows of positive weight"):
            fit_logistic(empty)


@st.composite
def designs_with_duplicates(draw):
    """A small-integer design whose rows are drawn, with repeats, from a few
    base rows."""
    p = draw(st.integers(1, 4))
    row = st.tuples(
        st.lists(st.integers(-2, 2), min_size=p, max_size=p), st.integers(0, 1)
    )
    base = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=40))
    x = np.asfortranarray([base[k][0] for k in picks], dtype=np.float64)
    y = np.array([base[k][1] for k in picks], dtype=np.int8)
    return x, y


@st.composite
def keyed_designs(draw):
    """A design whose 0/1 columns, built from bool vectors as the term
    table builds ``mutual`` and ``nodematch``, are the bits of its row key,
    mixed with float columns that hold zeros of either sign and NaN, and at
    times a float response whose zeros have either sign. Rows are drawn
    with repeats from a few base rows, 1 and 2 rows included; past 64 bool
    columns the key is full and the rest are plain columns. Returns
    ``(x, y, key)``."""
    rows = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 40)))
    n_bool = draw(st.sampled_from([0, 1, 3, 9, 20, 70]))
    n_float = draw(st.integers(0 if n_bool else 1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = int(rng.integers(1, 7))
    pick = rng.integers(0, base, size=rows)
    values = rng.choice([0.0, 1.0, 2.5, -1.0, np.nan], p=[0.4, 0.3, 0.1, 0.1, 0.1],
                        size=(base, n_float))[pick]
    # a zero of either sign, entry by entry: the rows stay equal
    values[values == 0.0] *= rng.choice([1.0, -1.0], size=int((values == 0.0).sum()))
    flags = (rng.random((base, n_bool)) < 0.5)[pick]
    y = rng.integers(0, 2, size=base).astype(np.int8)[pick]
    if draw(st.booleans()):
        # a float response, its zeros of either sign
        y = y * rng.choice([1.0, -1.0], size=rows)
    is_bool = rng.permutation(np.arange(n_bool + n_float) < n_bool)
    x = np.empty((len(is_bool), rows)).T
    key, b, f = _NO_KEY, 0, 0
    for k, keyed in enumerate(is_bool):
        if keyed:
            col = np.ascontiguousarray(flags[:, b])
            x[:, k] = col
            key = _add_key_bit(key, col, k)
            b += 1
        else:
            x[:, k] = values[:, f]
            f += 1
    assert len(key[1]) == min(n_bool, 64)
    return x, y, key


def duplicated_design(rng, rows):
    """Columns a (ones), b (0..3), c (0/1), rare (nonzero on rows 0-5 only)
    and twin (b, except on rows 6-9): few distinct rows, many copies."""
    b = rng.integers(0, 4, size=rows).astype(np.float64)
    c = rng.integers(0, 2, size=rows).astype(np.float64)
    rare = np.zeros(rows)
    rare[:6] = 1.0
    twin = b.copy()
    twin[6:10] += 1.0
    x = np.column_stack([np.ones(rows), b, c, rare, twin])
    y = (rng.random(rows) < expit(-1.0 + 0.4 * b - 0.7 * c)).astype(np.int8)
    # both responses on the rare and twin rows, so neither column separates
    y[:10] = [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    return DyadDesign(y, x, ("a", "b", "c", "rare", "twin"))


class UnitCoefficients:
    """Stands in for ``random.Random`` where ``_hash_runs`` draws its hash
    coefficients: every one is 1.0, so that rows of equal sums collide."""

    def __init__(self, seed):
        pass

    def uniform(self, lo, hi):
        return 1.0


def assert_same_groups(got, expect):
    """``(first, group)`` pairs equal, element for element."""
    for a, b in zip(got, expect, strict=True):
        np.testing.assert_array_equal(a, b)


def collapsed_fit(design, weights):
    """Fit ``design`` on its distinct rows, each weighted by the total
    weight of the rows it stands for."""
    first, group = _unique_rows(design.matrix, design.response)
    distinct = DyadDesign(
        design.response[first], design.matrix[first], design.term_names
    )
    return fit_checked(
        distinct, weights=np.bincount(group, weights=weights, minlength=len(first))
    )


class TestUniqueRows:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(designs_with_duplicates())
    def test_groups_are_the_distinct_rows(self, xy):
        x, y = xy
        first, group = _unique_rows(x, y)
        np.testing.assert_array_equal(x, x[first[group]])
        np.testing.assert_array_equal(y, y[first[group]])
        assert len(first) == len(np.unique(np.column_stack([x, y]), axis=0))
        # each representative is its group's first row, in row order
        labels, firsts = np.unique(group, return_index=True)
        np.testing.assert_array_equal(labels, np.arange(len(first)))
        np.testing.assert_array_equal(firsts, first)
        expect = sorted_gather_unique_rows(x, y)
        assert_same_groups((first, group), expect)
        # with every hash coefficient 1.0, rows of equal sums collide
        with mock.patch.object(estimator.random, "Random", UnitCoefficients):
            assert_same_groups(_unique_rows(x, y), expect)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(keyed_designs())
    def test_the_key_groups_as_the_float_hash_does(self, case):
        x, y, key = case
        expect = sorted_gather_unique_rows(x, y)
        for coefficients in (random.Random, UnitCoefficients):
            with mock.patch.object(estimator.random, "Random", coefficients):
                assert_same_groups(_unique_rows(x, y, key=key), expect)
                assert_same_groups(_unique_rows(x, y), expect)

    def test_collisions_beside_the_key_take_the_sorted_gather_path(self):
        rng = np.random.default_rng(245)
        x = np.empty((6, 500)).T
        key = _NO_KEY
        for k in (0, 2, 4):
            col = rng.random(500) < 0.5
            x[:, k] = col
            key = _add_key_bit(key, col, k)
        # float columns of small integers: under unit hash coefficients,
        # rows of one key, response and float sum collide
        x[:, [1, 3, 5]] = rng.integers(0, 3, size=(500, 3))
        y = rng.integers(0, 2, size=500).astype(np.int8)
        expect = sorted_gather_unique_rows(x, y)
        for coefficients, collides in ((random.Random, False), (UnitCoefficients, True)):
            with mock.patch.object(estimator.random, "Random", coefficients), \
                    mock.patch.object(estimator, "_split_runs", wraps=_split_runs) as spy:
                assert_same_groups(_unique_rows(x, y, key=key), expect)
            assert spy.call_count == collides
        # a key that the hash leaves out: rows of one response and float
        # columns collide, and the check of the key splits them
        with mock.patch.object(estimator, "_KEY_FACTOR", np.uint64(0)), \
                mock.patch.object(estimator, "_split_runs", wraps=_split_runs) as spy:
            assert_same_groups(_unique_rows(x, y, key=key), expect)
        assert spy.call_count == 1

    def test_planted_collisions_take_the_sorted_gather_path(self):
        rng = np.random.default_rng(244)
        x = np.asfortranarray(rng.integers(0, 3, size=(500, 4)).astype(np.float64))
        y = rng.integers(0, 2, size=500).astype(np.int8)
        expect = sorted_gather_unique_rows(x, y)
        for coefficients, collides in ((random.Random, False), (UnitCoefficients, True)):
            with mock.patch.object(estimator.random, "Random", coefficients), \
                    mock.patch.object(estimator, "_split_runs", wraps=_split_runs) as spy:
                assert_same_groups(_unique_rows(x, y), expect)
            assert spy.call_count == collides

    def test_hash_collisions_split_but_never_merge(self):
        # 1 is below the spacing of floats near 1e20, so both rows hash alike
        a, b = [1e20, 0.0], [1e20, 1.0]
        x = np.asfortranarray([a, b, a, b, a])
        y = np.zeros(5, dtype=np.int8)
        first, group = _unique_rows(x, y)
        np.testing.assert_array_equal(x, x[first[group]])
        assert len(first) >= 2

    def test_colliding_rows_form_one_group_each(self):
        # the 1e20 collision of the test above, rows interleaved under the sort
        a, b = [1e20, 0.0], [1e20, 1.0]
        x = np.asfortranarray([a, b, a, b, a])
        y = np.zeros(5, dtype=np.int8)
        first, group = _unique_rows(x, y)
        np.testing.assert_array_equal(first, [0, 1])
        np.testing.assert_array_equal(group, [0, 1, 0, 1, 0])

    def test_many_colliding_rows(self):
        rng = np.random.default_rng(217)
        small = rng.integers(0, 4, size=(300, 2)).astype(np.float64)
        x = np.asfortranarray(np.column_stack([np.full(300, 1e20), small]))
        y = rng.integers(0, 2, size=300).astype(np.int8)
        first, group = _unique_rows(x, y)
        np.testing.assert_array_equal(x, x[first[group]])
        np.testing.assert_array_equal(y, y[first[group]])
        _, firsts = np.unique(
            np.column_stack([small, y]), axis=0, return_index=True
        )
        np.testing.assert_array_equal(first, np.sort(firsts))

    def test_signed_zeros_and_responses(self):
        x = np.asfortranarray([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, 2.0]])
        y = np.array([1, 1, 0, 1], dtype=np.int8)
        first, group = _unique_rows(x, y)
        np.testing.assert_array_equal(first, [0, 2, 3])
        np.testing.assert_array_equal(group, [0, 0, 1, 2])

    @pytest.mark.parametrize(
        "seed, case",
        [(0, "plain"), (1, "plain"), (2, "plain"), (3, "empty"), (4, "collinear")],
    )
    def test_collapsed_fit_matches_weighted_fit(self, seed, case):
        rng = np.random.default_rng(230 + seed)
        design = duplicated_design(rng, 400)
        assert len(_unique_rows(design.matrix, design.response)[0]) < 100
        w = rng.integers(0, 3, size=400).astype(np.float64)
        w[:10] = 1.0
        if case == "empty":
            w[:6] = 0.0  # rare is zero on every weighted row
        if case == "collinear":
            w[6:10] = 0.0  # twin equals b on every weighted row
            with pytest.raises(RankDeficiencyError, match="dependent columns: twin$"):
                fit_checked(design, weights=w)
            with pytest.raises(RankDeficiencyError, match="dependent columns: twin$"):
                collapsed_fit(design, w)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            full = fit_checked(design, weights=w)
            short = collapsed_fit(design, w)
        assert full.dropped_terms == short.dropped_terms == (
            ("rare",) if case == "empty" else ()
        )
        for field in ("coefficients", "standard_errors", "p_values", "covariance"):
            np.testing.assert_allclose(
                getattr(short, field), getattr(full, field),
                rtol=1e-10, atol=1e-10, err_msg=field,
            )
        for field in ("null_deviance", "residual_deviance", "aic", "bic"):
            assert getattr(short, field) == pytest.approx(
                getattr(full, field), rel=1e-10
            ), field
        assert short.n_dyads == full.n_dyads and isinstance(short.n_dyads, int)
        assert short.n_params == full.n_params
        assert short.converged and full.converged
        np.testing.assert_array_equal(short.separation_flags, full.separation_flags)


@pytest.mark.parametrize(
    "p, case",
    [
        # every row distinct keeps the plain ids, [8] and [22]
        pytest.param(p, case, id=str(p) if case == "distinct" else f"{p}-{case}")
        for case in ("distinct", "duplicated", "collision", "keyed")
        for p in (8, 22)
    ],
)
def test_unique_rows_scratch_does_not_grow_with_the_columns(p, case):
    rows = 20000
    rng = np.random.default_rng(216)
    x = np.asfortranarray(rng.integers(0, 3, size=(rows, p)).astype(np.float64))
    y = rng.integers(0, 2, size=rows).astype(np.int8)
    coefficients = random.Random
    key = _NO_KEY
    if case in ("distinct", "keyed"):
        x[:, 0] = np.arange(rows)  # every row distinct: the most groups
    if case == "keyed":
        # all but the first column 0/1 and keyed, the key made beforehand
        for k in range(1, p):
            col = rng.random(rows) < 0.5
            x[:, k] = col
            key = _add_key_bit(key, col, k)
    if case == "collision":
        # row sums far apart, but for rows 0 and 1, which differ by a swap:
        # under unit hash coefficients they collide and no other rows do
        x[:, 0] = 100.0 * np.arange(rows)
        x[1], y[1] = x[0], y[0]
        x[:2, 1:3] = [[0.0, 1.0], [1.0, 0.0]]
        coefficients = UnitCoefficients
    with mock.patch.object(estimator.random, "Random", coefficients), \
            mock.patch.object(estimator, "_split_runs", wraps=_split_runs) as spy:
        tracemalloc.start()
        try:
            first, group = _unique_rows(x, y, key=key)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert spy.call_count == (case == "collision")
    # at 8 columns of three values, about half of the rows repeat
    assert len(first) < rows if case == "duplicated" and p == 8 else len(first) == rows
    np.testing.assert_array_equal(x, x[first[group]])
    # the same number of row-length float vectors at every column count
    assert peak < 6.5 * rows * 8


@pytest.fixture(scope="module", params=[5, 11])
def large_mple_design(request):
    """The design of the benchmark's ``large_mple`` fit: 22 terms on 800
    nodes, 639,200 rows."""
    g, table = large_mple_network(request.param)
    return build_design(g, table, parse_terms(config.CROSS_SECTIONAL_TERMS))


def test_build_design_scratch_stays_at_the_unkeyed_build():
    # large_mple variant 5: the build held 36.09 MiB beyond the design
    # before its 0/1 columns were keyed, at its peak in the gwdsp column
    g, table = large_mple_network(5)
    spec = parse_terms(config.CROSS_SECTIONAL_TERMS)
    build_design(g, table, spec)  # so that the graph's cached arrays are made
    tracemalloc.start()
    try:
        design = build_design(g, table, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert design.row_groups is not None
    assert peak - design.matrix.nbytes - design.response.nbytes <= 36.1 * 2**20


def test_build_design_scratch_stays_under_the_design_at_3_percent():
    # n=363 (the paper's subsample) at density 2.96%: the gwdsp column's
    # walks held 55.8 MiB beyond the 22.2 MiB design in blocks of 2**20
    # walks, 36.9 MiB in blocks of 2**19 and 19.9 MiB in blocks of 2**18
    g, table = large_mple_network(5, 363, 10.86)
    spec = parse_terms(config.CROSS_SECTIONAL_TERMS)
    build_design(g, table, spec)  # so that the graph's cached arrays are made
    tracemalloc.start()
    try:
        design = build_design(g, table, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = design.matrix.nbytes + design.response.nbytes
    assert peak - size <= size


class TestLargeMpleDesigns:
    def test_groups_equal_the_sorted_gather_groups(self, large_mple_design):
        design = large_mple_design
        expect = sorted_gather_unique_rows(design.matrix, design.response)
        with mock.patch.object(estimator, "_split_runs", wraps=_split_runs) as spy:
            assert_same_groups(_unique_rows(design.matrix, design.response), expect)
        assert spy.call_count == 0
        assert_same_groups(design.row_groups, expect)

    def test_the_keyed_scan_equals_the_scan_of_the_distinct_rows(self, large_mple_design):
        design = large_mple_design
        first = design.row_groups[0]
        x = np.asarray(design.matrix, dtype=np.float64)
        expect = _scan(x, first, len(first))
        assert_same_scan(design.row_patterns, expect)
        # edges, then mutual and the 17 nodematch terms, the keyed columns
        assert expect[2] == [0, 1, *range(5, 22)]

    def test_the_intercept_start_saves_passes_and_needs_no_qr(self, large_mple_design):
        design = large_mple_design
        with mock.patch.object(estimator, "_rank", wraps=_rank) as spy:
            cold = fit_logistic(design)
        assert spy.call_count == 0
        zero = fit_logistic(design, _start=np.zeros(design.matrix.shape[1]))
        assert cold.converged and zero.converged
        assert cold.iterations < zero.iterations
        for field in ("coefficients", "standard_errors"):
            np.testing.assert_allclose(
                getattr(cold, field), getattr(zero, field), rtol=1e-9, err_msg=field
            )


def fit_or_culprits(design, weights=None):
    """The fit of ``design``, or the message of its RankDeficiencyError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fit_checked(design, weights=weights)
        except RankDeficiencyError as exc:
            return str(exc)


def fit_and_rows(design, weights=None):
    """``fit_or_culprits`` of ``design``, and the ``_Rows`` its fit read."""
    seen = []

    def spy(*args):
        out = _fit_rows(*args)
        seen.append(out[0])
        return out

    with mock.patch.object(estimator, "_fit_rows", spy):
        return fit_or_culprits(design, weights), seen[0]


def assert_design_blocks(rows, fitted):
    """The blocks that ``rows`` hands the QR join into the kept columns of
    the fitted rows ``fitted``, NaN where NaN."""
    np.testing.assert_array_equal(np.concatenate(list(rows.design_blocks())), fitted[:, rows.kept])


def assert_fits_agree(grouped, plain):
    if isinstance(plain, str):
        assert grouped == plain
        return
    assert not isinstance(grouped, str), grouped
    for field in ("coefficients", "standard_errors"):
        np.testing.assert_allclose(
            getattr(grouped, field), getattr(plain, field),
            rtol=1e-10, atol=1e-10, err_msg=field,
        )
    assert grouped.residual_deviance == pytest.approx(plain.residual_deviance, rel=1e-10, abs=1e-10)
    assert grouped.bic == pytest.approx(plain.bic, rel=1e-10, abs=1e-10)
    assert grouped.null_deviance == plain.null_deviance
    assert grouped.n_dyads == plain.n_dyads
    assert type(grouped.n_dyads) is type(plain.n_dyads)
    assert grouped.n_params == plain.n_params
    assert grouped.dropped_terms == plain.dropped_terms
    np.testing.assert_array_equal(grouped.separation_flags, plain.separation_flags)


@st.composite
def repeated_grid_designs(draw, kind):
    """Columns a (ones), b and c (a grid), rare (one at the cell b = c = 1)
    and twin (b, plus one where c = 0), with both responses at every cell:
    2 * nb * nc distinct rows (40 to 98, never a multiple of 16), each
    repeated two to four times in a drawn order. By ``kind``, the weights
    are None, integers with some zeros, zero where rare is not (emptying
    it), or zero where c = 0 (making twin equal b)."""
    nb, nc = draw(st.integers(4, 7)), draw(st.sampled_from([5, 7]))
    b, c, y = (g.ravel() for g in np.meshgrid(range(nb), range(nc), [0, 1]))
    copies = draw(st.lists(st.integers(2, 4), min_size=len(b), max_size=len(b)))
    rows = np.repeat(np.arange(len(b)), copies)
    rows = rows[draw(st.permutations(range(len(rows))))]
    b, c, y = b[rows].astype(np.float64), c[rows].astype(np.float64), y[rows]
    rare = ((b == 1) & (c == 1)).astype(np.float64)
    x = np.asfortranarray(np.column_stack([np.ones(len(rows)), b, c, rare, b + (c == 0)]))
    weights = None
    if kind == "integer":
        weights = np.array(
            draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows))),
            dtype=np.float64,
        )
        zeros = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=len(rows) // 4))
        weights[zeros] = 0.0
    elif kind == "empty":
        weights = (rare == 0).astype(np.float64)
    elif kind == "collinear":
        weights = (c != 0).astype(np.float64)
    return DyadDesign(y.astype(np.int8), x, ("a", "b", "c", "rare", "twin")), weights


class TestRecordedRowGroups:
    """Builders record a design's row grouping; fits read its distinct rows."""

    SPEC = parse_terms(("edges", "mutual", "gwesp(0.5)"))

    def test_build_design_records_the_grouping_whether_or_not_it_halves_the_rows(self):
        g = build_graph(3, [(0, 1)])
        spec = parse_terms(("edges", "mutual"))
        # six rows, three distinct: (1, 0, tie), (1, 1, no tie), (1, 0, no tie)
        design = build_design(g, None, spec)
        first, group = design.row_groups
        expect = _unique_rows(design.matrix, design.response)
        np.testing.assert_array_equal(first, expect[0])
        np.testing.assert_array_equal(group, expect[1])
        assert len(first) == 3
        # 30 rows that do not halve are grouped and frozen all the same
        design = build_design(random_graph(np.random.default_rng(7), 6, 0.5), None, self.SPEC)
        assert design.n_rows == 30 and 2 * len(design.row_groups[0]) > design.n_rows
        assert_same_groups(design.row_groups, _unique_rows(design.matrix, design.response))
        assert not (design.matrix.flags.writeable or design.response.flags.writeable)
        # and their fit of the distinct rows is the row-by-row fit of a plain copy
        plain = DyadDesign(design.response.copy(), design.matrix.copy(), design.term_names)
        assert plain.row_groups is None
        grouped, by_row = fit_logistic(design), fit_logistic(plain)
        for field in ("coefficients", "standard_errors"):
            np.testing.assert_allclose(
                getattr(grouped, field), getattr(by_row, field),
                rtol=1e-10, atol=1e-10, err_msg=field,
            )
        assert grouped.residual_deviance == pytest.approx(by_row.residual_deviance, rel=1e-10)

    def test_keyed_columns_are_scanned_from_the_key(self):
        # a nodematch of one holder is all zero: its bit is no 0/1 column,
        # so the key's bits land among edges at shifts of -1 and 0
        rng = np.random.default_rng(221)
        n = 40
        g = random_graph(rng, n, 0.03)
        table = simple_table(
            [f"v{i}" for i in range(n)],
            role=["rare"] + ["common"] * (n - 1),
            group=rng.choice(["a", "b", "c"], size=n),
            team=rng.choice(["x", "y"], size=n),
        )
        spec = parse_terms(("nodematch(role, rare)", "mutual", "edges",
                            "nodematch(group)", "gwesp(0.5)", "nodematch(team)"))
        plain, (bits, keyed) = _design(g, g, table, spec, ~np.eye(n, dtype=bool))
        assert keyed == (0, 1, 3, 5) and bits.dtype == np.uint8
        design = build_design(g, table, spec)
        first, group = design.row_groups
        assert_same_groups((first, group), _unique_rows(plain.matrix, plain.response))
        x = np.asarray(design.matrix, dtype=np.float64)
        expect = _scan(x, first, len(first))
        assert expect[2] == [1, 2, 3, 5] and expect[0][0] == 0.0
        assert_same_scan(design.row_patterns, expect)
        # and on every row, as a design that is not grouped is frozen
        assert_same_scan(_scan(x, None, len(x), key=(bits, keyed)), _scan(x, None, len(x)))

    def test_a_grouped_design_cannot_be_edited_in_place(self):
        design = build_design(random_graph(np.random.default_rng(220), 30, 0.1), None, self.SPEC)
        assert design.row_groups is not None
        with pytest.raises(ValueError, match="read-only"):
            design.matrix[:, 1] *= 2
        with pytest.raises(ValueError, match="read-only"):
            design.response[0] = 1 - design.response[0]
        # an edited copy is a design of its own, fitted row by row
        edited = design.matrix.copy()
        edited[:, 1] *= 2
        doubled = fit_logistic(dataclasses.replace(design, matrix=edited))
        np.testing.assert_allclose(
            doubled.coefficients[1], fit_logistic(design).coefficients[1] / 2, rtol=1e-8
        )

    def test_a_replaced_design_is_plain(self):
        rng = np.random.default_rng(217)
        design = build_design(random_graph(rng, 30, 0.1), None, self.SPEC)
        assert design.row_groups is not None
        other = np.asfortranarray(design.matrix + rng.normal(size=design.matrix.shape))
        replaced = dataclasses.replace(design, matrix=other)
        assert replaced.row_groups is None
        assert dataclasses.replace(design).row_groups is None
        by_hand = DyadDesign(design.response, other, design.term_names)
        assert_identical_fits(fit_logistic(replaced), fit_logistic(by_hand))
        # only a builder sets it, and it takes no part in repr or equality
        with pytest.raises(TypeError):
            DyadDesign(design.response, other, design.term_names,
                       row_groups=design.row_groups)
        assert "row_groups" not in repr(design)

    def test_distinct_rows_are_a_frozen_copy(self):
        design = build_design(random_graph(np.random.default_rng(7), 6, 0.5), None, self.SPEC)
        distinct, group = _distinct(design)
        first = _unique_rows(design.matrix, design.response)[0]
        np.testing.assert_array_equal(group, design.row_groups[1])
        np.testing.assert_array_equal(distinct.matrix, design.matrix[first])
        np.testing.assert_array_equal(distinct.response, design.response[first])
        np.testing.assert_array_equal(distinct.matrix[group], design.matrix)
        np.testing.assert_array_equal(distinct.response[group], design.response)
        assert distinct.term_names == design.term_names
        assert distinct.matrix.flags.f_contiguous
        # the copy is frozen, and its scan is the grouped design's, shared
        assert not distinct.matrix.flags.writeable and not distinct.response.flags.writeable
        assert distinct.row_groups is None
        assert distinct.row_patterns is design.row_patterns
        x = np.asarray(distinct.matrix, dtype=np.float64)
        assert_same_scan(distinct.row_patterns, _scan(x, None, len(x)))
        # each distinct row weighted by the rows it stands for fits as the design
        weights = np.bincount(group, minlength=distinct.n_rows).astype(np.float64)
        np.testing.assert_allclose(
            fit_logistic(distinct, weights=weights).coefficients,
            fit_logistic(design).coefficients, rtol=1e-10, atol=1e-10,
        )

    @pytest.mark.parametrize("kind", ["none", "integer", "empty", "collinear"])
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_grouped_fit_matches_the_row_by_row_fit(self, kind, data):
        design, weights = data.draw(repeated_grid_designs(kind))
        grouped = _record_row_groups(dataclasses.replace(design))
        first, group = grouped.row_groups
        assert len(first) > 2 * 16 and len(first) % 16
        # blocks of 16 rows: three to seven blocks of distinct rows, the last ragged
        with mock.patch.object(estimator, "_BLOCK_ROWS", 16):
            fit, rows = fit_and_rows(grouped, weights)
            assert_fits_agree(fit, fit_or_culprits(design, weights))
        # the QR's blocks are the distinct rows of positive weight
        on = np.bincount(group, weights, len(first)) > 0.0
        assert_design_blocks(rows, design.matrix[first][on])
        if kind in ("none", "empty"):
            assert fit.dropped_terms == (("rare",) if kind == "empty" else ())
        if kind == "collinear":
            assert fit.endswith("dependent columns: twin")

    def test_built_design_fits_like_its_rows(self):
        g = random_graph(np.random.default_rng(218), 200, 0.03)
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)", "gwdsp(0.5)", "odegpop"))
        design = build_design(g, None, spec)
        assert design.n_rows > 3 * _BLOCK_ROWS
        assert 2 * len(design.row_groups[0]) <= design.n_rows
        reads = []

        def spy(ws):
            reads.append((sum(len(wb) for wb in ws), sum(wb.sum() for wb in ws)))

        def spy_certificate(info, m2, ws):
            spy(ws)
            return _full_rank_certificate(info, m2, ws)

        def spy_rank(xs, ws, cols=slice(None)):
            xs = list(xs)
            assert [len(xb) for xb in xs] == [len(wb) for wb in ws]
            spy(ws)
            return _rank(xs, ws, cols)

        # the distinct rows are read, weighted up to the rows of the whole
        # design: by the certificate, which decides, and by the QR in its place
        distinct = (len(design.row_groups[0]), design.n_rows)
        with mock.patch.object(estimator, "_full_rank_certificate", spy_certificate), \
                mock.patch.object(estimator, "_rank", spy_rank):
            grouped = fit_logistic(design)
        assert reads == [distinct]
        reads.clear()
        with mock.patch.object(estimator, "_full_rank_certificate", qr_only), \
                mock.patch.object(estimator, "_rank", spy_rank):
            assert_identical_fits(fit_logistic(design), grouped)
        assert reads == [distinct]
        plain = fit_logistic(dataclasses.replace(design))
        assert_fits_agree(grouped, plain)
        assert grouped.iterations == plain.iterations and grouped.converged

    def test_rank_tolerance_counts_the_rows_of_the_design(self):
        # 200,000 rows, three of them distinct: a singular value at about
        # 1e-12 of the largest is noise for the 200,000 rows but not for three
        base = np.column_stack([np.ones(20), np.zeros(20)])
        base[0, 1] = 1e-12 * np.sqrt(20.0)
        x = np.asfortranarray(np.tile(base, (10**4, 1)))
        y = np.tile(np.arange(20) % 2, 10**4).astype(np.int8)
        design = DyadDesign(y, x, ("a", "b"))
        grouped = _record_row_groups(dataclasses.replace(design))
        assert len(grouped.row_groups[0]) == 3
        for d in (design, grouped):
            with pytest.raises(RankDeficiencyError, match="dependent columns: b$"):
                fit_checked(d)

    def test_grouped_fit_holds_less_than_half_a_design(self):
        g = random_graph(np.random.default_rng(219), 200, 0.03)
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)", "gwdsp(0.5)", "odegpop"))
        design = build_design(g, None, spec)
        assert design.n_rows > 3 * _BLOCK_ROWS and design.row_groups is not None
        tracemalloc.start()
        try:
            fit_logistic(design)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * design.matrix.nbytes


def test_fit_holds_less_than_two_copies_of_the_design():
    rng = np.random.default_rng(212)
    # column-major, as the design builders write it
    x = rng.standard_normal((8, 40000)).T
    y = (rng.random(40000) < expit(x @ np.linspace(-0.5, 0.5, 8))).astype(float)
    design = DyadDesign(y, x, tuple(f"t{k}" for k in range(8)))
    tracemalloc.start()
    try:
        fit_logistic(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * design.matrix.nbytes


def test_fit_holds_less_than_half_a_design():
    design = synthetic_design(np.random.default_rng(213), 40000, np.linspace(-1.0, 0.5, 8))
    # column-major, as the design builders write it
    design = dataclasses.replace(design, matrix=np.asfortranarray(design.matrix))
    tracemalloc.start()
    try:
        fit_logistic(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * design.matrix.nbytes


def test_culprit_search_holds_less_than_half_a_design():
    rng = np.random.default_rng(214)
    x, k = planted_design(rng, 40000, 8)
    x = np.asfortranarray(x)
    y = (rng.random(40000) < 0.4).astype(float)
    design = DyadDesign(y, x, tuple(f"t{j}" for j in range(8)))
    tracemalloc.start()
    try:
        with pytest.raises(RankDeficiencyError, match=f"dependent columns: t{k}"):
            fit_logistic(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * design.matrix.nbytes


def test_culprit_search_of_a_picked_fit_holds_less_than_two_designs():
    # the fit gathers the rows of positive weight, and the QR rebuilds one
    # block of them at a time
    rng = np.random.default_rng(214)
    x, k = planted_design(rng, 40000, 8)
    x = np.asfortranarray(x)
    y = (rng.random(40000) < 0.4).astype(float)
    design = DyadDesign(y, x, tuple(f"t{j}" for j in range(8)))
    w = np.ones(40000)
    w[::7] = 0.0
    tracemalloc.start()
    try:
        with pytest.raises(RankDeficiencyError, match=f"dependent columns: t{k}"):
            fit_logistic(design, weights=w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * design.matrix.nbytes


def several_blocks(rng):
    """Two to three row blocks, the last of them ragged."""
    return int(rng.integers(2 * _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS))


def whole(blocks):
    """The one array that a list of row blocks cuts up."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def rank(x, cols=slice(None)):
    """``_rank`` of the array ``x``, every row of weight 1."""
    return _rank(_blocks(x), _blocks(np.ones(len(x))), cols)


def unblocked_rank(x, w, cols=slice(None)):
    # one QR of the whole weighted selection: the reference for the row-blocked R
    x, w = whole(list(x)), whole(w)
    x = np.sqrt(w)[:, None] * x[:, cols]
    r = np.linalg.qr(x, mode="r")
    if not np.isfinite(r).all():
        raise NumericalError("design matrix has non-finite entries")
    s = np.linalg.svd(r, compute_uv=False)
    return int((s > max(w.sum(), x.shape[1]) * np.finfo(np.float64).eps * s[0]).sum())


def unblocked_evaluate(x, y, w, theta):
    # the log-likelihood, score and information of every row and column at
    # once, with no 0/1 patterns: the reference for _evaluate_rows
    x, y, w = whole(x), whole(y), whole(w)
    eta = x @ theta
    mu, log1pexp = _logistic(eta)
    a = x * np.sqrt(w * mu * (1.0 - mu))[:, None]
    ll = float(np.sum(w * y * eta) - np.sum(w * log1pexp))
    return ll, x.T @ (w * (y - mu)), a.T @ a


def fitted_rows(x, y, w):
    """The ``_Rows`` that a fit reads from the rows of positive weight
    ``w`` of the plain design ``(x, y)``."""
    names = tuple(f"c{k}" for k in range(x.shape[1]))
    design = DyadDesign(y, x, names)
    on = w > 0.0
    return _fit_rows(design, w, None if on.all() else np.flatnonzero(on))[0]


def evaluate(x, y, w, theta):
    """``_evaluate_rows`` at ``theta`` (aligned with the columns of ``x``)
    on the rows of ``(x, y)`` of positive weight ``w``: the log-likelihood,
    and the score and information of the kept columns in design order."""
    rows = fitted_rows(x, y, w)
    back = np.argsort(rows.order)
    ll, score, info = _evaluate_rows(rows, np.asarray(theta)[rows.kept][rows.order])
    return ll, score[back], info[np.ix_(back, back)]


def whole_rows(rows):
    """``rows`` with each list of row blocks joined into one block."""
    return rows._replace(**{f: [whole(getattr(rows, f))] for f in ("ids", "xs", "ys", "ws")})


def unpatterned_evaluate(rows, theta):
    """``unblocked_evaluate`` of every kept column of the fitted ``rows``,
    in Newton's column order: what ``_evaluate_rows`` computes, by a formula
    that reads no pattern."""
    x = whole(list(rows.design_blocks()))[:, rows.order]
    return unblocked_evaluate([x], rows.ys, rows.ws, theta)


def fit_unblocked(monkeypatch, design, **options):
    """Fit with whole-design kernels in place of the row-blocked ones and
    no 0/1 patterns."""
    with monkeypatch.context() as m:
        m.setattr(estimator, "_rank", unblocked_rank)
        m.setattr(estimator, "_evaluate_rows", unpatterned_evaluate)
        return fit_logistic(design, **options)


def fit_joined(monkeypatch, design, **options):
    """Fit with the row blocks joined into one, for the QR and for
    ``_evaluate_rows``."""
    with monkeypatch.context() as m:
        m.setattr(estimator, "_rank", unblocked_rank)
        m.setattr(
            estimator, "_evaluate_rows",
            lambda rows, theta: _evaluate_rows(whole_rows(rows), theta),
        )
        return fit_logistic(design, **options)


def assert_blocked_agrees(a, b):
    """Two fits of one design equal to 1e-10 and in their iterations."""
    np.testing.assert_allclose(a.coefficients, b.coefficients, rtol=1e-10)
    np.testing.assert_allclose(a.standard_errors, b.standard_errors, rtol=1e-10)
    assert a.residual_deviance == pytest.approx(b.residual_deviance, rel=1e-10)
    assert a.iterations == b.iterations


class TestRowBlocks:
    """The rank check and the Newton passes read the design by row blocks."""

    def test_every_block_counts(self):
        rng = np.random.default_rng(71)
        rows, p = 2 * _BLOCK_ROWS + 300, 5
        x, k = planted_design(rng, rows, p)
        # the dependency is broken in one block only, so the rank is full
        for rows_of_block in (slice(0, _BLOCK_ROWS), slice(_BLOCK_ROWS, 2 * _BLOCK_ROWS),
                              slice(2 * _BLOCK_ROWS, rows)):
            broken = x.copy()
            broken[rows_of_block, k] = rng.normal(size=broken[rows_of_block].shape[0])
            assert rank(broken) == p
            # and a column that is zero outside one block is not zero
            sparse = rng.normal(size=(rows, p))
            sparse[:, 1] = 0.0
            sparse[rows_of_block, 1] = 1.0
            assert rank(sparse) == p
            y = np.arange(rows) % 2
            for full in (broken, sparse):
                design = DyadDesign(y, full, tuple("abcde"))
                with warnings.catch_warnings():
                    # a column broken in one block only can separate
                    warnings.simplefilter("ignore", UserWarning)
                    assert fit_checked(design).n_params == p

    @pytest.mark.parametrize("rank_of", [_rank, unblocked_rank])
    def test_rank_tolerance_counts_the_given_rows(self, rank_of):
        # a singular value at 1e-13 of the largest is noise for a design of
        # a million rows but not for one of ten
        x = np.zeros((10, 2))
        x[:, 0] = 1.0
        x[0, 1] = 1e-13 * np.sqrt(10.0)
        assert rank_of(_blocks(x), _blocks(np.ones(10))) == 2
        assert rank_of(_blocks(x), _blocks(np.full(10, 10**5))) == 1

    def test_fit_checks_rank_at_the_given_row_count(self):
        x = np.zeros((10, 2))
        x[:, 0] = 1.0
        x[0, 1] = 1e-13 * np.sqrt(10.0)
        design = DyadDesign(np.arange(10) % 2, x, ("a", "b"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert fit_checked(design).n_params == 2
        with pytest.raises(RankDeficiencyError, match="dependent columns: b$"):
            fit_checked(design, weights=np.full(10, 10**5))

    def test_rank_of_selected_columns(self):
        rng = np.random.default_rng(65)
        x, k = planted_design(rng, several_blocks(rng), 6)
        assert rank(x, list(range(k))) == k
        assert rank(x, list(range(k + 1))) == k
        assert rank(x, [k]) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [_BLOCK_ROWS, _BLOCK_ROWS + 17, -1])
    def test_non_finite_entry_past_the_first_block_raises(self, bad, row):
        rows = 2 * _BLOCK_ROWS + 100
        design = synthetic_design(np.random.default_rng(67), rows, [-1.0, 0.5, 0.2, 0.1])
        design.matrix[row, 2] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            fit_checked(design)

    def test_blocked_score_and_information_match_full_products(self):
        rng = np.random.default_rng(68)
        rows, p = several_blocks(rng), 7
        x = np.asfortranarray(rng.normal(size=(rows, p)))
        y = (rng.random(rows) < 0.3).astype(float)
        w = rng.integers(0, 4, rows).astype(float)
        assert (w == 0.0).any()
        theta = rng.normal(size=p) * 0.3
        ll, score, info = evaluate(x, y, w, theta)
        eta = x @ theta
        mu = expit(eta)
        v = w * mu * (1.0 - mu)
        np.testing.assert_allclose(info, (x * v[:, None]).T @ x, rtol=1e-12)
        np.testing.assert_allclose(score, x.T @ (w * (y - mu)), rtol=1e-12)
        ll_full = np.sum(w * y * eta) - np.sum(w * np.logaddexp(0.0, eta))
        assert ll == pytest.approx(ll_full, rel=1e-12)

    @pytest.mark.parametrize("rows", [40, _BLOCK_ROWS - 1, _BLOCK_ROWS])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_block_fits_bit_identically_to_unblocked(self, monkeypatch, rows, weighted):
        rng = np.random.default_rng(69 + rows)
        design = synthetic_design(rng, rows, [-1.0, 0.8, -0.4, 0.3, 0.1])
        w = rng.integers(0, 3, rows) if weighted else None
        blocked = fit_logistic(design, weights=w)
        assert_identical_fits(blocked, fit_joined(monkeypatch, design, weights=w))
        # and the fit without 0/1 patterns agrees
        assert_blocked_agrees(blocked, fit_unblocked(monkeypatch, design, weights=w))

    def test_several_block_fits_agree_with_unblocked(self, monkeypatch):
        rows = 2 * _BLOCK_ROWS + 333
        beta = [-1.0, 0.8, -0.4, 0.3, 0.1, 0.05]
        design = synthetic_design(np.random.default_rng(70), rows, beta)
        blocked = fit_logistic(design)
        assert_blocked_agrees(blocked, fit_unblocked(monkeypatch, design))
        assert_blocked_agrees(blocked, fit_joined(monkeypatch, design))


COLUMN_KINDS = ("zero_one", "ones", "integer", "float", "zero_one_on_fitted", "nan", "zero")


@st.composite
def mixed_designs(draw):
    """A design of 20 to 60 rows whose columns are of the drawn kinds of
    ``COLUMN_KINDS``, integer weights with zeros or unit weights, a theta,
    and a key of 1 to 4 bits or the full 64. "zero_one_on_fitted" is 0/1
    on the rows of positive weight and 2.0 on some rows of weight 0, "nan"
    a float column with a NaN entry, and "zero" a column of zeros, which
    the fit drops."""
    rows = draw(st.integers(20, 60))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.ones(rows)
    if draw(st.booleans()) or "zero_one_on_fitted" in kinds:
        w = rng.integers(0, 4, size=rows).astype(np.float64)
        w[:3] = [0.0, 0.0, 1.0]
    columns = []
    for kind in kinds:
        col = {
            "zero_one": lambda: (rng.random(rows) < 0.4).astype(np.float64),
            "ones": lambda: np.ones(rows),
            "integer": lambda: rng.integers(-2, 4, size=rows).astype(np.float64),
            "float": lambda: rng.normal(size=rows),
            "zero_one_on_fitted": lambda: np.where(w > 0.0, rng.random(rows) < 0.5, 2.0),
            "nan": lambda: np.where(
                np.arange(rows) == rows // 2, np.nan, rng.normal(size=rows)
            ),
            "zero": lambda: np.zeros(rows),
        }[kind]()
        columns.append(np.asarray(col, dtype=np.float64))
    x = np.asfortranarray(np.column_stack(columns))
    y = (rng.random(rows) < 0.4).astype(np.int8)
    theta = rng.normal(size=len(kinds)) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    bits = draw(st.sampled_from([1, 2, 4, 64]))
    return x, y, w, theta, bits


def zero_one_columns(x, w):
    """The columns of ``x`` that hold only 0.0 and 1.0, and some 1.0, on
    the rows of positive weight ``w``."""
    fitted = x[w > 0.0]
    return [
        k for k in range(x.shape[1])
        if np.isin(fitted[:, k], (0.0, 1.0)).all() and (fitted[:, k] == 1.0).any()
    ]


def assert_close_to_the_terms(got, expect, scale, rel=1e-12):
    """``got`` within ``rel`` of the sum ``scale`` of the |terms| that
    ``expect`` sums, entry by entry; NaN only where ``expect`` is NaN."""
    got, expect, scale = np.broadcast_arrays(*map(np.asarray, (got, expect, scale)))
    np.testing.assert_array_equal(np.isnan(got), np.isnan(expect))
    finite = ~np.isnan(expect)
    assert (np.abs(got - expect)[finite] <= rel * scale[finite]).all(), (got, expect)


class TestZeroOnePatterns:
    """The 0/1 columns enter each evaluation through their patterns; the
    log-likelihood, score and information are those of every row and
    column at once."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(mixed_designs())
    def test_evaluation_matches_the_whole_design(self, case):
        x, y, w, theta, bits = case
        with mock.patch.object(estimator, "_BLOCK_ROWS", 16), \
                mock.patch.object(estimator, "_KEY_BITS", bits):
            rows = fitted_rows(x, y, w)
            ll, score, info = evaluate(x, y, w, theta)
        on = w > 0.0
        kept = rows.kept
        assert kept == [k for k in range(x.shape[1]) if (x[on, k] != 0.0).any()]
        # the split: the first 0/1 columns on the fitted rows, as many as
        # the key holds, in design order
        b = rows.patterns.shape[1]
        assert [kept[j] for j in rows.order[:b]] == zero_one_columns(x, w)[:bits]
        xk, yk, wk = x[on][:, kept], y[on].astype(np.float64), w[on]
        expect = unblocked_evaluate([xk], [yk], [wk], theta[kept])
        eta = xk @ theta[kept]
        mu, log1pexp = _logistic(eta)
        v = wk * mu * (1.0 - mu)
        ax = np.abs(xk)
        ll_terms = np.sum(wk * (np.abs(yk * eta) + log1pexp))
        assert_close_to_the_terms(ll, expect[0], ll_terms)
        assert_close_to_the_terms(score, expect[1], ax.T @ np.abs(wk * (yk - mu)))
        assert_close_to_the_terms(info, expect[2], ax.T @ (v[:, None] * ax))
        # exactly symmetric, NaN where NaN
        np.testing.assert_array_equal(info, info.T)
        # the QR's blocks are the fitted rows of the kept columns
        assert_design_blocks(rows, x[on])

    def test_more_zero_one_columns_than_the_key_holds(self):
        rng = np.random.default_rng(250)
        x = np.column_stack([(rng.random((400, 70)) < 0.3), rng.normal(size=400)])
        x = np.asfortranarray(x.astype(np.float64))
        y = (rng.random(400) < 0.4).astype(np.int8)
        w = np.ones(400)
        theta = rng.normal(size=71) * 0.1
        rows = fitted_rows(x, y, w)
        # 64 columns are bits of the key, the last six 0/1 columns are read
        # as ordinary ones, after them the float column
        assert rows.patterns.shape[1] == 64 and rows.patterns[:, 63].any()
        np.testing.assert_array_equal(rows.order, np.arange(71))
        ll, score, info = evaluate(x, y, w, theta)
        expect = unblocked_evaluate([x], [y.astype(np.float64)], [w], theta)
        assert ll == pytest.approx(expect[0], rel=1e-12)
        np.testing.assert_allclose(score, expect[1], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(info, expect[2], rtol=1e-12)
        np.testing.assert_array_equal(info, info.T)

    def test_a_recorded_design_labels_its_rows_once(self):
        design = duplicated_design(np.random.default_rng(251), 400)
        w = np.random.default_rng(252).integers(0, 3, size=400).astype(np.float64)
        w[:10] = 1.0
        with mock.patch.object(estimator, "_scan", wraps=estimator._scan) as spy:
            x = np.asarray(design.matrix, dtype=np.float64)
            _freeze(design, None, estimator._scan(x, None, len(x)))
            first = fit_logistic(design)
            weighted = fit_logistic(design, weights=w)
        # the rows are scanned once and frozen; the fit of every row reads
        # that scan, and the weighted fit, whose rows have the same 0/1
        # columns, scans only the others and reads the labels
        assert not (design.matrix.flags.writeable or design.response.flags.writeable)
        assert spy.call_count == 2 and spy.call_args_list[1].args[3] is not None
        cols, ids, patterns = design.row_patterns[2:]
        assert cols == [0, 2, 3] and len(ids) == 400
        # and the fits equal those of a copy that labels its own rows
        copy = dataclasses.replace(design, matrix=design.matrix.copy(),
                                   response=design.response.copy())
        assert_identical_fits(first, fit_logistic(copy))
        assert_identical_fits(weighted, fit_logistic(copy, weights=w))
        assert copy.row_patterns is None
        # zero weights on the rare rows empty a 0/1 column: the fit labels
        # its own rows, and the design keeps its labels
        w[:6] = 0.0
        with mock.patch.object(estimator, "_scan", wraps=estimator._scan) as spy:
            with pytest.warns(UserWarning, match="all-zero"):
                fit = fit_logistic(design, weights=w)
        assert spy.call_count == 2 and len(spy.call_args_list[1].args) == 3
        assert design.row_patterns[2] == cols
        assert fit.dropped_terms == ("rare",)
        with pytest.warns(UserWarning, match="all-zero"):
            assert_identical_fits(fit, fit_logistic(copy, weights=w))

    def test_arrays_a_caller_froze_are_labelled_at_every_fit(self):
        # read-only views over buffers the caller still writes: an edit
        # between two fits must reach the second
        design = duplicated_design(np.random.default_rng(253), 400)
        x, y = design.matrix.copy(), design.response.copy()
        view = dataclasses.replace(design, matrix=x.view(), response=y.view())
        view.matrix.setflags(write=False)
        view.response.setflags(write=False)
        fit_logistic(view)
        assert view.row_patterns is None
        x[:200, 2] = 1.0 - x[:200, 2]
        y[200:] = 1 - y[200:]
        edited = dataclasses.replace(design, matrix=x.copy(), response=y.copy())
        assert_identical_fits(fit_logistic(view), fit_logistic(edited))


@st.composite
def level_designs(draw):
    """A 0/1-heavy design: a column of ones, the indicators of k exclusive
    levels that cover every row but the ``broken`` ones, other 0/1 columns
    and at times a float column, with the broken rows of weight 1 and the
    others of weights up to ``top``. Its level indicators sum to the ones
    column but on the broken rows, so it is nearly rank deficient when they
    weigh little against the rest. Returns (design, weights)."""
    rows = draw(st.integers(12, 60))
    k = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = rng.integers(0, k, size=rows)
    broken = draw(st.integers(0, 3))
    level[:broken] = -1
    columns = [np.ones(rows)] + [(level == j).astype(np.float64) for j in range(k)]
    for _ in range(draw(st.integers(0, 3))):
        columns.append((rng.random(rows) < 0.3).astype(np.float64))
    if draw(st.booleans()):
        columns.append(rng.normal(size=rows))
    order = draw(st.permutations(range(len(columns))))
    x = np.asfortranarray(np.column_stack([columns[j] for j in order]))
    y = (rng.random(rows) < 0.4).astype(np.int8)
    top = draw(st.sampled_from([1, 10, 10**3, 10**6, 10**9, 10**11, 10**12, 10**14]))
    w = rng.integers(1, top + 1, size=rows)
    w = w.astype(np.float64)
    w[:broken] = 1.0
    names = tuple(f"c{j}" for j in range(len(columns)))
    return DyadDesign(y, x, names), w


class TestZeroOneRankCertificate:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(level_designs())
    def test_a_certified_design_has_full_rank(self, case):
        design, w = case
        x = design.matrix
        with mock.patch.object(estimator, "_BLOCK_ROWS", 16):
            rows = fitted_rows(x, design.response, w)
            info = evaluate(x, design.response.astype(float), w, np.zeros(x.shape[1]))[2]
            # a level that no row holds is dropped
            m2 = math.fsum(float(np.abs(x[:, j]).max()) ** 2 for j in rows.kept)
            if _full_rank_certificate(info, m2, rows.ws):
                assert _rank(rows.design_blocks(), rows.ws) == len(rows.kept)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                try:
                    fit_checked(design, weights=w)
                except RankDeficiencyError:
                    pass

    def test_levels_that_sum_to_another_column_name_it(self):
        # a, b and c are exclusive levels, and ab is 1 exactly where a or b
        # is: the QR names ab, the last column of the dependent prefix
        rng = np.random.default_rng(253)
        level = rng.integers(0, 4, size=300)
        a, b, c = ((level == j).astype(np.float64) for j in range(3))
        x = np.column_stack([np.ones(300), a, b, a + b, c, rng.normal(size=300)])
        y = (rng.random(300) < 0.3).astype(np.int8)
        design = DyadDesign(y, x, ("edges", "a", "b", "ab", "c", "f"))
        with pytest.raises(RankDeficiencyError, match=r"\(5/6\); dependent columns: ab$"):
            fit_checked(design)
        with pytest.raises(RankDeficiencyError, match=r"\(5/6\); dependent columns: ab$"):
            fit_checked(design, weights=rng.integers(1, 4, size=300))


class TestNumpyKernelsAgainstScipy:
    """The numpy sigmoid, p-values and rank rule against scipy and numpy."""

    def test_sigmoid_matches_expit(self):
        eta = np.concatenate([
            np.linspace(-800.0, 800.0, 4001),
            [-np.inf, -745.0, -40.0, -1e-300, 0.0, 1e-300, 40.0, 745.0, np.inf],
        ])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            mu, log1pexp = _logistic(eta)
        # scipy's 1 / (1 + exp(-eta)) flushes to 0 below eta of about -744,
        # where the true value is subnormal; everywhere else compare relative
        np.testing.assert_allclose(
            mu, expit(eta), rtol=1e-15, atol=np.finfo(np.float64).tiny
        )
        assert mu[0] == 0.0 and mu[-1] == 1.0
        # log(1 + exp(eta)) on the same grid, infinities included
        np.testing.assert_allclose(
            log1pexp, np.logaddexp(0.0, eta), rtol=1e-15, atol=np.finfo(np.float64).tiny
        )
        assert log1pexp[-1] == np.inf and (log1pexp[eta == -np.inf] == 0.0).all()

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
        # 25 designs inside one row block, then 4 of two to three blocks
        for draw in range(29):
            rows = int(rng.integers(30, 200)) if draw < 25 else several_blocks(rng)
            p = int(rng.integers(3, 9))
            x, k = planted_design(rng, rows, p)
            y = (rng.random(rows) < 0.4).astype(float)
            names = tuple(f"c{j}" for j in range(p))
            design = DyadDesign(y, x, names)
            with pytest.raises(RankDeficiencyError) as err:
                fit_checked(design)
            # the planted column is the last of its dependent set
            assert str(err.value).endswith(f"dependent columns: c{k}")

    def test_rank_agrees_with_matrix_rank(self):
        rng = np.random.default_rng(62)
        # 25 designs inside one row block, then 4 of two to three blocks
        for draw in range(29):
            rows = int(rng.integers(30, 200)) if draw < 25 else several_blocks(rng)
            p = int(rng.integers(3, 9))
            full = rng.normal(size=(rows, p))
            planted, _ = planted_design(rng, rows, p)
            assert rank(full) == np.linalg.matrix_rank(full) == p
            assert rank(planted) == np.linalg.matrix_rank(planted) == p - 1
            y = np.arange(rows) % 2
            names = tuple(f"c{j}" for j in range(p))
            assert fit_checked(DyadDesign(y, full, names)).n_params == p
            with pytest.raises(RankDeficiencyError):
                fit_checked(DyadDesign(y, planted, names))

    def test_non_finite_design_raises(self):
        x = np.column_stack([np.ones(5), [0.0, 1.0, np.nan, 1.0, 0.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        design = DyadDesign(y, x, ("a", "b"))
        with pytest.raises(NumericalError, match="non-finite"):
            fit_checked(design)


@st.composite
def near_dependent_designs(draw):
    """A design whose rows, scaled by the square roots of their integer
    weights (up to 1e5), have singular values from 1 down to 10**-k, k from
    1 to 15, read in one to three blocks of 16 rows, with a start at zero
    or far from it (the largest |eta| at 40). Returns (design, weights,
    start, k)."""
    k = draw(st.integers(1, 15))
    p = draw(st.integers(2, 6))
    rows = draw(st.integers(8, 48))
    top = draw(st.sampled_from([1, 10, 10**3, 10**5]))
    far = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(rng.normal(size=(rows, p)))[0]
    v = np.linalg.qr(rng.normal(size=(p, p)))[0]
    w = rng.integers(1, top + 1, size=rows).astype(np.float64)
    scaled = (u * np.geomspace(1.0, 10.0**-k, p)) @ v.T
    x = np.asfortranarray(scaled / np.sqrt(w)[:, None])
    y = rng.integers(0, 2, size=rows).astype(np.int8)
    start = np.zeros(p)
    if far:
        start = rng.normal(size=p)
        start *= 40.0 / np.abs(x @ start).max()
    names = tuple(f"c{j}" for j in range(p))
    return DyadDesign(y, x, names), w, start, k


class TestRankCertificate:
    """Newton's first information certifies full rank; the row-blocked QR
    decides wherever it cannot."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(near_dependent_designs())
    def test_a_certified_design_has_full_rank(self, case):
        design, w, start, k = case
        x, p = design.matrix, design.matrix.shape[1]
        with mock.patch.object(estimator, "_BLOCK_ROWS", 16):
            xs, ws = _blocks(x), _blocks(w)
            info = evaluate(x, design.response.astype(float), w, start)[2]
            m2 = math.fsum(float(np.abs(x[:, j]).max()) ** 2 for j in range(p))
            certified = _full_rank_certificate(info, m2, ws)
            if certified:
                assert _rank(xs, ws) == p
            # at zero start it decides while the near-dependency stands
            # far above the rounding
            if not start.any() and k <= 4:
                assert certified
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                try:
                    fit_checked(design, weights=w, _start=start)
                except RankDeficiencyError:
                    assert not certified

    def test_the_certificate_counts_weights_as_rows(self):
        # scaled rows with singular values 1 and 1e-6: far above the
        # rounding of the information, and above the rank tolerance at unit
        # weights, but under it at weights of 1e9 (1e10 * eps is 2.2e-6)
        rng = np.random.default_rng(222)
        u = np.linalg.qr(rng.normal(size=(10, 2)))[0]
        v = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        scaled = (u * [1.0, 1e-6]) @ v.T
        for weight, full in ((1.0, True), (1e9, False)):
            x = np.asfortranarray(scaled / math.sqrt(weight))
            xs, ws = _blocks(x), _blocks(np.full(10, weight))
            info = evaluate(x, np.arange(10) % 2.0, np.full(10, weight), np.zeros(2))[2]
            m2 = math.fsum(float(np.abs(x[:, j]).max()) ** 2 for j in range(2))
            assert _full_rank_certificate(info, m2, ws) == full
            assert _rank(xs, ws) == (2 if full else 1)

    def test_the_qr_runs_only_where_the_certificate_cannot_decide(self):
        g = random_graph(np.random.default_rng(218), 60, 0.05)
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)", "odegpop"))
        with mock.patch.object(estimator, "_rank", wraps=_rank) as spy:
            fit_logistic(build_design(g, None, spec))
        assert spy.call_count == 0
        # c is b moved by 1e-12: full rank to the QR, whose tolerance is
        # 40 * eps of the largest singular value, but below the rounding
        # the certificate allows
        rng = np.random.default_rng(221)
        x = np.column_stack([np.ones(40), rng.normal(size=40), np.zeros(40)])
        x[:, 2] = x[:, 1] + 1e-12 * rng.normal(size=40)
        design = DyadDesign(np.arange(40) % 2, x, tuple("abc"))
        with mock.patch.object(estimator, "_rank", wraps=_rank) as spy:
            with warnings.catch_warnings():
                # b and c have standard errors past SE_THRESHOLD
                warnings.simplefilter("ignore", UserWarning)
                assert fit_checked(design).n_params == 3
        # once for the fit and once for its oracle
        assert spy.call_count == 2

    @pytest.mark.parametrize("dependent", [False, True])
    def test_the_qr_decides_first_where_no_bound_is_finite(self, dependent):
        # squares of 1e155 overflow, so sum(w) * m2 bounds nothing and the
        # QR runs before any evaluation, which could warn; at weights of
        # 1e-20 the information itself stays finite
        rng = np.random.default_rng(223)
        x = np.column_stack([np.ones(30), rng.normal(size=30), rng.normal(size=30)])
        if dependent:
            x[:, 2] = 2.0 * x[:, 1]
        design = DyadDesign(np.arange(30) % 2, 1e155 * x, tuple("abc"))
        calls = []

        def spy(rows, theta):
            calls.append(estimator._rank.call_count)
            return _evaluate_rows(rows, theta)

        with mock.patch.object(estimator, "_rank", wraps=_rank), \
                mock.patch.object(estimator, "_evaluate_rows", spy):
            if dependent:
                with pytest.raises(RankDeficiencyError, match="dependent columns: c$"):
                    fit_checked(design, weights=np.full(30, 1e-20))
                assert calls == []
            else:
                with warnings.catch_warnings():
                    # the scores, of order 1e135, never reach the tolerance
                    warnings.simplefilter("ignore", UserWarning)
                    fit = fit_checked(design, weights=np.full(30, 1e-20))
                assert fit.n_params == 3
                # the first evaluation of each fit follows its QR
                assert calls[0] == 1 and calls[len(fit.ll_path) + fit.step_halvings] == 2

    def test_pooled_course_fits_run_no_qr(self, course_files):
        events = ingest.load_events(course_files["edges"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            g, table = ingest.assemble_network(
                events, ingest.load_attributes(course_files["attrs"])
            )
        table = table.restrict([table.ids[m] for m in largest_component(g).members])
        series = ingest.slice_periods(events, table)
        spec = parse_terms(config.TEMPORAL_TERMS)
        with mock.patch.object(estimator, "_rank", wraps=_rank) as spy:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                point, boot = fit_btergm(series, table, spec, replications=4, seed=3)
        assert spy.call_count == 0
        assert point.converged and len(boot.replicate_coefficients) > 0
