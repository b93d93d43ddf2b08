import dataclasses
import warnings

import numpy as np
import pytest

import netergm.temporal
from netergm import (
    ConfigError,
    DimensionError,
    DirectedGraph,
    DyadDesign,
    EmptyDesignError,
    InsufficientPeriodsError,
    NetworkModelError,
    NetworkSeries,
    NumericalError,
    RankDeficiencyError,
    build_design,
    build_graph,
    fit_btergm,
    fit_formation,
    fit_logistic,
    fit_mple,
    formation_design,
    parse_terms,
    pooled_design,
)
from netergm.temporal import LAGGED_TIE_NAME, formation_bic_all_dyads
from helpers import change_stats, random_graph, simple_table


SPEC = parse_terms(("edges", "mutual"))


def series_of(graphs, labels=None):
    n = graphs[0].node_count
    labels = labels or tuple(f"P{k}" for k in range(len(graphs)))
    bps = tuple((k + 1, k + 1) for k in range(len(graphs)))
    return NetworkSeries(n, tuple(labels), tuple(graphs), bps)


class TestPooledDesign:
    def test_stacks_modeled_periods(self):
        rng = np.random.default_rng(51)
        graphs = [random_graph(rng, 6, 0.3) for _ in range(4)]
        series = series_of(graphs)
        design = pooled_design(series, None, SPEC)
        d = 6 * 5
        assert design.matrix.shape == (3 * d, 2)
        assert design.periods is not None
        # each block equals the cross-sectional design of its own panel
        for b, g in enumerate(graphs[1:]):
            block = slice(b * d, (b + 1) * d)
            single = build_design(g, None, SPEC)
            np.testing.assert_allclose(design.matrix[block], single.matrix)
            np.testing.assert_array_equal(design.response[block], single.response)
            assert set(design.periods[block]) == {series.labels[b + 1]}

    def test_lagged_tie_column(self):
        rng = np.random.default_rng(52)
        graphs = [random_graph(rng, 5, 0.4) for _ in range(3)]
        series = series_of(graphs)
        design = pooled_design(series, None, SPEC, include_lagged_tie=True)
        assert design.term_names[-1] == LAGGED_TIE_NAME
        d = 5 * 4
        for b in range(2):
            prev = graphs[b].adjacency
            block = design.matrix[b * d:(b + 1) * d, -1]
            dyads = design.dyads[b * d:(b + 1) * d]
            expect = [float(prev[i, j]) for i, j in dyads]
            np.testing.assert_allclose(block, expect)

    def test_needs_two_periods(self):
        g = build_graph(4, [(0, 1)])
        with pytest.raises(InsufficientPeriodsError):
            pooled_design(series_of([g]), None, SPEC)


class TestFitBtergm:
    def test_identical_panels_match_cross_sectional_fit(self):
        rng = np.random.default_rng(53)
        base = random_graph(rng, 8, 0.35)
        # make sure some mutual dyads exist so neither term separates
        g = DirectedGraph(8, base.edges | {(0, 1), (1, 0), (2, 3), (3, 2)})
        series = series_of([g, g, g])
        point, boot = fit_btergm(series, None, SPEC, replications=3, seed=0)
        single = fit_mple(g, None, SPEC)
        np.testing.assert_allclose(
            point.coefficients, single.coefficients, atol=1e-8
        )
        # resampling identical blocks cannot move the estimate
        np.testing.assert_allclose(
            boot.replicate_coefficients - point.coefficients, 0.0, atol=1e-8
        )
        np.testing.assert_allclose(boot.ci_upper - boot.ci_lower, 0.0, atol=1e-8)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(54)
        graphs = [random_graph(rng, 7, 0.3) for _ in range(4)]
        series = series_of(graphs)
        _, a = fit_btergm(series, None, SPEC, replications=8, seed=9)
        _, b = fit_btergm(series, None, SPEC, replications=8, seed=9)
        np.testing.assert_array_equal(
            a.replicate_coefficients, b.replicate_coefficients
        )
        _, c = fit_btergm(series, None, SPEC, replications=8, seed=10)
        assert not np.array_equal(
            a.replicate_coefficients, c.replicate_coefficients
        )

    def test_interval_and_significance_shape(self):
        rng = np.random.default_rng(55)
        graphs = [random_graph(rng, 9, 0.3) for _ in range(4)]
        series = series_of(graphs)
        point, boot = fit_btergm(series, None, SPEC, replications=20, seed=2)
        assert boot.term_names == SPEC.names
        assert boot.replications == 20
        assert boot.n_valid == 20 - boot.dropped_replicates
        assert boot.replicate_coefficients.shape == (boot.n_valid, 2)
        assert (boot.ci_lower <= boot.ci_upper).all()
        np.testing.assert_allclose(
            boot.ci_lower,
            np.percentile(boot.replicate_coefficients, 2.5, axis=0),
        )
        np.testing.assert_allclose(
            boot.ci_upper,
            np.percentile(boot.replicate_coefficients, 97.5, axis=0),
        )
        np.testing.assert_array_equal(
            boot.significant, (boot.ci_lower > 0) | (boot.ci_upper < 0)
        )
        np.testing.assert_allclose(
            boot.standard_errors,
            boot.replicate_coefficients.std(axis=0, ddof=1),
        )

    def test_node_mode_runs(self):
        rng = np.random.default_rng(56)
        graphs = [random_graph(rng, 8, 0.35) for _ in range(3)]
        series = series_of(graphs)
        point, boot = fit_btergm(
            series, None, SPEC, replications=6, seed=3, mode="node"
        )
        assert boot.mode == "node"
        assert boot.replicate_coefficients.shape[1] == 2

    def test_unexpected_replicate_error_propagates(self, monkeypatch):
        rng = np.random.default_rng(56)
        series = series_of([random_graph(rng, 8, 0.35) for _ in range(3)])
        real_fit = netergm.temporal.fit_logistic
        calls = []

        def flaky_fit(design, **options):
            calls.append(design)
            if len(calls) == 3:  # the second bootstrap replicate
                raise TypeError("a bug, not a failed fit")
            return real_fit(design, **options)

        monkeypatch.setattr(netergm.temporal, "fit_logistic", flaky_fit)
        with pytest.raises(TypeError, match="a bug"):
            fit_btergm(series, None, SPEC, replications=4, seed=3)

    def test_drop_reasons_are_counted(self, monkeypatch):
        rng = np.random.default_rng(56)
        series = series_of([random_graph(rng, 8, 0.35) for _ in range(3)])
        real_fit = netergm.temporal.fit_logistic
        calls = []

        def failing_fit(design, **options):
            calls.append(design)
            # call 1 is the point fit; calls 2-4 are the first replicates
            if len(calls) == 2:
                raise RankDeficiencyError("design is rank deficient")
            fit = real_fit(design, **options)
            if len(calls) == 3:
                return dataclasses.replace(fit, converged=False)
            if len(calls) == 4:
                return dataclasses.replace(fit, dropped_terms=("mutual",))
            return fit

        monkeypatch.setattr(netergm.temporal, "fit_logistic", failing_fit)
        _, boot = fit_btergm(series, None, SPEC, replications=6, seed=3)
        assert boot.drop_reasons == {
            "RankDeficiencyError": 1,
            "not_converged": 1,
            "dropped_term": 1,
        }
        assert boot.dropped_replicates == 3
        assert boot.n_valid == 3

    def test_too_few_replications(self):
        rng = np.random.default_rng(57)
        series = series_of([random_graph(rng, 5, 0.4) for _ in range(3)])
        with pytest.raises(ConfigError):
            fit_btergm(series, None, SPEC, replications=1)

    def test_bad_mode(self):
        rng = np.random.default_rng(58)
        series = series_of([random_graph(rng, 5, 0.4) for _ in range(3)])
        with pytest.raises(ConfigError):
            fit_btergm(series, None, SPEC, replications=3, mode="edge")


def restacked_replicates(pooled, units, mode, replications, seed):
    """The bootstrap as row copies: each replicate stacks the rows of the
    drawn periods (or senders) in draw order and fits that design."""
    if mode == "temporal":
        size = pooled.n_rows // units
        rows_of = [np.arange(k * size, (k + 1) * size) for k in range(units)]
    else:
        rows_of = [np.nonzero(pooled.dyads[:, 0] == s)[0] for s in range(units)]
    coefs, reasons = [], {}
    for rep in range(replications):
        pick = np.random.default_rng([seed, rep]).integers(0, units, size=units)
        rows = np.concatenate([rows_of[k] for k in pick])
        design = DyadDesign(
            pooled.dyads[rows], pooled.response[rows], pooled.matrix[rows],
            pooled.term_names, pooled.periods[rows],
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = fit_logistic(design)
        except (NetworkModelError, np.linalg.LinAlgError) as exc:
            reason = type(exc).__name__
        else:
            if not fit.converged:
                reason = "not_converged"
            elif fit.dropped_terms:
                reason = "dropped_term"
            else:
                coefs.append(fit.coefficients)
                continue
        reasons[reason] = reasons.get(reason, 0) + 1
    return np.array(coefs), reasons


class TestBootstrapReweighting:
    @pytest.mark.filterwarnings("ignore:possible separation")
    @pytest.mark.parametrize("lag", [False, True], ids=["no_lag", "lag"])
    @pytest.mark.parametrize("mode", ["temporal", "node"])
    def test_replicates_match_restacked_rows(self, mode, lag):
        rng = np.random.default_rng(60)
        n = 9
        graphs = [random_graph(rng, n, 0.25) for _ in range(4)]
        # an empty panel and a rare level make some replicates fail
        graphs[1] = DirectedGraph(n, frozenset())
        table = simple_table(
            tuple(f"n{k}" for k in range(n)),
            levels={"team": ("b", "r")},
            team=tuple("r" if k < 2 else "b" for k in range(n)),
        )
        spec = parse_terms(("edges", "mutual", "nodematch(team, r)"))
        series = series_of(graphs)
        _, boot = fit_btergm(
            series, table, spec, replications=40, seed=60, mode=mode,
            include_lagged_tie=lag,
        )
        pooled = pooled_design(series, table, spec, include_lagged_tie=lag)
        units = len(graphs) - 1 if mode == "temporal" else n
        coefs, reasons = restacked_replicates(pooled, units, mode, 40, 60)
        assert boot.drop_reasons == reasons
        assert sum(reasons.values()) > 0
        np.testing.assert_allclose(
            boot.replicate_coefficients, coefs, rtol=1e-8, atol=1e-8
        )


class TestFormation:
    def test_free_set_and_union_stats(self):
        prev = build_graph(4, [(0, 1), (2, 3)])
        curr = build_graph(4, [(0, 1), (1, 2), (3, 2)])
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)"))
        design = formation_design(prev, curr, None, spec)
        free = [(i, j) for i in range(4) for j in range(4)
                if i != j and not prev.has_edge(i, j)]
        assert [tuple(r) for r in design.dyads] == free
        union = DirectedGraph(4, prev.edges | curr.edges)
        for k, (i, j) in enumerate(free):
            np.testing.assert_allclose(
                design.matrix[k],
                change_stats(union, None, (i, j), spec),
                atol=1e-12,
            )
            assert design.response[k] == curr.has_edge(i, j)

    def test_reduces_to_constrained_cross_sectional_fit(self):
        rng = np.random.default_rng(61)
        spec = parse_terms(("edges", "mutual"))
        prev = random_graph(rng, 8, 0.2)
        curr = random_graph(rng, 8, 0.25)
        union = DirectedGraph(8, prev.edges | curr.edges)
        free = [(i, j) for i in range(8) for j in range(8)
                if i != j and not prev.has_edge(i, j)]
        a = fit_formation(prev, curr, None, spec)
        b = fit_mple(union, None, spec, free_dyads=free)
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-10)
        assert a.n_dyads == b.n_dyads == len(free)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            formation_design(
                build_graph(4, [(0, 1)]), build_graph(5, [(0, 1)]), None, SPEC
            )

    def test_saturated_previous_panel(self):
        n = 3
        full = DirectedGraph(
            n, frozenset((i, j) for i in range(n) for j in range(n) if i != j)
        )
        with pytest.raises(EmptyDesignError):
            formation_design(full, full, None, SPEC)

    def test_more_prior_ties_mean_fewer_free_dyads(self):
        rng = np.random.default_rng(62)
        curr = random_graph(rng, 7, 0.3)
        sparse = random_graph(rng, 7, 0.1)
        dense = DirectedGraph(7, sparse.edges | random_graph(rng, 7, 0.3).edges)
        d_sparse = formation_design(sparse, curr, None, SPEC)
        d_dense = formation_design(dense, curr, None, SPEC)
        assert d_dense.n_rows <= d_sparse.n_rows

    def test_all_dyad_bic_convention(self):
        rng = np.random.default_rng(63)
        prev = random_graph(rng, 8, 0.15)
        curr = random_graph(rng, 8, 0.3)
        fit = fit_formation(prev, curr, None, SPEC)
        expect = fit.residual_deviance + fit.n_params * np.log(8 * 7)
        assert formation_bic_all_dyads(fit, 8) == pytest.approx(expect)
