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
from netergm.estimator import _scan, _unique_rows
from netergm.temporal import LAGGED_TIE_NAME, formation_bic_all_dyads
from helpers import (
    assert_same_scan,
    change_stats,
    random_graph,
    refit_every_replicate,
    simple_table,
)


SPEC = parse_terms(("edges", "mutual"))


def series_of(graphs, labels=None):
    n = graphs[0].node_count
    labels = labels or tuple(f"P{k}" for k in range(len(graphs)))
    return NetworkSeries(n, tuple(labels), tuple(graphs))


class TestPooledDesign:
    def test_stacks_modeled_periods(self):
        rng = np.random.default_rng(51)
        graphs = [random_graph(rng, 6, 0.3) for _ in range(4)]
        series = series_of(graphs)
        design = pooled_design(series, None, SPEC)
        d = 6 * 5
        assert design.matrix.shape == (3 * d, 2)
        # block b, rows b*d to (b+1)*d, is the cross-sectional design of
        # modeled period b, dyads in the same row-major order: fit_btergm
        # reads a row's period and sender from its position alone
        for b, g in enumerate(graphs[1:]):
            block = slice(b * d, (b + 1) * d)
            single = build_design(g, None, SPEC)
            np.testing.assert_allclose(design.matrix[block], single.matrix)
            np.testing.assert_array_equal(design.response[block], single.response)

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
            dyads = np.argwhere(~np.eye(5, dtype=bool))
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

    # units drawn per replicate: modeled periods, or sender nodes
    UNITS = {"temporal": 3, "node": 8}

    @staticmethod
    def four_panels():
        rng = np.random.default_rng(56)
        return series_of([random_graph(rng, 8, 0.35) for _ in range(4)])

    def test_unexpected_replicate_error_propagates(self, monkeypatch):
        series = self.four_panels()
        real_fit = netergm.temporal.fit_logistic
        for mode, units in self.UNITS.items():
            assert len(refit_draws(seed=3, replications=6, units=units)) >= 2
            number = weights_numbering()

            def flaky_fit(design, **options):
                if number(options) == 2:  # the second refitted draw
                    raise TypeError("a bug, not a failed fit")
                return real_fit(design, **options)

            monkeypatch.setattr(netergm.temporal, "fit_logistic", flaky_fit)
            with pytest.raises(TypeError, match="a bug"):
                fit_btergm(series, None, SPEC, replications=6, seed=3, mode=mode)

    def test_drop_reasons_are_counted(self, monkeypatch):
        series = self.four_panels()
        real_fit = netergm.temporal.fit_logistic
        for mode, units in self.UNITS.items():
            # the first three refitted draws fail, each for its own reason
            refit = list(refit_draws(seed=3, replications=9, units=units).values())
            assert len(refit) >= 3
            number = weights_numbering()

            def failing_fit(design, **options):
                k = number(options)
                if k == 1:
                    raise RankDeficiencyError("design is rank deficient")
                fit = real_fit(design, **options)
                if k == 2:
                    return dataclasses.replace(fit, converged=False)
                if k == 3:
                    return dataclasses.replace(fit, dropped_terms=("mutual",))
                return fit

            monkeypatch.setattr(netergm.temporal, "fit_logistic", failing_fit)
            _, boot = fit_btergm(series, None, SPEC, replications=9, seed=3, mode=mode)
            # a replicate counts its draw's reason, however often it repeats
            draws = unit_draws(seed=3, replications=9, units=units)
            times = [sum(np.array_equal(d, r) for d in draws) for r in refit[:3]]
            assert boot.drop_reasons == {
                "RankDeficiencyError": times[0],
                "not_converged": times[1],
                "dropped_term": times[2],
            }, mode
            assert boot.dropped_replicates == sum(times)
            assert boot.n_valid == 9 - sum(times)

    @pytest.mark.parametrize("mode", ["temporal", "node"])
    def test_a_column_the_point_fit_drops_is_nan_in_every_replicate(self, mode):
        # every node lies on a ring, so no modeled panel has an isolate and
        # the isolates column is all zero in the point fit and every replicate
        rng = np.random.default_rng(59)
        ring = {(i, (i + 1) % 10) for i in range(10)}
        series = series_of(
            [DirectedGraph(10, random_graph(rng, 10, 0.2).edges | ring) for _ in range(3)]
        )
        spec = parse_terms(("edges", "mutual", "isolates"))
        with pytest.warns(UserWarning, match="all-zero column.*isolates"):
            point, boot = fit_btergm(series, None, spec, replications=5, mode=mode)
        assert point.dropped_terms == ("isolates",)
        assert boot.drop_reasons == {} and boot.n_valid == 5
        assert np.isnan(boot.replicate_coefficients[:, 2]).all()
        assert np.isfinite(boot.replicate_coefficients[:, :2]).all()
        for field in ("standard_errors", "ci_lower", "ci_upper"):
            values = getattr(boot, field)
            assert np.isnan(values[2]) and np.isfinite(values[:2]).all(), field
        assert not boot.significant[2]

    def test_too_few_replications(self):
        rng = np.random.default_rng(57)
        series = series_of([random_graph(rng, 5, 0.4) for _ in range(3)])
        with pytest.raises(ConfigError):
            fit_btergm(series, None, SPEC, replications=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed(self, seed):
        rng = np.random.default_rng(57)
        series = series_of([random_graph(rng, 5, 0.4) for _ in range(3)])
        with pytest.raises(ConfigError, match="seed must be"):
            fit_btergm(series, None, SPEC, replications=3, seed=seed)

    def test_numpy_integer_seed(self):
        rng = np.random.default_rng(57)
        series = series_of([random_graph(rng, 5, 0.4) for _ in range(3)])
        _, a = fit_btergm(series, None, SPEC, replications=4, seed=np.int64(5))
        _, b = fit_btergm(series, None, SPEC, replications=4, seed=5)
        np.testing.assert_array_equal(a.replicate_coefficients, b.replicate_coefficients)
        assert a.seed == 5

    def test_temporal_mode_needs_two_modeled_periods(self):
        rng = np.random.default_rng(59)
        base = random_graph(rng, 8, 0.35)
        g = DirectedGraph(8, base.edges | {(0, 1), (1, 0), (2, 3), (3, 2)})
        series = series_of([random_graph(rng, 8, 0.35), g])
        # one modeled period leaves every replicate the point fit, so its
        # intervals would have zero width
        with pytest.raises(
            InsufficientPeriodsError, match="use mode='node' or more periods"
        ):
            fit_btergm(series, None, SPEC, replications=20, mode="temporal")
        # resampling senders needs only the one period
        _, boot = fit_btergm(series, None, SPEC, replications=20, mode="node")
        assert boot.n_valid > 0 and (boot.ci_upper > boot.ci_lower).all()

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
        # each period's rows are its off-diagonal dyads in row-major order
        sender = np.resize(np.argwhere(~np.eye(units, dtype=bool))[:, 0], pooled.n_rows)
        rows_of = [np.nonzero(sender == s)[0] for s in range(units)]
    coefs, reasons = [], {}
    for rep in range(replications):
        pick = np.random.default_rng([seed, rep]).integers(0, units, size=units)
        rows = np.concatenate([rows_of[k] for k in pick])
        design = DyadDesign(
            pooled.response[rows], pooled.matrix[rows], pooled.term_names
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


def spy_on_fits(monkeypatch, tamper=None):
    """Record the design and options of every ``fit_logistic`` call made by
    ``fit_btergm``; ``tamper`` edits the result of the first (point) fit."""
    real_fit = netergm.temporal.fit_logistic
    calls = []

    def spy(design, **options):
        calls.append((design, options))
        fit = real_fit(design, **options)
        return tamper(fit) if tamper is not None and len(calls) == 1 else fit

    monkeypatch.setattr(netergm.temporal, "fit_logistic", spy)
    return calls


def unit_draws(seed, replications, units):
    """Each replicate's draw count of every unit, in draw order, as
    ``fit_btergm`` draws them."""
    return [
        np.bincount(
            np.random.default_rng([seed, rep]).integers(0, units, size=units),
            minlength=units,
        )
        for rep in range(replications)
    ]


def refit_draws(seed, replications, units):
    """Replicate index -> unit draw counts of the replicates that
    ``fit_btergm`` refits: the first with each draw, but for a draw of every
    unit exactly once, which takes the point fit."""
    refit, seen = {}, {tuple([1] * units)}
    for rep, draws in enumerate(unit_draws(seed, replications, units)):
        if tuple(draws.tolist()) not in seen:
            seen.add(tuple(draws.tolist()))
            refit[rep] = draws
    return refit


def weights_numbering():
    """Number the weight vectors of ``fit_logistic`` calls in order of first
    sight: the point fit's is 0, the first refitted draw's 1, and so on. A
    mock that acts by this number acts alike on every call with the same
    weights, as a real fit does."""
    seen = {}

    def number(options):
        key = np.asarray(options["weights"], dtype=np.float64).tobytes()
        return seen.setdefault(key, len(seen))

    return number


def separated(fit):
    flags = np.zeros_like(fit.separation_flags)
    flags[-1] = True
    return dataclasses.replace(fit, separation_flags=flags)


def unconverged(fit):
    return dataclasses.replace(fit, converged=False)


class TestDistinctRowsAndWarmStarts:
    SPEC3 = parse_terms(("edges", "mutual", "gwesp(0.5)"))

    @staticmethod
    def series(seed, n=10, periods=4):
        rng = np.random.default_rng(seed)
        return series_of([random_graph(rng, n, 0.3) for _ in range(periods)])

    @pytest.mark.filterwarnings("ignore:possible separation")
    @pytest.mark.parametrize("lag", [False, True], ids=["no_lag", "lag"])
    def test_the_distinct_copy_is_grouped_and_scanned_by_its_key(self, monkeypatch, lag):
        rng = np.random.default_rng(74)
        series = self.series(74)
        table = simple_table([f"v{i}" for i in range(10)], team=rng.choice(["a", "b"], 10))
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)", "nodematch(team)"))
        keys, copies = [], []
        record, real = netergm.temporal._record_row_groups, netergm.temporal._distinct

        def spy_record(design, key):
            keys.append(key)
            return record(design, key)

        def spy(design):
            copies.append((design, *real(design)))
            return copies[-1][1:]

        monkeypatch.setattr(netergm.temporal, "_record_row_groups", spy_record)
        monkeypatch.setattr(netergm.temporal, "_distinct", spy)
        fit_btergm(series, table, spec, replications=2, include_lagged_tie=lag)
        ((bits, keyed),), ((pooled, distinct, group),) = keys, copies
        # mutual, the nodematch and the lagged tie are the key's bits
        assert keyed == ((1, 3, 4) if lag else (1, 3))
        for b, k in enumerate(keyed):
            np.testing.assert_array_equal((bits >> b) & 1, pooled.matrix[:, k])
        # the pooled design records its groups, and the scan of its
        # distinct rows, read from the key
        first, expect = _unique_rows(pooled.matrix, pooled.response)
        np.testing.assert_array_equal(pooled.row_groups[0], first)
        np.testing.assert_array_equal(pooled.row_groups[1], expect)
        assert not (pooled.matrix.flags.writeable or pooled.response.flags.writeable)
        x = np.asarray(pooled.matrix, dtype=np.float64)
        assert_same_scan(pooled.row_patterns, _scan(x, first, len(first)))
        # the copy holds the distinct rows and shares that scan
        np.testing.assert_array_equal(group, expect)
        np.testing.assert_array_equal(distinct.matrix, pooled.matrix[first])
        assert distinct.row_patterns is pooled.row_patterns
        x = np.asarray(distinct.matrix, dtype=np.float64)
        assert_same_scan(distinct.row_patterns, _scan(x, None, len(x)))

    @pytest.mark.parametrize("lag", [False, True], ids=["no_lag", "lag"])
    def test_pooled_design_records_the_groups_of_its_rows(self, lag):
        series = self.series(75)
        pooled = pooled_design(series, None, self.SPEC3, include_lagged_tie=lag)
        assert (LAGGED_TIE_NAME in pooled.term_names) == lag
        for a, b in zip(pooled.row_groups, _unique_rows(pooled.matrix, pooled.response),
                        strict=True):
            np.testing.assert_array_equal(a, b)
        assert not (pooled.matrix.flags.writeable or pooled.response.flags.writeable)

    def test_point_fit_matches_the_pooled_design_fit(self):
        series = self.series(70)
        point, _ = fit_btergm(
            series, None, self.SPEC3, replications=2, seed=0, include_lagged_tie=True
        )
        full = fit_logistic(
            pooled_design(series, None, self.SPEC3, include_lagged_tie=True)
        )
        for field in ("coefficients", "standard_errors", "p_values", "covariance"):
            np.testing.assert_allclose(
                getattr(point, field), getattr(full, field),
                rtol=1e-10, atol=1e-10, err_msg=field,
            )
        for field in ("null_deviance", "residual_deviance", "aic", "bic"):
            assert getattr(point, field) == pytest.approx(
                getattr(full, field), rel=1e-12
            ), field
        assert point.n_dyads == full.n_dyads == 3 * 10 * 9
        assert isinstance(point.n_dyads, int)

    def test_every_fit_runs_on_the_distinct_rows(self, monkeypatch):
        series = self.series(71)
        pooled = pooled_design(series, None, self.SPEC3)
        distinct = np.unique(
            np.column_stack([pooled.matrix, pooled.response]), axis=0
        )
        assert len(distinct) < pooled.n_rows
        calls = spy_on_fits(monkeypatch)
        point, _ = fit_btergm(series, None, self.SPEC3, replications=5, seed=4)
        refit = refit_draws(seed=4, replications=5, units=3)
        assert len(calls) == 1 + len(refit)
        design = calls[0][0]
        assert all(d is design for d, _ in calls)
        assert design.n_rows == len(distinct)
        # the point fit starts at zero, every replicate at the point estimate
        assert calls[0][1].get("_start") is None
        for _, options in calls[1:]:
            np.testing.assert_array_equal(options["_start"], point.coefficients)
        # the weights sum to the pooled rows of the drawn periods, restacked
        assert all(options["weights"].sum() == pooled.n_rows for _, options in calls)

    @pytest.mark.parametrize(
        "tamper", [separated, unconverged], ids=["separated", "not_converged"]
    )
    def test_cold_starts_after_a_flagged_point_fit(self, monkeypatch, tamper):
        calls = spy_on_fits(monkeypatch, tamper)
        fit_btergm(self.series(72), None, self.SPEC3, replications=5, seed=4)
        assert len(calls) == 1 + len(refit_draws(seed=4, replications=5, units=3))
        assert all(options.get("_start") is None for _, options in calls)

    @pytest.mark.parametrize("mode", ["temporal", "node"])
    def test_warm_starts_save_iterations_and_agree_with_cold_starts(
        self, monkeypatch, mode
    ):
        series = self.series(73)
        run = dict(replications=12, seed=73, mode=mode)
        _, warm = fit_btergm(series, None, self.SPEC3, **run)
        real_fit = netergm.temporal.fit_logistic
        monkeypatch.setattr(
            netergm.temporal,
            "fit_logistic",
            lambda design, **options: real_fit(design, **{**options, "_start": None}),
        )
        _, cold = fit_btergm(series, None, self.SPEC3, **run)
        assert warm.drop_reasons == cold.drop_reasons
        np.testing.assert_allclose(
            warm.replicate_coefficients, cold.replicate_coefficients,
            rtol=0, atol=1e-8,
        )
        assert [k is None for k in warm.replicate_iterations] == [
            k is None for k in cold.replicate_iterations
        ]
        used = [
            sum(k for k in boot.replicate_iterations if k is not None)
            for boot in (warm, cold)
        ]
        assert used[0] < used[1]

    def test_draws_of_every_period_once_reuse_the_point_fit(self, monkeypatch):
        series = self.series(73)
        real_fit = netergm.temporal.fit_logistic
        calls = spy_on_fits(monkeypatch)
        point, boot = fit_btergm(series, None, self.SPEC3, replications=12, seed=73)
        refit = refit_draws(seed=73, replications=12, units=3)
        assert len(refit) < 12
        assert len(calls) == 1 + len(refit)
        assert point.converged and not point.separation_flags.any()
        # the bootstrap with every replicate refit from the point estimate
        distinct = calls[0][0]
        pooled = pooled_design(series, None, self.SPEC3)
        first, group = _unique_rows(pooled.matrix, pooled.response)
        unit_of_row = np.repeat(np.arange(3), 10 * 9)
        coefs, reasons, iterations = [], {}, []
        for rep in range(12):
            pick = np.random.default_rng([73, rep]).integers(0, 3, size=3)
            row_weights = np.bincount(pick, minlength=3)[unit_of_row]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = real_fit(
                    distinct,
                    weights=np.bincount(group, weights=row_weights, minlength=len(first)),
                    _start=point.coefficients,
                )
            iterations.append(fit.iterations)
            if fit.converged and not fit.dropped_terms:
                coefs.append(fit.coefficients)
            else:
                reason = "not_converged" if not fit.converged else "dropped_term"
                reasons[reason] = reasons.get(reason, 0) + 1
        np.testing.assert_array_equal(boot.replicate_coefficients, np.array(coefs))
        assert boot.drop_reasons == reasons
        assert boot.replicate_iterations == tuple(iterations)
        once = [
            rep for rep, draws in enumerate(unit_draws(73, 12, 3)) if (draws == 1).all()
        ]
        assert [iterations[rep] for rep in once] == [0, 0, 0]

    def test_a_reused_point_fit_records_a_fit_that_stops_at_once(self, monkeypatch):
        calls = spy_on_fits(monkeypatch)
        point, boot = fit_btergm(self.series(73), None, self.SPEC3, replications=12, seed=73)
        once = [
            rep for rep, draws in enumerate(unit_draws(73, 12, 3)) if (draws == 1).all()
        ]
        assert len(once) == 3
        distinct, options = calls[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again = fit_logistic(
                distinct, weights=options["weights"], _start=point.coefficients
            )
        assert again.iterations == 0 and again.step_halvings == 0
        assert len(again.ll_path) == 1
        np.testing.assert_array_equal(again.coefficients, point.coefficients)
        # nothing is dropped, so the replicate rows stand in draw order
        assert boot.dropped_replicates == 0
        for rep in once:
            assert boot.replicate_iterations[rep] == again.iterations
            np.testing.assert_array_equal(
                boot.replicate_coefficients[rep], again.coefficients
            )

    def test_replicate_iterations_in_draw_order(self, monkeypatch):
        real_fit = netergm.temporal.fit_logistic
        number = weights_numbering()
        fits = {}

        def fit_or_raise(design, **options):
            k = number(options)
            if k == 3:  # the third refitted draw
                fits[k] = None
                raise RankDeficiencyError("design is rank deficient")
            fits[k] = real_fit(design, **options)
            return fits[k]

        monkeypatch.setattr(netergm.temporal, "fit_logistic", fit_or_raise)
        _, boot = fit_btergm(self.series(74), None, SPEC, replications=12, seed=5)
        # a replicate reports the fit of its draw; every unit drawn once
        # takes the point fit, which stops at once from its own estimate
        refit = refit_draws(seed=5, replications=12, units=3)
        fit_of = {
            tuple(draws.tolist()): fits[k]
            for k, draws in enumerate(refit.values(), start=1)
        }
        expect = []
        for draws in unit_draws(5, 12, 3):
            fit = fit_of.get(tuple(draws.tolist()))
            if (draws == 1).all():
                expect.append(0)
            else:
                expect.append(None if fit is None else fit.iterations)
        assert boot.replicate_iterations == tuple(expect)
        assert expect.count(None) == 2
        assert all(isinstance(k, int) for k in expect if k is not None)


TEAM = simple_table(
    tuple(f"n{k}" for k in range(9)),
    levels={"team": ("b", "r")},
    team=tuple("r" if k < 2 else "b" for k in range(9)),
)
TEAM_SPEC = parse_terms(("edges", "mutual", "nodematch(team, r)"))


def team_series(warm):
    """Four 9-node panels, the first modeled one empty, and a team "r" of
    nodes 0 and 1. Warm, the pair is tied in the last two panels; cold, it
    is never tied, so ``nodematch(team, r)`` separates in the point fit and
    every replicate starts cold."""
    rng = np.random.default_rng(60)
    graphs = [random_graph(rng, 9, 0.25) for _ in range(4)]
    graphs[1] = DirectedGraph(9, frozenset())
    pair = {(0, 1), (1, 0)}
    graphs = [DirectedGraph(9, g.edges - pair) for g in graphs]
    if warm:
        graphs[2] = DirectedGraph(9, graphs[2].edges | {(0, 1)})
        graphs[3] = DirectedGraph(9, graphs[3].edges | {(1, 0)})
    return series_of(graphs)


class TestEachDistinctDrawFitOnce:
    @pytest.mark.filterwarnings("ignore:possible separation")
    @pytest.mark.parametrize("lag", [False, True], ids=["no_lag", "lag"])
    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    @pytest.mark.parametrize("mode", ["temporal", "node"])
    def test_every_field_matches_refitting_every_replicate(
        self, monkeypatch, mode, warm, lag
    ):
        series = team_series(warm)
        run = dict(replications=40, seed=60, mode=mode, include_lagged_tie=lag)
        calls = spy_on_fits(monkeypatch)
        point, boot = fit_btergm(series, TEAM, TEAM_SPEC, **run)
        assert (point.converged and not point.separation_flags.any()) == warm
        assert all((options["_start"] is not None) == warm for _, options in calls[1:])
        units = 3 if mode == "temporal" else 9
        assert len(calls) == 1 + len(refit_draws(60, 40, units))
        expect = refit_every_replicate(series, TEAM, TEAM_SPEC, **run)
        got = dataclasses.asdict(boot)
        assert got.keys() == expect.keys()
        for field, value in expect.items():
            if isinstance(value, np.ndarray):
                assert got[field].shape == value.shape, field
                np.testing.assert_array_equal(got[field], value, err_msg=field)
            else:
                assert got[field] == value, field

    def test_three_modeled_periods_fit_at_most_ten_times(self, monkeypatch):
        calls = spy_on_fits(monkeypatch)
        _, boot = fit_btergm(team_series(True), TEAM, TEAM_SPEC, replications=100)
        # the point fit, and one refit of each of the 9 other draws at most
        assert len(calls) <= 10
        assert len(calls) == 1 + len(refit_draws(0, 100, 3))
        assert len(boot.replicate_iterations) == 100

    def test_a_raising_draw_counts_each_time_it_is_drawn(self, monkeypatch):
        real_fit = netergm.temporal.fit_logistic
        number = weights_numbering()

        def fit_or_raise(design, **options):
            if number(options) == 1:
                raise np.linalg.LinAlgError("the first refitted draw fails")
            return real_fit(design, **options)

        monkeypatch.setattr(netergm.temporal, "fit_logistic", fit_or_raise)
        _, boot = fit_btergm(team_series(True), TEAM, TEAM_SPEC, replications=12, seed=5)
        # seed 5 draws (1, 0, 2) first, and 5 times in 12
        times = sum((d == [1, 0, 2]).all() for d in unit_draws(5, 12, 3))
        assert times == 5
        assert boot.drop_reasons == {"LinAlgError": 5}
        assert boot.replicate_iterations.count(None) == 5

    def test_a_type_error_is_not_an_outcome(self, monkeypatch):
        real_fit = netergm.temporal.fit_logistic
        calls = []

        def fit_or_raise(design, **options):
            calls.append(options)
            if len(calls) == 2:
                raise TypeError("a bug, not a failed fit")
            return real_fit(design, **options)

        monkeypatch.setattr(netergm.temporal, "fit_logistic", fit_or_raise)
        with pytest.raises(TypeError, match="a bug"):
            fit_btergm(team_series(True), TEAM, TEAM_SPEC, replications=12, seed=5)
        # the first refit raised, and the bootstrap stopped there
        assert len(calls) == 2


class TestFormation:
    def test_free_set_and_union_stats(self):
        prev = build_graph(4, [(0, 1), (2, 3)])
        curr = build_graph(4, [(0, 1), (1, 2), (3, 2)])
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)"))
        design = formation_design(prev, curr, None, spec)
        free = [(i, j) for i in range(4) for j in range(4)
                if i != j and not prev.has_edge(i, j)]
        assert design.n_rows == len(free)
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
        # the rows of the whole union design whose dyads are free
        full = build_design(union, None, spec)
        on = ~prev.adjacency[~np.eye(8, dtype=bool)]
        b = fit_logistic(DyadDesign(full.response[on], full.matrix[on],
                                    full.term_names))
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
