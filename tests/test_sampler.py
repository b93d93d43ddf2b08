import gc
import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from netergm import (
    CROSS_SECTIONAL_TERMS,
    ConfigError,
    DimensionError,
    DirectedGraph,
    NumericalError,
    SamplerControl,
    edgewise_reciprocity,
    global_stats,
    parse_terms,
    sample_ergm,
)
from helpers import (
    OracleChain,
    naive_stats,
    oracle_sample,
    random_graph,
    random_table,
    simple_table,
)
from netergm import sampler


def mean_density(graphs):
    n = graphs[0].node_count
    d = n * (n - 1)
    return float(np.mean([g.edge_count / d for g in graphs]))


def exact_model_means(n, spec, theta):
    """Expected sufficient statistics by summing over every directed graph
    on n nodes (2^(n(n-1)) states), via the reference statistic counter."""
    dyads = [(i, j) for i in range(n) for j in range(n) if i != j]
    stats = []
    weights = []
    for mask in itertools.product((0, 1), repeat=len(dyads)):
        edges = {d for d, m in zip(dyads, mask) if m}
        s = naive_stats(n, edges, None, spec)
        stats.append(s)
        weights.append(math.exp(float(np.dot(theta, s))))
    stats = np.array(stats)
    weights = np.array(weights)
    weights /= weights.sum()
    return weights @ stats


class TestControlValidation:
    def test_defaults_scale_with_size(self):
        c = SamplerControl()
        assert c.resolved(10) == (10 * 90, 90)

    def test_rejects_bad_schedule(self):
        with pytest.raises(ConfigError):
            SamplerControl(burn_in=-1)
        with pytest.raises(ConfigError):
            SamplerControl(thin=0)
        with pytest.raises(ConfigError):
            SamplerControl(sample_count=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("thin", 1.5),
            ("burn_in", 2.5),
            ("sample_count", 2.0),
            ("sample_count", True),
            ("thin", "10"),
            ("seed", -1),
        ],
    )
    def test_rejects_non_integer_schedule(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SamplerControl(**{field: value})

    def test_accepts_numpy_integers(self):
        c = SamplerControl(
            burn_in=np.int64(5), thin=np.int32(2), sample_count=np.int64(3),
            seed=np.uint8(4),
        )
        assert (c.burn_in, c.thin, c.sample_count, c.seed) == (5, 2, 3, 4)
        assert all(type(v) is int for v in (c.burn_in, c.thin, c.sample_count, c.seed))
        graphs = sample_ergm(np.int64(4), None, parse_terms("edges"), [0.0], c)
        assert len(graphs) == 3

    @pytest.mark.parametrize("node_count", [4.0, "4", True])
    def test_rejects_non_integer_node_count(self, node_count):
        with pytest.raises(ConfigError, match="node_count"):
            sample_ergm(node_count, None, parse_terms("edges"), [0.0])

    def test_rejects_bad_model_inputs(self):
        spec = parse_terms("edges")
        with pytest.raises(ConfigError):
            sample_ergm(1, None, spec, [0.0])
        with pytest.raises(DimensionError):
            sample_ergm(5, None, spec, [0.0, 1.0])
        with pytest.raises(NumericalError):
            sample_ergm(5, None, spec, [float("nan")])

    @pytest.mark.parametrize(
        "bad", [True, np.bool_(False), "0.5", None, 1j],
        ids=["bool", "numpy-bool", "str", "None", "complex"],
    )
    def test_rejects_non_real_coefficients(self, bad):
        spec = parse_terms(("edges", "mutual"))
        with pytest.raises(ConfigError, match=r"theta\[1\]"):
            sample_ergm(5, None, spec, [0.0, bad])

    def test_accepts_numpy_coefficients(self):
        spec = parse_terms(("edges", "mutual"))
        control = SamplerControl(burn_in=50, thin=5, sample_count=3, seed=2)
        plain = sample_ergm(5, None, spec, [-1.0, 2], control)
        numpy = sample_ergm(5, None, spec, np.array([-1.0, 2.0], dtype=np.float32), control)
        assert [g.edges for g in plain] == [g.edges for g in numpy]

    def test_overflowing_ratio_names_the_dyad(self):
        # each term is finite alone; a toggle that closes a mutual pair adds
        # 1e308 twice and overflows
        spec = parse_terms(("edges", "mutual"))
        with pytest.raises(NumericalError, match=r"dyad \(5, 3\)"):
            sample_ergm(6, None, spec, [1e308, 1e308], SamplerControl(seed=0))


class TestEdgesOnlyDistribution:
    def test_zero_coefficient_gives_half_density(self):
        control = SamplerControl(sample_count=300, seed=5)
        graphs = sample_ergm(16, None, parse_terms("edges"), [0.0], control)
        assert len(graphs) == 300
        assert mean_density(graphs) == pytest.approx(0.5, abs=0.015)

    def test_log_odds_match_target_density(self):
        target = 0.10
        theta = math.log(target / (1 - target))
        control = SamplerControl(sample_count=300, seed=6)
        graphs = sample_ergm(16, None, parse_terms("edges"), [theta], control)
        assert mean_density(graphs) == pytest.approx(target, abs=0.01)

    def test_graphs_are_valid(self):
        control = SamplerControl(sample_count=20, seed=7)
        graphs = sample_ergm(8, None, parse_terms("edges"), [0.0], control)
        for g in graphs:
            assert isinstance(g, DirectedGraph)
            assert all(i != j for i, j in g.edges)


class TestDyadIndependentModels:
    def test_match_and_mismatch_frequencies(self):
        n = 16
        table = simple_table(
            tuple(f"n{k}" for k in range(n)),
            team=tuple("ab"[k % 2] for k in range(n)),
        )
        spec = parse_terms(("edges", "nodematch(team)"))
        theta = [-1.5, 1.2]
        control = SamplerControl(sample_count=400, seed=8)
        graphs = sample_ergm(n, table, spec, theta, control)
        teams = table.values("team")
        match_hits = mis_hits = match_total = mis_total = 0
        for g in graphs:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    if teams[i] == teams[j]:
                        match_total += 1
                        match_hits += g.has_edge(i, j)
                    else:
                        mis_total += 1
                        mis_hits += g.has_edge(i, j)
        assert match_hits / match_total == pytest.approx(
            expit(theta[0] + theta[1]), abs=0.01
        )
        assert mis_hits / mis_total == pytest.approx(expit(theta[0]), abs=0.01)


class TestExactEnumeration:
    def test_three_node_means_match_enumeration(self):
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)", "gwdsp(0.5)"))
        theta = np.array([-0.8, 0.9, 0.4, -0.3])
        expect = exact_model_means(3, spec, theta)
        control = SamplerControl(
            burn_in=2000, thin=25, sample_count=4000, seed=9
        )
        graphs = sample_ergm(3, None, spec, theta, control)
        sampled = np.mean([global_stats(g, None, spec) for g in graphs], axis=0)
        np.testing.assert_allclose(sampled, expect, rtol=0.06, atol=0.03)

    def test_three_node_degree_terms_match_enumeration(self):
        spec = parse_terms(("edges", "isolates", "odegpop"))
        theta = np.array([-1.0, 0.7, 0.5])
        expect = exact_model_means(3, spec, theta)
        control = SamplerControl(
            burn_in=2000, thin=25, sample_count=4000, seed=10
        )
        graphs = sample_ergm(3, None, spec, theta, control)
        sampled = np.mean([global_stats(g, None, spec) for g in graphs], axis=0)
        np.testing.assert_allclose(sampled, expect, rtol=0.06, atol=0.03)


class TestReciprocityEffect:
    def test_positive_mutuality_raises_reciprocity(self):
        spec = parse_terms(("edges", "mutual"))
        control = SamplerControl(sample_count=150, seed=11)
        base = sample_ergm(12, None, spec, [-1.5, 0.0], control)
        boosted = sample_ergm(12, None, spec, [-1.5, 2.0], control)

        def mean_rec(graphs):
            vals = [
                edgewise_reciprocity(g) for g in graphs if g.edge_count > 0
            ]
            return float(np.mean(vals))

        assert mean_rec(boosted) > mean_rec(base) + 0.1


class TestDeterminismAndDiagnostics:
    def test_same_seed_same_graphs(self):
        spec = parse_terms(("edges", "mutual"))
        control = SamplerControl(sample_count=10, seed=12)
        a = sample_ergm(9, None, spec, [-1.0, 0.5], control)
        b = sample_ergm(9, None, spec, [-1.0, 0.5], control)
        assert [g.edges for g in a] == [g.edges for g in b]
        other = SamplerControl(sample_count=10, seed=13)
        c = sample_ergm(9, None, spec, [-1.0, 0.5], other)
        assert [g.edges for g in a] != [g.edges for g in c]

    def test_degenerate_chain_warns(self):
        control = SamplerControl(burn_in=400, thin=40, sample_count=5, seed=14)
        with pytest.warns(UserWarning, match="degenerate"):
            sample_ergm(15, None, parse_terms("edges"), [-9.0], control)
        # saturating 210 dyads needs a longer walk than emptying them
        longer = SamplerControl(burn_in=3000, thin=40, sample_count=5, seed=14)
        with pytest.warns(UserWarning, match="degenerate"):
            sample_ergm(15, None, parse_terms("edges"), [9.0], longer)

    def test_a_call_leaves_no_reference_cycles(self):
        # a cycle would keep the chain's neighbour sets alive until the
        # collector runs
        spec = parse_terms(("edges", "mutual", "isolates", "odegpop", "gwesp(0.5)", "gwdsp(0.7)"))
        control = SamplerControl(burn_in=400, thin=50, sample_count=3, seed=4)
        gc.collect()
        gc.disable()
        try:
            sample_ergm(12, None, spec, [-2.0, 1.0, 0.2, 0.02, 0.3, -0.1], control)
            assert gc.collect() == 0
        finally:
            gc.enable()


def chain_digest(graphs):
    """SHA-256 over the sorted edge list of every retained graph, in order."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(repr(sorted(g.edges)).encode())
        h.update(b";")
    return h.hexdigest()


class TestPinnedChains:
    """Retained graphs of fixed chains, recorded once. Any change to the
    proposals, the random draws, the change statistics or the acceptance
    rule shows here as a different digest."""

    GWESP_DIGESTS = {
        0: "48214b15f49d2e95c3bd9e9e39d906d0b38b8898747c32b51dd218c32bf17ad0",
        1: "b50efd4639c902aadf9e61ef20a8400f187e1a75a15e711af01330c44382c512",
    }
    ALL_KINDS_DIGEST = "7693b98e0196a9294d4f724dc79196077aedb490f496be3739d344160cd003a6"
    STRADDLE_DIGEST = "69d91a971faabc3668763cdeedff781671d86386f1114bba7d6983cc1f208bd8"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gwesp_chain_at_n40(self, seed):
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)", "odegpop"))
        control = SamplerControl(burn_in=5000, thin=1000, sample_count=5, seed=seed)
        graphs = sample_ergm(40, None, spec, [-3.0, 1.5, 0.3, 0.02], control)
        assert chain_digest(graphs) == self.GWESP_DIGESTS[seed]

    def test_every_term_kind_at_n14(self):
        n = 14
        table = simple_table(
            tuple(f"n{k}" for k in range(n)),
            levels={"team": ("blue", "green", "red")},
            team=tuple(("red", "blue", "green")[k % 3] for k in range(n)),
        )
        spec = parse_terms(
            ("edges", "mutual", "isolates", "odegpop", "gwesp(0.5)", "gwdsp(0.7)",
             "nodematch(team)", "nodematch(team, red)")
        )
        theta = [-2.0, 1.2, 0.4, 0.05, 0.3, -0.1, 0.6, 0.4]
        control = SamplerControl(burn_in=3000, thin=500, sample_count=5, seed=3)
        graphs = sample_ergm(n, table, spec, theta, control)
        assert chain_digest(graphs) == self.ALL_KINDS_DIGEST

    def test_kept_samples_straddle_the_draw_chunk(self):
        # draws come 16,384 at a time; these samples are kept at steps
        # 16,384 to 16,393, on both sides of the first chunk's edge
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)", "odegpop"))
        control = SamplerControl(burn_in=16381, thin=3, sample_count=4, seed=0)
        graphs = sample_ergm(40, None, spec, [-3.0, 1.5, 0.3, 0.02], control)
        assert chain_digest(graphs) == self.STRADDLE_DIGEST


# every argument form of every kind, decays 0 included
ORACLE_TERMS = (
    "edges", "mutual", "isolates", "odegpop", "gwesp(0)", "gwesp(0.5)", "gwesp(1.7)",
    "gwdsp(0)", "gwdsp(0.7)", "gwdsp(2.5)", "nodematch(team)", "nodematch(team, red)",
)


def team_table(n):
    return simple_table(
        tuple(f"n{k}" for k in range(n)),
        levels={"team": ("blue", "green", "red")},
        team=tuple(("red", "blue", "green")[k % 3] for k in range(n)),
    )


@st.composite
def chain_models(draw):
    """A model of 1 to 6 terms in random order, with coefficients of both
    signs and zeros, on 3 to 14 nodes."""
    n = draw(st.integers(3, 14))
    terms = draw(st.lists(st.sampled_from(ORACLE_TERMS), min_size=1, max_size=6, unique=True))
    theta = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False)),
        min_size=len(terms), max_size=len(terms),
    ))
    return n, parse_terms(terms), theta


class TestCompiledStep:
    """The compiled step against the plain per-term loop of
    ``helpers.OracleChain``: every decision, and every kept graph."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        model=chain_models(),
        density=st.sampled_from((0.0, 0.05, 0.4, 0.8)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_decision_matches_the_oracle(self, model, density, seed):
        n, spec, theta = model
        table = team_table(n)
        rng = np.random.default_rng(seed)
        chain = sampler._Chain(n, table, spec, theta)
        oracle = OracleChain(n, table, spec, theta)
        # both start from one state, reached by one toggle order, so their
        # sets share an iteration order
        for i, j in sorted(random_graph(rng, n, density).edges):
            chain.toggle(i, j)
            oracle.toggle(i, j)
        run = chain.step()
        for _ in range(300):
            i = int(rng.integers(n))
            j = int(rng.integers(n - 1))
            j += j >= i
            logu = math.log(rng.random())
            before = j in chain.out[i]
            run((i,), (j,), (logu,))
            accepted = (j in chain.out[i]) != before
            assert accepted == oracle.step(i, j, logu), (i, j, logu)
        assert chain.out == oracle.out
        assert chain.P in (None, oracle.P)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        model=chain_models(),
        burn_in=st.integers(0, 400),
        thin=st.integers(1, 60),
        seed=st.integers(0, 2**16),
    )
    def test_kept_graphs_match_the_oracle(self, model, burn_in, thin, seed):
        n, spec, theta = model
        table = team_table(n)
        control = SamplerControl(burn_in=burn_in, thin=thin, sample_count=4, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            kept = sample_ergm(n, table, spec, theta, control)
        assert [g.edges for g in kept] == oracle_sample(n, table, spec, theta, control)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_overflow_in_a_bounded_term_names_the_oracles_dyad(self, seed):
        # edges alone stays finite; gwesp at 1e308 overflows once a tie has
        # two shared partners, which only the exact sum sees
        spec = parse_terms(("edges", "gwesp(0.5)"))
        theta = [-2.0, 1e308]
        control = SamplerControl(burn_in=2000, thin=100, sample_count=3, seed=seed)
        with pytest.raises(NumericalError) as expected:
            oracle_sample(8, None, spec, theta, control)
        with pytest.raises(NumericalError) as got:
            sample_ergm(8, None, spec, theta, control)
        assert "dyad (" in str(expected.value)
        assert str(got.value) == str(expected.value)

    def test_most_proposals_are_decided_by_the_bounds(self, monkeypatch):
        # the sim_recovery benchmark's model; each run of the step returns how
        # many of its proposals needed the exact sums
        calls = []
        make = sampler._Chain.step

        def spy(chain):
            run = make(chain)

            def counted(view_i, view_j, view_logu):
                exact = run(view_i, view_j, view_logu)
                calls.append((len(view_i), exact))
                return exact
            return counted

        monkeypatch.setattr(sampler._Chain, "step", spy)
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)", "odegpop"))
        control = SamplerControl(sample_count=20, seed=0)
        sample_ergm(40, None, spec, [-3.0, 1.5, 0.3, 0.02], control)
        proposals = sum(n for n, _ in calls)
        exact = sum(e for _, e in calls)
        assert proposals == 10 * 40 * 39 + 20 * 40 * 39
        assert exact <= proposals / 2


def test_zero_two_path_terms_keep_no_two_path_counts():
    # gwesp and gwdsp read P, but at theta 0 no compiled snippet does, so
    # the chain neither builds nor updates it and runs as without them
    control = SamplerControl(burn_in=4000, thin=800, sample_count=5, seed=0)
    base = parse_terms(("edges", "mutual"))
    kept = sample_ergm(30, None, base, [-3.0, 1.5], control)
    for extra in (("gwesp(0.5)",), ("gwesp(0.5)", "gwdsp(0.7)")):
        spec = parse_terms(base.names + extra)
        theta = [-3.0, 1.5] + [0.0] * len(extra)
        assert sampler._Chain(30, None, spec, theta).P is None
        assert sampler._Chain(30, None, spec, [-3.0, 1.5, 0.2, 0.0][:len(theta)]).P is not None
        assert [g.edges for g in sample_ergm(30, None, spec, theta, control)] == [
            g.edges for g in kept
        ]

def test_paper_scale_chain_set_up_holds_no_n_by_n_tables():
    # the default battery at n=800 with the paper-scale chain's coefficients;
    # the two-path list P, n lists of n ints, is the only n x n part
    n = 800
    table = random_table(np.random.default_rng(5), (f"p{k}" for k in range(n)))
    spec = parse_terms(CROSS_SECTIONAL_TERMS)
    nonzero = {"edges": -5.4, "mutual": 2.0, "gwesp(0.5)": 0.8, "nodematch(group)": 1.5}
    theta = [nonzero.get(name, 0.0) for name in spec.names]
    tracemalloc.start()
    try:
        chain = sampler._Chain(n, table, spec, theta)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chain.snippets) == 4
    assert held < 10 * 2**20
