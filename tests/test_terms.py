import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netergm import (
    ConfigError,
    DimensionError,
    DirectedGraph,
    InvalidDyadError,
    ModelSpec,
    TermSpec,
    UnknownAttributeError,
    build_graph,
    global_stats,
    parse_term,
    parse_terms,
)
from netergm import graph as graph_module
from netergm.graph import two_path_counts
from netergm.sampler import _Chain
from netergm.terms import _TERMS, _Shared, split_term_list
from helpers import (
    change_stat_matrices,
    change_stats,
    dense_gwdsp_matrix,
    dense_gwesp_matrix,
    naive_change_stat,
    naive_global_stats,
    random_graph,
    simple_table,
)


ALL_KINDS = (
    "edges",
    "mutual",
    "isolates",
    "odegpop",
    "gwesp(0.7)",
    "gwdsp(0.7)",
    "nodematch(team)",
    "nodematch(team, red)",
)


def team_table(n, rng=None):
    if rng is None:
        vals = tuple("red" if k % 2 == 0 else "blue" for k in range(n))
    else:
        vals = tuple(rng.choice(("red", "blue", "green"), size=n))
    return simple_table(
        tuple(f"n{k}" for k in range(n)),
        levels={"team": ("blue", "green", "red")},
        team=vals,
    )


class TestParsing:
    def test_plain_keywords(self):
        assert parse_term("edges") == TermSpec("edges")
        assert parse_term("MUTUAL") == TermSpec("mutual")
        assert parse_term(" isolates ") == TermSpec("isolates")
        assert parse_term("odegpop") == TermSpec("odegpop")

    def test_decay_terms(self):
        assert parse_term("gwesp(0.5)") == TermSpec("gwesp", decay=0.5)
        assert parse_term("GWDSP( 1.25 )") == TermSpec("gwdsp", decay=1.25)

    def test_nodematch_forms(self):
        assert parse_term("nodematch(team)") == TermSpec("nodematch", attribute="team")
        assert parse_term("nodematch(team, red)") == TermSpec(
            "nodematch", attribute="team", level="red"
        )

    def test_errors_carry_positions(self):
        with pytest.raises(ConfigError, match="position 8"):
            parse_term("gwesp(0.5")
        with pytest.raises(ConfigError):
            parse_term("gwesp()")
        with pytest.raises(ConfigError):
            parse_term("gwesp(abc)")
        with pytest.raises(ConfigError):
            parse_term("banana")
        with pytest.raises(ConfigError):
            parse_term("edges(3)")

    def test_negative_decay_rejected(self):
        with pytest.raises(ConfigError):
            parse_term("gwesp(-1)")

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_terms(("edges", "edges"))
        with pytest.raises(ConfigError):
            parse_terms(("gwesp(0.5)", "gwesp(0.50)"))

    def test_split_respects_parentheses(self):
        assert split_term_list("edges, nodematch(team, red), gwesp(0.5)") == [
            "edges",
            "nodematch(team, red)",
            "gwesp(0.5)",
        ]

    def test_parse_terms_accepts_string_or_sequence(self):
        a = parse_terms("edges, mutual")
        b = parse_terms(("edges", "mutual"))
        assert a.names == b.names == ("edges", "mutual")


class TestGlobalStats:
    def test_hand_computed_small_graph(self):
        # 0->1, 1->0, 1->2, 0->2: one mutual pair, no isolates
        g = build_graph(4, [(0, 1), (1, 0), (1, 2), (0, 2)])
        spec = parse_terms(("edges", "mutual", "isolates", "odegpop"))
        np.testing.assert_allclose(
            global_stats(g, None, spec),
            # odegpop: indeg*outdeg summed = 1*2 + 1*2 + 2*0 + 0*0
            [4, 1, 1, 4],
        )

    def test_gwesp_single_shared_partner(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        tau = 0.5
        spec = parse_terms((f"gwesp({tau})",))
        # only edge 0->2 has a shared partner (via 1), weight w(1)
        w1 = math.exp(tau) * (1 - (1 - math.exp(-tau)) ** 1)
        np.testing.assert_allclose(global_stats(g, None, spec), [w1])

    def test_gwdsp_counts_open_two_paths(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        spec = parse_terms(("gwdsp(0.5)",))
        w1 = math.exp(0.5) * (1 - (1 - math.exp(-0.5)) ** 1)
        np.testing.assert_allclose(global_stats(g, None, spec), [w1])

    def test_zero_decay_counts_support(self):
        # tau=0 turns the weight into an indicator of >=1 shared partner
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        spec = parse_terms(("gwesp(0)", "gwdsp(0)"))
        got = global_stats(g, None, spec)
        np.testing.assert_allclose(got, naive_global_stats(g, None, spec))

    def test_nodematch_uniform_and_level(self):
        g = build_graph(4, [(0, 2), (0, 1), (1, 3)])
        table = simple_table(
            ("a", "b", "c", "d"), team=("red", "blue", "red", "blue")
        )
        spec = parse_terms(
            ("nodematch(team)", "nodematch(team, red)", "nodematch(team, blue)")
        )
        np.testing.assert_allclose(global_stats(g, table, spec), [2, 1, 1])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(31)
        spec = parse_terms(ALL_KINDS)
        for _ in range(30):
            n = int(rng.integers(3, 11))
            g = random_graph(rng, n, rng.random() * 0.7)
            table = team_table(n, rng)
            np.testing.assert_allclose(
                global_stats(g, table, spec),
                naive_global_stats(g, table, spec),
                atol=1e-12,
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(32)
        spec = parse_terms(ALL_KINDS)
        n = 9
        g = random_graph(rng, n, 0.4)
        table = team_table(n, rng)
        base = global_stats(g, table, spec)
        perm = rng.permutation(n)
        relabeled = DirectedGraph(
            n, frozenset((int(perm[i]), int(perm[j])) for i, j in g.edges)
        )
        inv = np.argsort(perm)
        per_table = simple_table(
            tuple(f"m{k}" for k in range(n)),
            team=tuple(table.values("team")[inv[k]] for k in range(n)),
        )
        np.testing.assert_allclose(
            global_stats(relabeled, per_table, spec), base, atol=1e-12
        )

    def test_attrs_required_for_nodematch(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(UnknownAttributeError):
            global_stats(g, None, parse_terms(("nodematch(team)",)))

    def test_attrs_size_mismatch(self):
        g = build_graph(3, [(0, 1)])
        table = team_table(4)
        with pytest.raises(DimensionError):
            global_stats(g, table, parse_terms(("nodematch(team)",)))


class TestChangeStats:
    def test_isolates_delta_on_empty_graph(self):
        g = DirectedGraph(3, frozenset())
        spec = parse_terms(("isolates",))
        np.testing.assert_allclose(change_stats(g, None, (0, 1), spec), [-2])

    def test_mutual_delta_needs_reverse_edge(self):
        g = build_graph(3, [(1, 0)])
        spec = parse_terms(("mutual",))
        np.testing.assert_allclose(change_stats(g, None, (0, 1), spec), [1])
        np.testing.assert_allclose(change_stats(g, None, (0, 2), spec), [0])

    def test_rejects_loop_dyad(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(InvalidDyadError):
            change_stats(g, None, (1, 1), parse_terms("edges"))

    def test_delta_matches_naive_toggle(self):
        rng = np.random.default_rng(33)
        spec = parse_terms(ALL_KINDS)
        for _ in range(25):
            n = int(rng.integers(3, 10))
            g = random_graph(rng, n, rng.random() * 0.6)
            table = team_table(n, rng)
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n - 1))
            j += j >= i
            np.testing.assert_allclose(
                change_stats(g, table, (i, j), spec),
                naive_change_stat(g, table, (i, j), spec),
                atol=1e-12,
            )

    def test_matrix_route_agrees_with_scalar_route(self):
        rng = np.random.default_rng(34)
        spec = parse_terms(ALL_KINDS)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            g = random_graph(rng, n, rng.random() * 0.6)
            table = team_table(n, rng)
            mats = change_stat_matrices(g, table, spec)
            assert mats.shape == (len(spec.terms), n, n)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        np.testing.assert_allclose(mats[:, i, j], 0.0)
                        continue
                    np.testing.assert_allclose(
                        mats[:, i, j],
                        change_stats(g, table, (i, j), spec),
                        atol=1e-10,
                    )

    def test_delta_direction_sign(self):
        # the delta is always "statistic with the edge minus without"
        g = build_graph(3, [(0, 1)])
        spec = parse_terms("edges")
        np.testing.assert_allclose(change_stats(g, None, (0, 1), spec), [1])
        np.testing.assert_allclose(change_stats(g, None, (1, 2), spec), [1])


# One instance per argument form of every kind in the term table.
TABLE_EXAMPLES = (
    "edges",
    "mutual",
    "isolates",
    "odegpop",
    "gwesp(0)",
    "gwesp(1.25)",
    "gwdsp(0)",
    "gwdsp(0.001)",
    "nodematch(team)",
    "nodematch(team, red)",
)


def all_dyad_form(g, term):
    """The n x n all-dyad form of one term, as the design reads it."""
    s = _Shared(g, None, ModelSpec((term,)))
    return _TERMS[term.kind].matrix(term, s)


@st.composite
def oracle_graphs(draw):
    """Graphs of 0 to 60 nodes, empty to complete, some with many mutual
    ties and some with isolates."""
    n = draw(st.integers(0, 60))
    density = draw(st.sampled_from((0.0, 0.02, 0.1, 0.3, 0.6, 0.9, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random((n, n)) < density
    if draw(st.booleans()):
        a |= a.T
    isolated = rng.random(n) < draw(st.sampled_from((0.0, 0.2)))
    a[isolated, :] = a[:, isolated] = False
    return DirectedGraph.from_adjacency(a)


class TestEdgeListForms:
    """The shared-partner forms, summed over the edge list, against the
    dense matrix-product oracle and under relabelling."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(g=oracle_graphs(), decay=st.sampled_from((0.0, 0.5, 1.7)))
    def test_match_the_dense_oracle(self, g, decay):
        n = g.node_count
        a = g.adjacency.astype(np.int64)
        np.testing.assert_array_equal(two_path_counts(g), a @ a)
        off = ~np.eye(n, dtype=bool)
        for kind, dense in (("gwesp", dense_gwesp_matrix), ("gwdsp", dense_gwdsp_matrix)):
            got = all_dyad_form(g, TermSpec(kind, decay=decay))
            assert got.shape == (n, n)
            np.testing.assert_allclose(
                got[off], dense(g, decay)[off], rtol=1e-12, atol=1e-12, err_msg=kind
            )

    @pytest.mark.parametrize("limit", [1, 7, 500])
    def test_row_blocks_change_nothing(self, monkeypatch, limit):
        rng = np.random.default_rng(41)
        g = random_graph(rng, 40, 0.3)
        terms = [TermSpec(kind, decay=0.5) for kind in ("gwesp", "gwdsp")]
        whole = [two_path_counts(g)] + [all_dyad_form(g, t) for t in terms]
        monkeypatch.setattr(graph_module, "_WALK_BLOCK", limit)
        blocked = [two_path_counts(g)] + [all_dyad_form(g, t) for t in terms]
        for a, b in zip(whole, blocked):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["gwesp", "gwdsp"])
    @pytest.mark.parametrize("n", [30, 60])
    def test_relabelling_permutes_bit_for_bit(self, n, kind):
        rng = np.random.default_rng(400 + n)
        g = random_graph(rng, n, 0.3)
        perm = rng.permutation(n)
        relabelled = DirectedGraph(
            n, frozenset((int(perm[i]), int(perm[j])) for i, j in g.edges)
        )
        term = TermSpec(kind, decay=0.5)
        got = all_dyad_form(relabelled, term)
        np.testing.assert_array_equal(got[np.ix_(perm, perm)], all_dyad_form(g, term))


class TestTermTable:
    def test_examples_cover_every_kind(self):
        assert {parse_term(t).kind for t in TABLE_EXAMPLES} == set(_TERMS)

    def test_canonical_name_parses_back(self):
        for text in TABLE_EXAMPLES:
            term = parse_term(text)
            assert parse_term(term.name) == term
            assert parse_term(term.name).name == term.name


class TestIncrementalRoute:
    """The sampler's bound deltas against the all-dyad matrices, state by
    state along random toggle sequences."""

    @staticmethod
    def full_spec(decays):
        base = parse_terms(
            ("edges", "mutual", "isolates", "odegpop", "nodematch(team)",
             "nodematch(team, red)")
        )
        gw = {t.name: t for d in decays for t in
              (TermSpec("gwesp", decay=d), TermSpec("gwdsp", decay=d))}
        spec = ModelSpec(base.terms + tuple(gw.values()))
        assert {t.kind for t in spec.terms} == set(_TERMS)
        return spec

    @staticmethod
    def assert_chain_state(chain, edges, table, spec):
        """Neighbour sets and two-path lists against the graph the chain
        should hold, then every bound delta against the matrices."""
        n = chain.n
        g = chain.snapshot()
        assert g.edges == edges
        a = g.adjacency.astype(np.int64)
        assert chain.out == [set(np.flatnonzero(row).tolist()) for row in a]
        assert chain.inn == [set(np.flatnonzero(col).tolist()) for col in a.T]
        assert chain.P == (a @ a).tolist()
        mats = change_stat_matrices(g, table, spec)
        for k, (_, delta) in enumerate(chain.deltas):
            got = [
                [delta(u, v, (u, v) in edges) if u != v else 0.0 for v in range(n)]
                for u in range(n)
            ]
            np.testing.assert_allclose(got, mats[k], rtol=0, atol=1e-12)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 8),
        seed=st.integers(0, 2**32 - 1),
        decays=st.tuples(
            st.sampled_from((0.0, 0.3, 1.0)), st.floats(0.0, 3.0, allow_nan=False)
        ),
    )
    def test_bound_deltas_match_matrices(self, n, seed, decays):
        rng = np.random.default_rng(seed)
        spec = self.full_spec(decays)
        table = team_table(n, rng)
        chain = _Chain(n, table, spec, np.ones(len(spec.terms)))
        assert len(chain.deltas) == len(spec.terms)
        # a small dyad pool makes the walk remove ties as well as add them
        pool = [(i, j) for i in range(n) for j in range(n) if i != j]
        pool = [pool[k] for k in rng.choice(len(pool), size=min(len(pool), 2 * n))]
        edges = set()
        for _ in range(2 * n):
            i, j = pool[rng.integers(len(pool))]
            chain.toggle(i, j)
            edges ^= {(i, j)}
            self.assert_chain_state(chain, edges, table, spec)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        n=st.integers(9, 20),
        density=st.floats(0.4, 0.7),
        seed=st.integers(0, 2**32 - 1),
        decay=st.floats(0.0, 3.0, allow_nan=False),
    )
    def test_dense_states_match_matrices(self, n, density, seed, decay):
        # numpy sums rows of 8 or more entries pairwise, while the deltas add
        # neighbour by neighbour; dense states give shared-partner sets that
        # long
        rng = np.random.default_rng(seed)
        spec = self.full_spec((decay,))
        table = team_table(n, rng)
        chain = _Chain(n, table, spec, np.ones(len(spec.terms)))
        edges = set()
        for i, j in sorted(random_graph(rng, n, density).edges):
            chain.toggle(i, j)
            edges.add((i, j))
        self.assert_chain_state(chain, edges, table, spec)
        for _ in range(3):
            i, j = sorted(edges)[rng.integers(len(edges))]
            chain.toggle(i, j)
            edges.remove((i, j))
            self.assert_chain_state(chain, edges, table, spec)

    def test_zero_coefficients_are_dropped_at_bind_time(self):
        spec = parse_terms(("edges", "mutual", "gwesp(0.5)"))
        chain = _Chain(4, None, spec, [0.0, 1.5, 0.0])
        assert [th for th, _ in chain.deltas] == [1.5]
        with pytest.raises(UnknownAttributeError):
            _Chain(4, None, parse_terms(("edges", "nodematch(team)")), [1.0, 0.0])
