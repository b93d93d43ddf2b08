import itertools
import math
import random

import numpy as np
import pytest

import netergm.descriptives
from netergm import (
    ConfigError,
    DirectedGraph,
    NumericalError,
    UndefinedMetricError,
    build_graph,
    centralization,
    density,
    describe,
    edgewise_reciprocity,
    largest_component,
    transitivity,
)
from netergm.descriptives import (
    CENTRALIZATION_KINDS,
    betweenness_scores,
    eigenvector_scores,
)
from netergm.graph import _expand
from helpers import large_mple_network, random_graph


def reference_transitivity(g):
    """Closed two-path fraction by triple loop."""
    n = g.node_count
    e = set(g.edges)
    paths = closed = 0
    for i in range(n):
        for m in range(n):
            for j in range(n):
                if i == j or (i, m) not in e or (m, j) not in e:
                    continue
                paths += 1
                closed += (i, j) in e
    return closed / paths


def reference_betweenness(g):
    """Pair-dependency betweenness from Floyd-Warshall distances and
    shortest-path counts."""
    n = g.node_count
    inf = math.inf
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    cnt = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in g.edges:
        dist[i][j] = 1
        cnt[i][j] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = dist[i][k] + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
                    cnt[i][j] = cnt[i][k] * cnt[k][j]
                elif alt == dist[i][j] and alt < inf and k not in (i, j):
                    cnt[i][j] += cnt[i][k] * cnt[k][j]
    scores = [0.0] * n
    for s in range(n):
        for t in range(n):
            if s == t or dist[s][t] == inf:
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                if dist[s][v] + dist[v][t] == dist[s][t]:
                    scores[v] += cnt[s][v] * cnt[v][t] / cnt[s][t]
    return np.array(scores)


class TestDensity:
    def test_known_value(self):
        g = build_graph(4, [(0, 1), (1, 0), (2, 3)])
        assert density(g) == pytest.approx(3 / 12)

    def test_undefined_below_two_nodes(self):
        with pytest.raises(UndefinedMetricError):
            density(DirectedGraph(1, frozenset()))


class TestReciprocity:
    def test_known_values(self):
        both = build_graph(2, [(0, 1), (1, 0)])
        assert edgewise_reciprocity(both) == pytest.approx(1.0)
        one = build_graph(2, [(0, 1)])
        assert edgewise_reciprocity(one) == pytest.approx(0.0)
        mixed = build_graph(3, [(0, 1), (1, 0), (1, 2)])
        assert edgewise_reciprocity(mixed) == pytest.approx(2 / 3)

    def test_undefined_without_edges(self):
        with pytest.raises(UndefinedMetricError):
            edgewise_reciprocity(DirectedGraph(3, frozenset()))


class TestTransitivity:
    def test_single_transitive_triple(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert transitivity(g) == pytest.approx(1.0)

    def test_open_two_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert transitivity(g) == pytest.approx(0.0)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 40:
            g = random_graph(rng, int(rng.integers(3, 12)), rng.random() * 0.6)
            try:
                got = transitivity(g)
            except UndefinedMetricError:
                continue
            np.testing.assert_allclose(got, reference_transitivity(g), rtol=1e-12)
            checked += 1

    def test_undefined_without_two_paths(self):
        with pytest.raises(UndefinedMetricError):
            transitivity(build_graph(3, [(0, 1)]))


class TestBetweenness:
    def test_directed_line(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        np.testing.assert_allclose(betweenness_scores(g), [0, 2, 2, 0])

    def test_matches_pair_dependency_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(2, 9)), rng.random() * 0.6)
            np.testing.assert_allclose(
                betweenness_scores(g), reference_betweenness(g), atol=1e-9
            )

    @pytest.mark.parametrize("n", [300, 600])
    def test_long_directed_path_and_cycle(self, n):
        # diameters of n - 1, over several source blocks
        path = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        i = np.arange(n)
        np.testing.assert_array_equal(betweenness_scores(path), i * (n - 1 - i))
        cycle = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        np.testing.assert_array_equal(
            betweenness_scores(cycle), np.full(n, (n - 1) * (n - 2) / 2)
        )

    @staticmethod
    def sparse_and_long_graphs():
        sparse = graph_with_isolates(np.random.default_rng(3), 300, 0.01, 20)
        assert (sparse.total_degrees == 0).any()
        # dense enough that the middle levels run bottom-up
        dense = random_graph(np.random.default_rng(5), 300, 0.3)
        return [sparse, chain_of_diamonds(), dense]

    def test_scores_do_not_depend_on_the_source_block(self, monkeypatch):
        for g in self.sparse_and_long_graphs():
            scores = []
            for block in (1, 7, 256):
                monkeypatch.setattr(netergm.descriptives, "_SOURCE_BLOCK", block)
                scores.append(betweenness_scores(g))
            for other in scores[1:]:
                np.testing.assert_allclose(other, scores[0], rtol=1e-12)

    def test_relabelling_permutes_the_scores(self):
        rng = np.random.default_rng(4)
        for g in self.sparse_and_long_graphs():
            perm = rng.permutation(g.node_count)
            h = build_graph(g.node_count, [(perm[i], perm[j]) for i, j in g.edges])
            np.testing.assert_allclose(
                betweenness_scores(h)[perm], betweenness_scores(g), rtol=1e-12
            )


def chain_of_diamonds(k=150):
    """``k`` diamonds in a row: diameter 2k, and 2**k shortest paths from end
    to end."""
    edges = []
    for s in range(0, 3 * k, 3):
        edges += [(s, s + 1), (s, s + 2), (s + 1, s + 3), (s + 2, s + 3)]
    return build_graph(3 * k + 1, edges)


def layered_bipartite(width, depth):
    """``depth + 1`` layers of ``width`` nodes, each layer tied to the next
    both ways by complete bipartite steps: a node of the first layer has
    ``width**(depth - 1)`` shortest paths to each node of the last."""
    edges = []
    for lo in range(0, depth * width, width):
        for i in range(lo, lo + width):
            for j in range(lo + width, lo + 2 * width):
                edges += [(i, j), (j, i)]
    return build_graph((depth + 1) * width, edges)


def hub_then_two_chains(hub=40, diamonds=54, fan=200):
    """A complete hub from which two chains of the same length lead to one
    sink. The first, from the last hub node, runs through ``diamonds``
    diamonds, so 2**diamonds shortest paths reach its end; the second, from
    hub node 1, runs through one diamond and a path that fans out to ``fan``
    nodes of two shortest paths each. From a hub node, the sink's path
    count is a sum past 2**53 whose rounding depends on its order: the
    second chain's pairs come first top-down, but last in ascending
    order."""
    edges = [(i, j) for i in range(hub) for j in range(hub) if i != j]
    head, n = hub, hub + 1
    edges.append((hub - 1, head))
    for _ in range(diamonds):
        edges += [(head, n), (head, n + 1), (n, n + 2), (n + 1, n + 2)]
        head, n = n + 2, n + 3
    ends = [head]
    edges += [(1, n), (n, n + 1), (n, n + 2), (n + 1, n + 3), (n + 2, n + 3)]
    head, n = n + 3, n + 4
    for _ in range(2 * diamonds - 3):
        edges.append((head, n))
        head, n = n, n + 1
    ends += range(n, n + fan)
    edges += [(head, e) for e in ends[1:]]
    n += fan
    edges += [(e, n) for e in ends]
    return build_graph(n + 1, edges)


def networkx_digraph(nx, g):
    h = nx.DiGraph()
    h.add_nodes_from(range(g.node_count))
    h.add_edges_from(g.edges)
    return h


def networkx_betweenness(nx, g):
    ref = nx.betweenness_centrality(networkx_digraph(nx, g), normalized=False)
    return np.array([ref[v] for v in range(g.node_count)])


def networkx_transitivity(nx, h):
    """Closed two-path fraction from networkx's triad census: every two-path
    i -> m -> j with i != j lies in exactly one triad, so each census count
    is weighted by the two-paths of its triad type, counted on the type's
    own three-node graph."""
    paths = closed = 0
    for name, count in nx.triadic_census(h).items():
        t = nx.triad_graph(name)
        for i, m, j in itertools.permutations(t, 3):
            if t.has_edge(i, m) and t.has_edge(m, j):
                paths += count
                closed += count * t.has_edge(i, j)
    return closed / paths


def graph_with_isolates(rng, n, p, isolated):
    """Random directed graph with ``isolated`` nodes stripped of every tie
    and as many more stripped of their in-ties, which no node can reach."""
    a = rng.random((n, n)) < p
    np.fill_diagonal(a, False)
    gone, unreached = np.split(rng.choice(n, 2 * isolated, replace=False), 2)
    a[gone] = False
    a[:, gone] = False
    a[:, unreached] = False
    return DirectedGraph.from_adjacency(a)


class TestAgainstNetworkx:
    """networkx as a second, independent oracle for the descriptives."""

    # n above 256 spans several source blocks of the betweenness search;
    # sparse draws leave many ordered pairs unreachable
    CASES = [(12, 0.3, 2), (60, 0.05, 5), (300, 0.006, 20), (300, 0.03, 7), (530, 0.004, 30)]

    @pytest.mark.parametrize("n,p,isolated", CASES)
    def test_betweenness(self, n, p, isolated):
        nx = pytest.importorskip("networkx")
        g = graph_with_isolates(np.random.default_rng(n + isolated), n, p, isolated)
        assert (g.total_degrees == 0).sum() >= isolated
        assert ((g.in_degrees == 0) & (g.out_degrees > 0)).any()
        ref = nx.betweenness_centrality(networkx_digraph(nx, g), normalized=False)
        ours = betweenness_scores(g)
        expect = np.array([ref[v] for v in range(n)])
        np.testing.assert_allclose(ours, expect, rtol=1e-12, atol=1e-12 * expect.max())
        assert (ours[g.total_degrees == 0] == 0.0).all()

    def test_betweenness_on_a_chain_of_diamonds(self):
        nx = pytest.importorskip("networkx")
        # 150 diamonds in a row: diameter 300, and 2**150 shortest paths
        # from end to end
        edges = []
        for s in range(0, 450, 3):
            edges += [(s, s + 1), (s, s + 2), (s + 1, s + 3), (s + 2, s + 3)]
        g = build_graph(451, edges)
        ref = nx.betweenness_centrality(networkx_digraph(nx, g), normalized=False)
        expect = np.array([ref[v] for v in range(451)])
        np.testing.assert_allclose(betweenness_scores(g), expect, rtol=1e-12)

    @pytest.mark.parametrize("n,p,isolated", CASES)
    def test_transitivity(self, n, p, isolated):
        nx = pytest.importorskip("networkx")
        g = graph_with_isolates(np.random.default_rng(n + isolated), n, p, isolated)
        assert transitivity(g) == networkx_transitivity(nx, networkx_digraph(nx, g))

    def test_triad_weights_on_known_graph(self):
        nx = pytest.importorskip("networkx")
        # one transitive triple and one open two-path: 1 closed out of 3
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert networkx_transitivity(nx, networkx_digraph(nx, g)) == 1 / 3 == transitivity(g)


def traced_betweenness(g, top_down_only=False):
    """Betweenness of ``g`` as ``(scores, entries, bottom_up)``: the list
    entries its search expanded, and how many expansions ran bottom-up,
    through the in-lists. ``top_down_only`` swaps in a direction rule that
    never picks bottom-up."""
    expanded = []

    def spy(starts, v, deg=None):
        origin, pos = _expand(starts, v, deg)
        expanded.append((starts is g._in_lists.starts, len(origin)))
        return origin, pos

    with pytest.MonkeyPatch.context() as m:
        m.setattr(netergm.descriptives, "_expand", spy)
        if top_down_only:
            m.setattr(netergm.descriptives, "_bottom_up", lambda *counts: False)
        scores = betweenness_scores(g)
    return scores, sum(k for _, k in expanded), sum(up for up, _ in expanded)


@pytest.fixture(scope="module")
def direction_runs():
    """Name -> (default run, top-down run) of ``traced_betweenness``."""
    graphs = {
        "large_mple 5": large_mple_network(5)[0],
        "large_mple 11": large_mple_network(11)[0],
        "isolates": graph_with_isolates(np.random.default_rng(3), 300, 0.01, 20),
        "diamonds": chain_of_diamonds(),
        "n=363 at 3%": random_graph(np.random.default_rng(6), 363, 0.03),
        "n=300 at 30%": random_graph(np.random.default_rng(5), 300, 0.3),
        "path": build_graph(2000, [(i, i + 1) for i in range(1999)]),
    }
    return {
        name: (traced_betweenness(g), traced_betweenness(g, top_down_only=True))
        for name, g in graphs.items()
    }


class TestBetweennessDirection:
    """Bottom-up levels scan fewer entries and leave every score as it is."""

    def test_direction_does_not_change_the_scores(self, direction_runs):
        for name, (default, top_down) in direction_runs.items():
            np.testing.assert_array_equal(default[0], top_down[0], err_msg=name)
        for name in ("large_mple 5", "large_mple 11"):
            assert direction_runs[name][0][2] >= 1, name

    def test_bottom_up_levels_expand_fewer_entries(self, direction_runs):
        for name, (default, top_down) in direction_runs.items():
            assert default[1] <= top_down[1], name
        for name in ("path", "diamonds"):
            default, top_down = direction_runs[name]
            assert default[1] == top_down[1] and default[2] == 0, name
        default, top_down = direction_runs["large_mple 5"]
        assert top_down[1] == 3_778_561
        assert default[1] <= 1_900_000

    def test_a_level_past_2_53_runs_bottom_up(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        # 4**27 = 2**54 shortest paths from the first layer to the last
        g = layered_bipartite(4, 28)
        rule, verdicts = netergm.descriptives._bottom_up, []

        def spy(*counts):
            verdicts.append(rule(*counts))
            return verdicts[-1]

        monkeypatch.setattr(netergm.descriptives, "_bottom_up", spy)
        scores, _, bottom_up = traced_betweenness(g)
        assert any(verdicts) and bottom_up >= 1
        np.testing.assert_array_equal(
            scores, traced_betweenness(g, top_down_only=True)[0]
        )
        np.testing.assert_allclose(scores, networkx_betweenness(nx, g), rtol=1e-12)

    def test_a_sum_past_2_53_after_a_bottom_up_level_matches_top_down(
        self, monkeypatch
    ):
        nx = pytest.importorskip("networkx")
        g = hub_then_two_chains()
        # one block of the hub's sources, so its second level runs bottom-up
        monkeypatch.setattr(netergm.descriptives, "_SOURCE_BLOCK", 40)
        scores, _, bottom_up = traced_betweenness(g)
        assert bottom_up >= 1
        np.testing.assert_array_equal(
            scores, traced_betweenness(g, top_down_only=True)[0]
        )
        np.testing.assert_allclose(scores, networkx_betweenness(nx, g), rtol=1e-12)

    @pytest.mark.parametrize("block", [40, 256])
    def test_any_sequence_of_directions_gives_the_same_scores(
        self, monkeypatch, block
    ):
        graphs = {
            "layered": layered_bipartite(4, 28),
            "hub": hub_then_two_chains(),
            "diamonds": chain_of_diamonds(),
            "large_mple 5": large_mple_network(5)[0],
        }
        monkeypatch.setattr(netergm.descriptives, "_SOURCE_BLOCK", block)
        for name, g in graphs.items():
            top_down = traced_betweenness(g, top_down_only=True)[0]
            went_up = 0
            for seed in range(3):
                # a seeded coin flip answers each call of the direction rule
                coin = random.Random(seed)
                monkeypatch.setattr(
                    netergm.descriptives,
                    "_bottom_up",
                    lambda *counts: coin.random() < 0.5,
                )
                scores, _, bottom_up = traced_betweenness(g)
                went_up += bottom_up
                np.testing.assert_array_equal(
                    scores, top_down, err_msg=f"{name}, seed {seed}"
                )
            assert went_up >= 1, name


class TestEigenvector:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 30:
            g = random_graph(rng, int(rng.integers(3, 15)), rng.random() * 0.5)
            if g.edge_count == 0:
                continue
            got = eigenvector_scores(g)
            members = largest_component(g).members
            sym = (g.adjacency | g.adjacency.T).astype(float)
            sub = sym[np.ix_(members, members)]
            vals, vecs = np.linalg.eigh(sub)
            lead = np.abs(vecs[:, -1])
            expect = np.zeros(g.node_count)
            expect[list(members)] = lead / lead.max()
            np.testing.assert_allclose(got, expect, atol=1e-6)
            checked += 1

    def test_neighbour_lists_match_dense_power_iteration(self):
        # the power iteration as a dense product with S + I, same start,
        # tolerance and stopping rule
        g = large_mple_network(5)[0]
        members = np.array(largest_component(g).members)
        s = (g.adjacency | g.adjacency.T)[np.ix_(members, members)].astype(float)
        s += np.eye(len(members))
        x = np.full(len(members), 1.0 / np.sqrt(len(members)))
        for _ in range(1000):
            y = s @ x
            y /= np.linalg.norm(y)
            done = np.max(np.abs(y - x)) < 1e-10
            x = y
            if done:
                break
        expect = np.zeros(g.node_count)
        expect[members] = x / x.max()
        np.testing.assert_allclose(eigenvector_scores(g), expect, rtol=0, atol=1e-9)

    def test_star_closed_form(self):
        n = 6
        edges = [(0, k) for k in range(1, n)] + [(k, 0) for k in range(1, n)]
        g = build_graph(n, edges)
        scores = eigenvector_scores(g)
        assert scores[0] == pytest.approx(1.0)
        np.testing.assert_allclose(scores[1:], 1 / math.sqrt(n - 1), atol=1e-8)

    def test_undefined_without_edges(self):
        with pytest.raises(UndefinedMetricError):
            eigenvector_scores(DirectedGraph(4, frozenset()))

    def test_outside_component_is_zero(self):
        g = build_graph(5, [(0, 1), (1, 0), (0, 2), (3, 4)])
        scores = eigenvector_scores(g)
        assert scores[3] == 0.0 and scores[4] == 0.0


class TestCentralization:
    def test_in_star_indegree_is_one(self):
        g = build_graph(5, [(k, 0) for k in range(1, 5)])
        assert centralization(g, "indegree") == pytest.approx(1.0)

    def test_out_star_outdegree_is_one(self):
        g = build_graph(5, [(0, k) for k in range(1, 5)])
        assert centralization(g, "outdegree") == pytest.approx(1.0)

    def test_outdegree_frozen_example(self):
        g = build_graph(4, [(0, 1), (0, 2), (2, 3)])
        assert centralization(g, "outdegree") == pytest.approx(5 / 9)

    def test_total_degree_two_way_star(self):
        n = 4
        edges = [(0, k) for k in range(1, n)] + [(k, 0) for k in range(1, n)]
        g = build_graph(n, edges)
        # center 6, leaves 2 each; normalizer 2 * (n-1)^2
        assert centralization(g, "total_degree") == pytest.approx(12 / 18)

    def test_betweenness_directed_line(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        # max 2, spread 4, normalizer (n-1)^2 (n-2)
        assert centralization(g, "betweenness") == pytest.approx(4 / 18)

    def test_eigenvector_star_closed_form(self):
        n = 6
        edges = [(0, k) for k in range(1, n)] + [(k, 0) for k in range(1, n)]
        g = build_graph(n, edges)
        assert centralization(g, "eigenvector") == pytest.approx(
            1 - 1 / math.sqrt(n - 1)
        )

    def test_uniform_graph_scores_zero(self):
        # directed 4-cycle: every node identical on degree measures
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        for kind in ("indegree", "outdegree", "total_degree", "betweenness"):
            assert centralization(g, kind) == pytest.approx(0.0)

    def test_needs_three_nodes(self):
        with pytest.raises(UndefinedMetricError):
            centralization(build_graph(2, [(0, 1)]), "indegree")

    def test_unknown_kind(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(ConfigError):
            centralization(g, "pagerank")

    def test_kind_list_is_exposed(self):
        assert set(CENTRALIZATION_KINDS) == {
            "indegree",
            "outdegree",
            "total_degree",
            "betweenness",
            "eigenvector",
        }

    def test_bounded_by_one(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 12)), rng.random() * 0.5)
            for kind in ("indegree", "outdegree", "total_degree", "betweenness"):
                val = centralization(g, kind)
                assert -1e-12 <= val <= 1.0 + 1e-12


class TestDescribe:
    def test_full_row(self):
        g = build_graph(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
        row = describe(g)
        assert row.nodes == 4 and row.edges == 4
        assert row.density == pytest.approx(4 / 12)
        assert row.mean_indegree == pytest.approx(1.0)
        assert row.mean_outdegree == pytest.approx(1.0)
        assert row.mean_total_degree == pytest.approx(2.0)
        assert row.reciprocity == pytest.approx(0.5)
        d = row.as_dict()
        assert d["nodes"] == 4
        assert len(d) == 13

    def test_undefined_metrics_become_none(self):
        row = describe(DirectedGraph(3, frozenset()))
        assert row.edges == 0
        assert row.reciprocity is None
        assert row.transitivity is None
        assert row.eigenvector_centralization is None
        assert row.mean_total_degree == pytest.approx(0.0)

    def test_numerical_failure_blanks_only_that_metric(self, monkeypatch):
        def diverge(g):
            raise NumericalError("eigenvector iteration did not converge")

        monkeypatch.setattr(netergm.descriptives, "eigenvector_scores", diverge)
        row = describe(random_graph(np.random.default_rng(26), 10, 0.4))
        assert row.eigenvector_centralization is None
        others = {k: v for k, v in row.as_dict().items()
                  if k != "eigenvector_centralization"}
        assert len(others) == 12
        assert all(v is not None for v in others.values())

    def test_consistency_with_metric_functions(self):
        rng = np.random.default_rng(25)
        g = random_graph(rng, 10, 0.4)
        row = describe(g)
        assert row.density == pytest.approx(density(g))
        assert row.transitivity == pytest.approx(transitivity(g))
        assert row.betweenness_centralization == pytest.approx(
            centralization(g, "betweenness")
        )
