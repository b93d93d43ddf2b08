import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from netergm import (
    ConfigError,
    DimensionError,
    DirectedGraph,
    GraphIndexError,
    InvalidDyadError,
    NodeSubset,
    activity_subset,
    build_graph,
    induced_subgraph,
    largest_component,
)
from netergm.graph import _components, two_path_counts
from helpers import random_graph


class TestDirectedGraph:
    def test_rejects_loops(self):
        with pytest.raises(InvalidDyadError):
            DirectedGraph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(GraphIndexError):
            DirectedGraph(3, frozenset({(0, 3)}))
        with pytest.raises(GraphIndexError):
            DirectedGraph(3, frozenset({(-1, 0)}))

    def test_rejects_negative_node_count(self):
        with pytest.raises(GraphIndexError):
            DirectedGraph(-1, frozenset())

    def test_empty_graph_is_allowed(self):
        g = DirectedGraph(0, frozenset())
        assert g.edge_count == 0

    def test_adjacency_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 15)), rng.random())
            again = DirectedGraph.from_adjacency(g.adjacency)
            assert again.edges == g.edges
            assert again.node_count == g.node_count

    def test_adjacency_is_read_only(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.adjacency[0, 2] = True

    def test_degrees_match_direct_counts(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 12, 0.3)
        outd = np.zeros(12, dtype=int)
        ind = np.zeros(12, dtype=int)
        for i, j in g.edges:
            outd[i] += 1
            ind[j] += 1
        np.testing.assert_array_equal(g.out_degrees, outd)
        np.testing.assert_array_equal(g.in_degrees, ind)
        np.testing.assert_array_equal(g.total_degrees, ind + outd)

    def test_with_dyad_toggles(self):
        g = build_graph(4, [(0, 1)])
        added = g.with_dyad(2, 3, True)
        assert added.has_edge(2, 3) and not g.has_edge(2, 3)
        removed = added.with_dyad(0, 1, False)
        assert not removed.has_edge(0, 1)
        # writing the current state back is a no-op
        assert g.with_dyad(0, 1, True).edges == g.edges

    def test_with_dyad_rejects_loop(self):
        g = build_graph(4, [(0, 1)])
        with pytest.raises(InvalidDyadError):
            g.with_dyad(2, 2, True)


class TestBuildGraph:
    def test_drops_loops_and_duplicates_with_warnings(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = build_graph(3, [(0, 1), (1, 1)])
        assert g.edges == frozenset({(0, 1)})
        with pytest.warns(UserWarning, match="duplicate"):
            g = build_graph(3, [(0, 1), (0, 1), (2, 0)])
        assert g.edge_count == 2

    def test_requires_at_least_one_node(self):
        with pytest.raises(GraphIndexError):
            build_graph(0, [])


class TestNodeSubset:
    def test_requires_sorted_unique_members(self):
        from netergm import ValidationError

        with pytest.raises(ValidationError):
            NodeSubset(6, (4, 1, 3))
        with pytest.raises(ValidationError):
            NodeSubset(6, (1, 1, 3))
        assert len(NodeSubset(6, (1, 3, 4))) == 3

    def test_index_map(self):
        s = NodeSubset(6, (1, 3, 4))
        assert s.index_map == {1: 0, 3: 1, 4: 2}

    def test_rejects_out_of_range_members(self):
        with pytest.raises(GraphIndexError):
            NodeSubset(3, (0, 3))


def scipy_largest(g, mode):
    """Members of scipy's largest ``mode`` component, ties on size broken
    toward the smallest node index."""
    count, labels = connected_components(
        csr_matrix(g.adjacency.astype(np.int8)), directed=True, connection=mode
    )
    sizes = np.bincount(labels, minlength=count)
    best = max(
        range(count),
        key=lambda c: (sizes[c], -int(np.nonzero(labels == c)[0][0])),
    )
    return tuple(np.nonzero(labels == best)[0].tolist())


def long_and_star_graph(shape, n=3000):
    """A directed path or cycle through ``n`` nodes, deeper than Python's
    recursion limit, or a star whose hub 0 sends or receives all n - 1
    ties."""
    path = [(v, v + 1) for v in range(n - 1)]
    return build_graph(n, {
        "path": path,
        "cycle": path + [(n - 1, 0)],
        "in-star": [(v, 0) for v in range(1, n)],
        "out-star": [(0, v) for v in range(1, n)],
    }[shape])


class TestLargestComponent:
    def test_weak_known_graph(self):
        # components {0,1,2,3} (weak) and {4,5}
        g = build_graph(6, [(0, 1), (2, 1), (2, 3), (4, 5)])
        assert largest_component(g).members == (0, 1, 2, 3)

    def test_strong_known_graph(self):
        # 0->1->2->0 is a strong cycle; 3 hangs off it
        g = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert largest_component(g, mode="strong").members == (0, 1, 2)

    def test_tie_break_prefers_smallest_index(self):
        g = build_graph(6, [(3, 4), (4, 5), (0, 1), (1, 2)])
        assert largest_component(g).members == (0, 1, 2)

    def test_matches_scipy_weak_and_strong(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            g = random_graph(rng, n, rng.random() * 0.25)
            for mode in ("weak", "strong"):
                assert largest_component(g, mode=mode).members == scipy_largest(g, mode)

    @pytest.mark.parametrize("mode", ["weak", "strong"])
    def test_components_match_networkx(self, mode):
        nx = pytest.importorskip("networkx")
        theirs = {
            "weak": nx.weakly_connected_components,
            "strong": nx.strongly_connected_components,
        }[mode]
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(1, 60))
            g = random_graph(rng, n, rng.random() * 0.08)
            h = nx.DiGraph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            expect = {frozenset(c) for c in theirs(h)}
            assert {frozenset(c) for c in _components(g, mode)} == expect
            best = max(expect, key=lambda c: (len(c), -min(c)))
            assert largest_component(g, mode=mode).members == tuple(sorted(best))

    @pytest.mark.parametrize("mode", ["weak", "strong"])
    @pytest.mark.parametrize("shape", ["path", "cycle", "in-star", "out-star"])
    def test_long_and_star_graphs_match_scipy_and_networkx(self, shape, mode):
        g = long_and_star_graph(shape)
        got = largest_component(g, mode=mode).members
        assert got == scipy_largest(g, mode)
        # a strong component of the path or a star is one node; the rest span all
        assert len(got) == (1 if mode == "strong" and shape != "cycle" else 3000)
        nx = pytest.importorskip("networkx")
        theirs = {
            "weak": nx.weakly_connected_components,
            "strong": nx.strongly_connected_components,
        }[mode](nx.DiGraph(list(g.edges)))
        assert {frozenset(c) for c in _components(g, mode)} == {
            frozenset(c) for c in theirs
        }

    def test_bad_mode(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ConfigError):
            largest_component(g, mode="loose")


class TestTwoPathCounts:
    @staticmethod
    def integer_square(g):
        a = g.adjacency.astype(np.int64)
        return a @ a

    def test_random_graphs_match_integer_product(self):
        rng = np.random.default_rng(14)
        for n in (2, 3, 17, 64, 130, 301):
            for p in (0.02, 0.2, 0.7):
                g = random_graph(rng, n, p)
                got = two_path_counts(g)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, self.integer_square(g))

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_empty_graph(self, n):
        got = two_path_counts(DirectedGraph(n, frozenset()))
        assert got.dtype == np.int64 and got.shape == (n, n)
        assert not got.any()

    def test_complete_graph(self):
        n = 40
        a = ~np.eye(n, dtype=bool)
        got = two_path_counts(DirectedGraph.from_adjacency(a))
        # every ordered pair has the n - 2 other nodes as middles, and each
        # node has n - 1 two-cycles through it
        expect = np.where(np.eye(n, dtype=bool), n - 1, n - 2)
        np.testing.assert_array_equal(got, expect)
        np.testing.assert_array_equal(got, self.integer_square(DirectedGraph.from_adjacency(a)))


class TestActivitySubset:
    def test_threshold_by_total_degree(self):
        g = build_graph(5, [(0, 1), (1, 0), (1, 2), (3, 1)])
        # total degrees: 2, 4, 1, 1, 0
        assert activity_subset(g, 2).members == (0, 1)
        assert activity_subset(g, 1).members == (0, 1, 2, 3)
        assert activity_subset(g, 0).members == (0, 1, 2, 3, 4)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 15, 0.2)
        prev = set(range(15))
        for k in range(6):
            cur = set(activity_subset(g, k).members)
            assert cur <= prev
            prev = cur

    def test_negative_threshold_raises(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(ConfigError, match="k must be >= 0"):
            activity_subset(g, -1)


class TestInducedSubgraph:
    def test_reindexes_edges(self):
        g = build_graph(5, [(0, 1), (1, 3), (3, 4), (2, 0)])
        sub = induced_subgraph(g, NodeSubset(5, (1, 3, 4)))
        assert sub.node_count == 3
        assert sub.edges == frozenset({(0, 1), (1, 2)})

    def test_parent_size_mismatch(self):
        g = build_graph(4, [(0, 1)])
        with pytest.raises(DimensionError):
            induced_subgraph(g, NodeSubset(5, (0, 1)))

    def test_degrees_never_increase(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 12, 0.3)
        sub = induced_subgraph(g, NodeSubset(12, tuple(range(0, 12, 2))))
        for local, parent in enumerate(range(0, 12, 2)):
            assert sub.total_degrees[local] <= g.total_degrees[parent]
