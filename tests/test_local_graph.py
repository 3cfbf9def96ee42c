"""Unit tests for the driver-side graph algorithms (no Spark needed)."""
import numpy as np
import pytest

from repro.graphs import (
    LocalGraph,
    connected_component,
    core_decomposition,
    delete_with_kcore_maintenance,
    delete_with_ktruss_maintenance,
    kcore_nodes,
    ktruss_edges,
    maximal_connected_kcore,
    maximal_connected_ktruss,
)


def clique(n, offset=0):
    return [(i + offset, j + offset) for i in range(n) for j in range(i + 1, n)]


def path(n, offset=0):
    return [(i + offset, i + 1 + offset) for i in range(n - 1)]


@pytest.fixture()
def fig2_graph():
    """The k-core example graph of Fig. 2: H3 has two components."""
    # Component A: clique on {0,1,2,3}; component B: clique on {4,5,6,7};
    # bridge 8 attached to 0 and 4 (degree 2); pendant 9 attached to 8.
    edges = clique(4) + clique(4, offset=4) + [(8, 0), (8, 4), (9, 8)]
    return LocalGraph.from_edges(edges)


class TestFromEdges:
    def test_symmetry(self):
        g = LocalGraph.from_edges([(1, 2), (2, 3)])
        assert g.adj[2] == {1, 3}
        assert g.adj[1] == {2}

    def test_self_loops_dropped(self):
        g = LocalGraph.from_edges([(1, 1), (1, 2)])
        assert g.adj[1] == {2}

    def test_isolated_nodes_kept(self):
        g = LocalGraph.from_edges([(1, 2)], nodes=[1, 2, 7])
        assert g.adj[7] == set()
        assert g.num_nodes == 3

    def test_counts(self):
        g = LocalGraph.from_edges(clique(5))
        assert g.num_nodes == 5
        assert g.num_edges == 10

    def test_duplicate_edges_collapse(self):
        g = LocalGraph.from_edges([(1, 2), (2, 1), (1, 2)])
        assert g.num_edges == 1

    def test_attrs_coerced(self):
        g = LocalGraph.from_edges(
            [(0, 1)], tattrs={0: ["a", "b"]}, nattrs={0: [0.1, 0.2]}
        )
        assert g.tattrs[0] == frozenset({"a", "b"})
        assert isinstance(g.nattrs[0], np.ndarray)


class TestSubgraph:
    def test_induced(self):
        g = LocalGraph.from_edges(clique(4))
        s = g.subgraph({0, 1, 2})
        assert s.num_nodes == 3
        assert s.num_edges == 3

    def test_edges_outside_dropped(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2)])
        s = g.subgraph({0, 1})
        assert s.adj[1] == {0}


class TestCoreDecomposition:
    def test_clique(self):
        g = LocalGraph.from_edges(clique(5))
        assert core_decomposition(g) == {v: 4 for v in range(5)}

    def test_path(self):
        g = LocalGraph.from_edges(path(4))
        assert core_decomposition(g) == {v: 1 for v in range(4)}

    def test_fig2_structure(self, fig2_graph):
        c = core_decomposition(fig2_graph)
        for v in range(8):
            assert c[v] == 3
        assert c[8] == 2
        assert c[9] == 1

    def test_empty(self):
        assert core_decomposition(LocalGraph.from_edges([])) == {}

    def test_isolated(self):
        g = LocalGraph.from_edges([], nodes=[3])
        assert core_decomposition(g) == {3: 0}

    def test_matches_peeling_definition(self):
        """coreness(v) >= k  <=>  v survives peeling to the k-core."""
        rng = np.random.default_rng(7)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 40, size=(150, 2)) if a != b]
        g = LocalGraph.from_edges(edges)
        c = core_decomposition(g)
        for k in range(0, max(c.values()) + 2):
            assert kcore_nodes(g, k) == {v for v, cv in c.items() if cv >= k}


class TestKCore:
    def test_kcore_of_clique(self):
        g = LocalGraph.from_edges(clique(5))
        assert kcore_nodes(g, 4) == set(range(5))
        assert kcore_nodes(g, 5) == set()

    def test_within_restriction(self):
        g = LocalGraph.from_edges(clique(5))
        assert kcore_nodes(g, 3, within={0, 1, 2, 3}) == {0, 1, 2, 3}
        assert kcore_nodes(g, 4, within={0, 1, 2, 3}) == set()

    def test_fig2_k3_two_components(self, fig2_graph):
        assert kcore_nodes(fig2_graph, 3) == set(range(8))

    def test_connected_kcore_selects_q_component(self, fig2_graph):
        assert maximal_connected_kcore(fig2_graph, 0, 3) == {0, 1, 2, 3}
        assert maximal_connected_kcore(fig2_graph, 5, 3) == {4, 5, 6, 7}

    def test_connected_kcore_q_not_in_core(self, fig2_graph):
        assert maximal_connected_kcore(fig2_graph, 9, 3) == set()

    def test_k2_connected_through_bridge(self, fig2_graph):
        # node 8 has degree 2 (to 0 and 4): the 2-core is one component
        assert maximal_connected_kcore(fig2_graph, 0, 2) == set(range(9))


class TestConnectedComponent:
    def test_whole(self):
        g = LocalGraph.from_edges(path(5))
        assert connected_component(g, 0) == set(range(5))

    def test_within(self):
        g = LocalGraph.from_edges(path(5))
        assert connected_component(g, 0, within={0, 1, 3, 4}) == {0, 1}

    def test_q_outside(self):
        g = LocalGraph.from_edges(path(3))
        assert connected_component(g, 0, within={1, 2}) == set()


class TestKCoreMaintenance:
    def test_simple_delete_no_cascade(self):
        g = LocalGraph.from_edges(clique(5))
        state, removed = delete_with_kcore_maintenance(g, set(range(5)), 0, 3, 4)
        assert state == {0, 1, 2, 3}
        assert removed == [4]

    def test_cascade_collapse(self):
        g = LocalGraph.from_edges(clique(4))
        state, removed = delete_with_kcore_maintenance(g, set(range(4)), 0, 3, 3)
        # deleting any node of a 4-clique destroys the 3-core entirely
        assert state == set()
        assert 0 in removed  # q itself cascades out

    def test_component_restriction(self, fig2_graph):
        # start from the connected 2-core (nodes 0..8); deleting 8 splits it
        state0 = maximal_connected_kcore(fig2_graph, 0, 2)
        state, removed = delete_with_kcore_maintenance(fig2_graph, state0, 0, 2, 8)
        assert state == {0, 1, 2, 3}
        assert set(removed) == {8, 4, 5, 6, 7}
        assert removed[0] == 8

    def test_invariant_restored(self):
        rng = np.random.default_rng(3)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 30, size=(140, 2)) if a != b]
        g = LocalGraph.from_edges(edges)
        k = 3
        state = maximal_connected_kcore(g, next(iter(g.adj)), k)
        if not state:
            pytest.skip("random graph has no 3-core")
        q = next(iter(state))
        for v in list(state - {q})[:5]:
            new, _ = delete_with_kcore_maintenance(g, state, q, k, v)
            for u in new:
                assert sum(1 for w in g.adj[u] if w in new) >= k
            if new:
                assert connected_component(g, q, new) == new


class TestTruss:
    def test_ktruss_of_clique(self):
        g = LocalGraph.from_edges(clique(5))
        assert len(ktruss_edges(g, 5)) == 10
        assert ktruss_edges(g, 6) == set()

    def test_ktruss_prunes_tail(self):
        g = LocalGraph.from_edges(clique(4) + [(3, 4), (4, 5)])
        edges = ktruss_edges(g, 3)
        assert (4, 5) not in edges and (3, 4) not in edges
        assert len(edges) == 6

    def test_connected_ktruss(self):
        g = LocalGraph.from_edges(clique(4) + clique(4, offset=4) + [(0, 4)])
        assert maximal_connected_ktruss(g, 0, 4) == {0, 1, 2, 3}

    def test_truss_maintenance(self):
        g = LocalGraph.from_edges(clique(5))
        state, removed = delete_with_ktruss_maintenance(g, set(range(5)), 0, 4, 4)
        assert state == {0, 1, 2, 3}
        assert removed == [4]

    def test_truss_maintenance_collapse(self):
        g = LocalGraph.from_edges(clique(4))
        state, removed = delete_with_ktruss_maintenance(g, set(range(4)), 0, 4, 3)
        assert state == set()
        assert removed[0] == 3

    def test_ktruss_nodes_are_k1core(self):
        """Every k-truss is a (k-1)-core (used by the SEA truss variant)."""
        rng = np.random.default_rng(11)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 25, size=(160, 2)) if a != b]
        g = LocalGraph.from_edges(edges)
        for k in (3, 4):
            te = ktruss_edges(g, k)
            nodes = {v for e in te for v in e}
            for v in nodes:
                deg = sum(1 for u in g.adj[v] if (min(u, v), max(u, v)) in te)
                assert deg >= k - 1
