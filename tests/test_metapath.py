"""Tests for meta-path projection (local, against the generator's planted graph)."""
import pytest

from repro.graphs import LocalGraph, maximal_connected_kcore
from repro.graphs.generator import planted_heterogeneous, planted_homogeneous
from repro.hetero import metapath_pairs_local, metapath_project_local


@pytest.fixture(scope="module")
def hetero():
    return planted_heterogeneous(
        n_comms=3, comm_size=12, p_in=0.5, m_out=12, seed=21,
        target_type="A", bridge_type="P", flavour_types=("V",),
    )


class TestLocalProjection:
    def test_recovers_planted_graph(self, hetero):
        base = planted_homogeneous(
            n_comms=3, comm_size=12, p_in=0.5, m_out=12, seed=21
        )
        pairs = metapath_pairs_local(hetero.graph, ("A", "P", "A"))
        want = {
            (v, u) for v in base.graph.adj for u in base.graph.adj[v] if v < u
        }
        assert pairs == want

    def test_projected_graph_keeps_targets(self, hetero):
        proj = metapath_project_local(hetero.graph, ("A", "P", "A"))
        targets = {v for v, t in hetero.graph.ntypes.items() if t == "A"}
        assert set(proj.adj) == targets

    def test_projected_attrs_preserved(self, hetero):
        proj = metapath_project_local(hetero.graph, ("A", "P", "A"))
        v = next(iter(hetero.communities))
        assert proj.tattrs[v] == hetero.graph.tattrs[v]

    def test_no_path_through_flavour(self, hetero):
        # A-V-A finds nothing: flavour hubs attach to bridges, not targets
        assert metapath_pairs_local(hetero.graph, ("A", "V", "A")) == set()

    def test_untyped_graph_raises(self):
        g = LocalGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            metapath_pairs_local(g, ("A", "P", "A"))

    def test_short_path_raises(self, hetero):
        with pytest.raises(ValueError):
            metapath_pairs_local(hetero.graph, ("A",))

    def test_kp_core_lives_in_projection(self, hetero):
        proj = metapath_project_local(hetero.graph, ("A", "P", "A"))
        q = next(iter(hetero.communities))
        core = maximal_connected_kcore(proj, q, 3)
        gt = hetero.community_of(q)
        if not core:
            pytest.skip("q not in 3-core of projection")
        assert len(core & gt) / len(core) > 0.6


class TestSEAOnProjection:
    def test_sea_on_projected_dblp(self, dblp):
        from repro.core import SEAParams, sea_search
        from repro.graphs import core_decomposition

        proj = metapath_project_local(dblp.graph, dblp.meta_path)
        cor = core_decomposition(proj)
        q = next(v for v in sorted(dblp.communities) if cor.get(v, 0) >= 5)
        r = sea_search(proj, q, SEAParams(k=4, e=0.25, seed=1))
        assert r.community is not None
        assert maximal_connected_kcore(proj, q, 4, within=r.community) == r.community
        # the community stays within target-typed nodes
        assert all(dblp.graph.ntypes[v] == "A" for v in r.community)
