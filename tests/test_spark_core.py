"""Tests for the Spark dataflows on the query and job paths.

``degrees`` (Table I) is checked against a DuckDB oracle and the local
graph; ``prioritized_neighborhood`` (the G_q BFS of ``sea_search_spark``)
against hand-built graphs.
"""
import pandas as pd
import pytest

from repro.graphs import AttributedGraph, LocalGraph
from repro.oracle import assert_equivalent
from repro.spark_core import degrees, prioritized_neighborhood, symmetrize


class TestDegrees:
    def test_oracle(self, tiny_spark, tiny_edges_pdf):
        got = degrees(tiny_spark.edges)
        assert_equivalent(
            got,
            """
            SELECT id, COUNT(*)::BIGINT AS degree FROM (
              SELECT src AS id FROM edges
              UNION ALL
              SELECT dst AS id FROM edges
            ) GROUP BY id
            """,
            edges=tiny_edges_pdf,
        )

    def test_matches_local(self, tiny, tiny_spark):
        got = {r.id: r.degree for r in degrees(tiny_spark.edges).collect()}
        want = {v: len(nbrs) for v, nbrs in tiny.graph.adj.items() if nbrs}
        assert got == want

    def test_symmetrize_doubles(self, tiny_spark):
        assert symmetrize(tiny_spark.edges).count() == 2 * tiny_spark.num_edges()


class TestPrioritizedNeighborhood:
    @pytest.fixture(scope="class")
    def star_path(self, spark):
        # q=0 connected to 1..6; 1 connected to a chain 10-11-12
        edges = [(0, i) for i in range(1, 7)] + [(1, 10), (10, 11), (11, 12)]
        g = AttributedGraph.from_local(spark, LocalGraph.from_edges(edges))
        fv = spark.createDataFrame(
            pd.DataFrame({"id": [0, 1, 2, 3, 4, 5, 6, 10, 11, 12],
                          "f": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.15, 0.2, 0.9]})
        )
        return g, fv

    def test_reaches_min_size(self, star_path):
        g, fv = star_path
        got = prioritized_neighborhood(symmetrize(g.edges), fv, 0, 5)
        assert got.count() == 5

    def test_prefers_small_f_in_last_layer(self, star_path):
        g, fv = star_path
        got = {r.id for r in prioritized_neighborhood(symmetrize(g.edges), fv, 0, 4).collect()}
        # layer 1 is 1..6; only 3 admitted: the smallest-f ones 1, 2, 3
        assert got == {0, 1, 2, 3}

    def test_grows_beyond_one_hop(self, star_path):
        g, fv = star_path
        got = {r.id for r in prioritized_neighborhood(symmetrize(g.edges), fv, 0, 9).collect()}
        assert {10, 11}.issubset(got) or 10 in got

    def test_caps_at_component(self, star_path):
        g, fv = star_path
        got = prioritized_neighborhood(symmetrize(g.edges), fv, 0, 50)
        assert got.count() == 10  # whole component, no infinite loop

    def test_includes_query(self, star_path):
        g, fv = star_path
        got = {r.id for r in prioritized_neighborhood(symmetrize(g.edges), fv, 0, 3).collect()}
        assert 0 in got
