"""Spark-facing attributed-graph representation.

``AttributedGraph`` holds two DataFrames:

* ``nodes``: ``id: long, tattrs: array<string>, nattrs: array<double>``
  plus an optional ``ntype: string`` column for heterogeneous graphs;
* ``edges``: ``src: long, dst: long`` stored canonically (``src < dst``,
  deduplicated, no self-loops) plus an optional ``etype: string`` column.

The bulk stages of ``sea_search_spark`` (norm stats, distances, the
prioritised BFS, the induced G_q) and Table I's degree statistics consume
these frames. ``from_local`` builds one from a driver-side
:class:`repro.graphs.local.LocalGraph`; the driver-side inner loops run on
a ``LocalGraph`` collected from G_q.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .local import LocalGraph

NODE_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("tattrs", T.ArrayType(T.StringType()), False),
        T.StructField("nattrs", T.ArrayType(T.DoubleType()), False),
        T.StructField("ntype", T.StringType(), True),
    ]
)

EDGE_SCHEMA = T.StructType(
    [
        T.StructField("src", T.LongType(), False),
        T.StructField("dst", T.LongType(), False),
        T.StructField("etype", T.StringType(), True),
    ]
)


def canonicalize_edges(edges: DataFrame) -> DataFrame:
    """Undirect, de-duplicate and drop self-loops: keep src < dst."""
    cols = [c for c in edges.columns if c not in ("src", "dst")]
    e = edges.select(
        F.least("src", "dst").alias("src"),
        F.greatest("src", "dst").alias("dst"),
        *cols,
    )
    return e.where(F.col("src") != F.col("dst")).dropDuplicates(["src", "dst"])


@dataclass
class AttributedGraph:
    """An attributed graph as a pair of Spark DataFrames."""

    nodes: DataFrame
    edges: DataFrame

    def num_nodes(self) -> int:
        return self.nodes.count()

    def num_edges(self) -> int:
        return self.edges.count()

    def cache(self) -> "AttributedGraph":
        self.nodes.cache()
        self.edges.cache()
        return self

    def induced(self, keep: DataFrame) -> "AttributedGraph":
        """Node-induced subgraph; ``keep`` must have an ``id`` column."""
        ids = keep.select("id").distinct()
        nodes = self.nodes.join(ids, "id")
        edges = (
            self.edges.join(ids.withColumnRenamed("id", "src"), "src")
            .join(ids.withColumnRenamed("id", "dst"), "dst")
        )
        return AttributedGraph(nodes, edges.select(self.edges.columns))

    @staticmethod
    def from_pandas(
        spark: SparkSession, nodes: pd.DataFrame, edges: pd.DataFrame
    ) -> "AttributedGraph":
        """Build from pandas frames; fills optional columns with nulls."""
        nodes = nodes.copy()
        if "ntype" not in nodes.columns:
            nodes["ntype"] = None
        edges = edges.copy()
        if "etype" not in edges.columns:
            edges["etype"] = None
        ndf = spark.createDataFrame(
            nodes[["id", "tattrs", "nattrs", "ntype"]], schema=NODE_SCHEMA
        )
        edf = spark.createDataFrame(edges[["src", "dst", "etype"]], schema=EDGE_SCHEMA)
        return AttributedGraph(ndf, canonicalize_edges(edf))

    @staticmethod
    def from_local(spark: SparkSession, g: LocalGraph) -> "AttributedGraph":
        ids = sorted(g.adj)
        nodes = pd.DataFrame(
            {
                "id": ids,
                "tattrs": [sorted(g.tattrs.get(i, frozenset())) for i in ids],
                "nattrs": [list(map(float, g.nattrs.get(i, ()))) for i in ids],
                "ntype": [g.ntypes.get(i) if g.ntypes else None for i in ids],
            }
        )
        edges = pd.DataFrame(
            [(v, u) for v in ids for u in g.adj[v] if v < u], columns=["src", "dst"]
        )
        if edges.empty:
            edges = pd.DataFrame({"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")})
        return AttributedGraph.from_pandas(spark, nodes, edges)
