"""Spark DataFrame dataflows on the query and job paths.

``prioritized_neighborhood`` builds G_q for ``sea_search_spark``;
``degrees`` feeds Table I's degree statistics.
"""
from .bfs import prioritized_neighborhood
from .degrees import degrees, symmetrize

__all__ = [
    "degrees",
    "prioritized_neighborhood",
    "symmetrize",
]
