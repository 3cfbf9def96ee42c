"""Attributed-graph substrate: representations, generators, datasets."""
from .attributed import AttributedGraph, canonicalize_edges
from .generator import GeneratedGraph, planted_heterogeneous, planted_homogeneous
from .local import (
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

__all__ = [
    "AttributedGraph",
    "GeneratedGraph",
    "LocalGraph",
    "canonicalize_edges",
    "connected_component",
    "core_decomposition",
    "delete_with_kcore_maintenance",
    "delete_with_ktruss_maintenance",
    "kcore_nodes",
    "ktruss_edges",
    "maximal_connected_kcore",
    "maximal_connected_ktruss",
    "planted_heterogeneous",
    "planted_homogeneous",
]
