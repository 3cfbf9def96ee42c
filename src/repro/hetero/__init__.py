"""Heterogeneous-graph support: meta-path projection, (k,P)-core."""
from .metapath import (
    metapath_pairs_local,
    metapath_project_local,
)

__all__ = [
    "metapath_pairs_local",
    "metapath_project_local",
]
