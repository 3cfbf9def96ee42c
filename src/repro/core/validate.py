"""Argument checks shared by the search entry points."""
from __future__ import annotations

from typing import Optional


def check_query(
    has_q: bool, q: int, k: int, gamma: float, e: Optional[float] = None
) -> None:
    """Raise ``ValueError`` for a query no search can answer.

    ``has_q`` says whether q is a node of the graph; ``e`` is checked only
    for the methods that take an error bound.
    """
    if not has_q:
        raise ValueError(f"query node {q} is not in the graph")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if e is not None and not e > 0:
        raise ValueError(f"error bound e must be positive, got {e}")
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")


def check_sea_params(params) -> None:
    """Raise ``ValueError`` for SEA parameters no search can honour: an
    unknown community model, or a size bound ``(l, h)`` without
    ``1 <= l <= h``."""
    if params.model not in ("core", "truss"):
        raise ValueError(f"unknown model {params.model!r}")
    if params.size_bound is not None:
        lo, hi = params.size_bound
        if not 1 <= lo <= hi:
            raise ValueError(f"size bound (l, h) needs 1 <= l <= h, got {params.size_bound}")
