"""Shared plumbing for the baseline CS methods of §VII-A.

Every baseline searches inside the maximal connected k-core (or k-truss)
containing q and returns a :class:`BaselineResult`; ``community=None``
means the method cannot return a community (e.g. ACQ on numerical-only
attributes — the '-' cells of Table V).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Set, Tuple

from repro.graphs.local import (
    LocalGraph,
    delete_with_kcore_maintenance,
    delete_with_ktruss_maintenance,
    maximal_connected_kcore,
    maximal_connected_ktruss,
)


@dataclass
class BaselineResult:
    community: Optional[Set[int]]
    elapsed_s: float
    states: int = 0  # candidate states examined (exact variants)
    capped: bool = False


def model_ops(model: str) -> Tuple[Callable, Callable]:
    """(initial-community fn, delete-maintenance fn) per model."""
    if model == "core":
        return maximal_connected_kcore, delete_with_kcore_maintenance
    if model == "truss":
        return maximal_connected_ktruss, delete_with_ktruss_maintenance
    raise ValueError(f"unknown model {model!r}")


def timed(fn):
    """Wrap a search body so it returns a BaselineResult with wall time."""

    def wrapper(*args, **kwargs) -> BaselineResult:
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        if isinstance(out, tuple):
            community, states, capped = out
            return BaselineResult(community, elapsed, states, capped)
        return BaselineResult(out, elapsed)

    return wrapper
