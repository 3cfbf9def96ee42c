"""In-memory spans around the calls a query makes into the program's layers.

The traced run rebinds the module attributes in ``PATCH_POINTS`` to
wrappers from this file.  The program looks each of them up when it calls
it, so the program's own code is unchanged and, with tracing off, runs
without any wrapper.  Spans stay in memory until the run ends.

Every span records its name, start, end, the span that caused it (the
query's root span) and, on Spark, the number of Spark jobs it launched:
each span sets its own job group and reads the group's job ids from the
status tracker when it ends.
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

# (module, attribute, span name, span opened when the call returns).
# The opened span ends when the next traced call starts or the query ends:
# after the Spark BFS it covers the induced subgraph and the collect of G_q
# up to the driver loop's first k-core.
PATCH_POINTS = [
    ("repro.core.sea", "composite_distances_local", "metrics.f_eval", None),
    ("repro.core.sea", "maximal_connected_kcore", "graphs.local.kcore", None),
    ("repro.core.sea", "delete_with_kcore_maintenance", "graphs.local.peel", None),
    ("repro.core.sea", "blb_estimate", "core.estimation.blb", None),
    ("repro.core.exact", "composite_distances_local", "metrics.f_eval", None),
    ("repro.core.exact", "maximal_connected_kcore", "graphs.local.kcore", None),
    ("repro.core.exact", "delete_with_kcore_maintenance", "graphs.local.peel", None),
    ("repro.spark_core.bfs", "prioritized_neighborhood", "spark_core.bfs", "spark.collect"),
    ("repro.metrics.distance", "norm_stats_spark", "metrics.norm_stats", None),
]

# spans whose call result is a node collection: its size is the span's rows
ROWS_OF = {"metrics.f_eval": len}


@dataclass
class Span:
    query: int
    name: str
    parent: Optional[int]  # index of the causing span in Tracer.spans
    start: float
    end: float = 0.0
    jobs: int = 0
    rows: int = 0


class Tracer:
    """Collects spans; ``sc`` (a SparkContext) enables job counting."""

    def __init__(self, sc=None):
        self.spans: List[Span] = []
        self._sc = sc
        self._stack: List[int] = []
        self._pending: Optional[int] = None
        self._query = -1

    def _group(self, idx: int) -> str:
        return f"perfbench-span-{idx}"

    def _open(self, name: str, push: bool) -> int:
        now = time.perf_counter()
        self._close_pending(now)
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(self._query, name, parent, now))
        if push:
            self._stack.append(idx)
        if self._sc is not None:
            self._sc.setJobGroup(self._group(idx), name)
        return idx

    def _close(self, idx: int, now: float) -> None:
        sp = self.spans[idx]
        sp.end = now
        if self._sc is not None:
            tracker = self._sc.statusTracker()
            sp.jobs = len(tracker.getJobIdsForGroup(self._group(idx)))
            if sp.parent is not None:
                self._sc.setJobGroup(self._group(sp.parent), self.spans[sp.parent].name)
            else:
                self._sc.setLocalProperty("spark.jobGroup.id", None)

    def _close_pending(self, now: float) -> None:
        if self._pending is not None:
            idx, self._pending = self._pending, None
            self._close(idx, now)

    @contextmanager
    def query(self, qid: int) -> Iterator[None]:
        """Root span of one query; spans opened inside it are its children."""
        self._query = qid
        idx = self._open("query", push=True)
        try:
            yield
        finally:
            now = time.perf_counter()
            self._close_pending(now)
            self._stack.pop()
            self._close(idx, now)

    def wrap(self, fn: Callable, name: str, then: Optional[str]) -> Callable:
        rows = ROWS_OF.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name, push=True)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._close(idx, time.perf_counter())
            if rows is not None:
                self.spans[idx].rows = rows(out)
            if then is not None:
                self._pending = self._open(then, push=False)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self) -> Iterator[List[str]]:
        """Rebind every patch point for the duration; yields the missing ones."""
        saved, missing = [], []
        for mod_name, attr, name, then in PATCH_POINTS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name, then))
        try:
            yield missing
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def per_query(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """query -> span name -> {self_ms, calls, jobs, rows}.

        A span's self time is its duration minus its children's; the root
        span is named ``query`` and its self time is the query's own code.
        """
        child_s = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_s[sp.parent] += sp.end - sp.start
        out: Dict[int, Dict[str, Dict[str, float]]] = {}
        for i, sp in enumerate(self.spans):
            agg = out.setdefault(sp.query, {}).setdefault(
                sp.name, {"self_ms": 0.0, "total_ms": 0.0, "calls": 0, "jobs": 0, "rows": 0}
            )
            agg["self_ms"] += (sp.end - sp.start - child_s[i]) * 1e3
            agg["total_ms"] += (sp.end - sp.start) * 1e3
            agg["calls"] += 1
            agg["jobs"] += sp.jobs
            agg["rows"] += sp.rows
        return out
