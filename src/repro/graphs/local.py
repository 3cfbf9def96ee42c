"""Driver-side graph representation and graph algorithms.

The paper's per-query inner loops (branch-and-bound enumeration, greedy
peeling, k-core/k-truss maintenance after a deletion) are sequential and
operate on small candidate subgraphs (a maximal connected k-core, or the
induced graph of a sample). They run on a :class:`LocalGraph` held in
driver memory — mirroring how the original single-machine Java
implementation runs them. ``sea_search_spark`` builds its G_q with Spark
dataflows and collects it into a ``LocalGraph``; every other path
extracts its subgraphs here.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np


@dataclass
class LocalGraph:
    """Undirected attributed graph held in driver memory.

    ``adj`` maps node id -> set of neighbour ids (symmetric).
    ``tattrs`` maps node id -> frozenset of textual attribute tokens.
    ``nattrs`` maps node id -> numpy vector of numerical attributes (all
    nodes share the same dimensionality; may be length 0).
    ``ntypes`` optionally maps node id -> node type (heterogeneous graphs).

    Attributes are read-only once the graph is built: the first distance
    evaluation caches a columnar copy of them (:meth:`attr_table`) on the
    instance, and later edits to ``tattrs``/``nattrs`` would not reach it.
    The cache is not part of the graph's equality or repr.
    """

    adj: Dict[int, Set[int]]
    tattrs: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    nattrs: Dict[int, np.ndarray] = field(default_factory=dict)
    ntypes: Optional[Dict[int, str]] = None
    _table: Optional["AttrTable"] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_nodes(self) -> int:
        return len(self.adj)

    @property
    def num_edges(self) -> int:
        return sum(len(v) for v in self.adj.values()) // 2

    def nodes(self) -> List[int]:
        return list(self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def attr_table(self) -> "AttrTable":
        """The columnar attribute table over this graph's nodes (cached)."""
        if self._table is None:
            self._table = AttrTable.build(self)
        return self._table

    def subgraph(self, keep: Iterable[int]) -> "LocalGraph":
        """Node-induced subgraph (attribute dicts are shared, not copied)."""
        keep = set(keep)
        adj = {v: self.adj[v] & keep for v in keep}
        return LocalGraph(adj, self.tattrs, self.nattrs, self.ntypes)

    @staticmethod
    def from_edges(
        edges: Iterable[Tuple[int, int]],
        tattrs: Optional[Dict[int, Iterable[str]]] = None,
        nattrs: Optional[Dict[int, Sequence[float]]] = None,
        ntypes: Optional[Dict[int, str]] = None,
        nodes: Optional[Iterable[int]] = None,
    ) -> "LocalGraph":
        adj: Dict[int, Set[int]] = {}
        for v in nodes or ():
            adj.setdefault(int(v), set())
        for s, d in edges:
            s, d = int(s), int(d)
            if s == d:
                continue
            adj.setdefault(s, set()).add(d)
            adj.setdefault(d, set()).add(s)
        t = {int(v): frozenset(a) for v, a in (tattrs or {}).items()}
        n = {int(v): np.asarray(a, dtype=float) for v, a in (nattrs or {}).items()}
        return LocalGraph(adj, t, n, dict(ntypes) if ntypes else None)


@dataclass(frozen=True, eq=False)
class AttrTable:
    """Columnar copy of a :class:`LocalGraph`'s attributes, one row per node.

    ``ids`` is the node order (that of ``adj``) and ``row`` maps a node id
    to its row.  ``nattrs`` holds the raw numerical attributes as one
    ``(n, d)`` matrix, and ``mins``/``maxs`` their per-dimension min/max
    over every row.  The textual attributes are a token-id incidence list:
    row ``tok_row[i]`` has token ``tok_id[i]`` (ids in ``range(vocab_size)``),
    and row r has ``tok_count[r]`` tokens.
    """

    ids: List[int]
    row: Dict[int, int]
    nattrs: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray
    tok_row: np.ndarray
    tok_id: np.ndarray
    tok_count: np.ndarray
    vocab_size: int

    @staticmethod
    def build(g: LocalGraph) -> "AttrTable":
        ids = list(g.adj)
        row = {v: i for i, v in enumerate(ids)}
        vecs = [g.nattrs.get(v, ()) for v in ids]
        d = max((len(x) for x in vecs), default=0)
        for v, x in zip(ids, vecs):
            if len(x) != d:
                raise ValueError(
                    f"node {v} has {len(x)} numerical attributes, expected {d}"
                )
        nattrs = np.array(vecs, dtype=float).reshape(len(ids), d)
        if len(ids):
            mins, maxs = nattrs.min(axis=0), nattrs.max(axis=0)
        else:
            mins = maxs = np.zeros(d)
        vocab: Dict[str, int] = {}
        tok_id = [vocab.setdefault(t, len(vocab))
                  for v in ids for t in g.tattrs.get(v, ())]
        tok_count = np.array([len(g.tattrs.get(v, ())) for v in ids], dtype=np.int64)
        return AttrTable(
            ids, row, nattrs, mins, maxs,
            tok_row=np.repeat(np.arange(len(ids), dtype=np.int32), tok_count),
            tok_id=np.array(tok_id, dtype=np.int32),
            tok_count=tok_count,
            vocab_size=len(vocab),
        )


# ---------------------------------------------------------------------------
# Core decomposition and k-core maintenance
# ---------------------------------------------------------------------------


def core_decomposition(g: LocalGraph) -> Dict[int, int]:
    """Batagelj–Zaveršnik peeling: coreness (core number) of every node.

    O(|E|) using bucket sort on degrees.
    """
    deg = {v: len(nbrs) for v, nbrs in g.adj.items()}
    if not deg:
        return {}
    max_deg = max(deg.values())
    buckets: List[Set[int]] = [set() for _ in range(max_deg + 1)]
    for v, d in deg.items():
        buckets[d].add(v)
    coreness: Dict[int, int] = {}
    removed: Set[int] = set()
    cur = 0
    for _ in range(len(deg)):
        while cur <= max_deg and not buckets[cur]:
            cur += 1
        if cur > max_deg:
            break
        v = buckets[cur].pop()
        coreness[v] = cur
        removed.add(v)
        for u in g.adj[v]:
            if u in removed:
                continue
            d = deg[u]
            if d > cur:
                buckets[d].discard(u)
                deg[u] = d - 1
                buckets[d - 1].add(u)
        # deg[u] can drop below cur only transiently; bucket index is
        # clamped by the `d > cur` guard above, so cur never decreases.
    return coreness


def kcore_nodes(g: LocalGraph, k: int, within: Optional[Set[int]] = None) -> Set[int]:
    """Nodes of the maximal (not necessarily connected) k-core.

    Peels nodes of degree < k until a fixpoint, restricted to ``within``
    when given.
    """
    nodes = set(g.adj) if within is None else set(within)
    deg = {v: len(g.adj[v] & nodes) for v in nodes}
    queue = deque(v for v, d in deg.items() if d < k)
    while queue:
        v = queue.popleft()
        if v not in nodes:
            continue
        nodes.discard(v)
        for u in g.adj[v]:
            if u in nodes:
                deg[u] -= 1
                if deg[u] < k:
                    queue.append(u)
    return nodes


def connected_component(
    g: LocalGraph, q: int, within: Optional[Set[int]] = None
) -> Set[int]:
    """BFS component of ``q`` restricted to ``within`` (or all nodes)."""
    nodes = set(g.adj) if within is None else within
    if q not in nodes:
        return set()
    seen = {q}
    queue = deque([q])
    while queue:
        v = queue.popleft()
        for u in g.adj[v]:
            if u in nodes and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def maximal_connected_kcore(
    g: LocalGraph, q: int, k: int, within: Optional[Set[int]] = None
) -> Set[int]:
    """Node set of the maximal connected k-core containing ``q`` (∅ if none).

    Peel to the k-core, then take q's component: inside a component every
    neighbour is in the same component, so degrees are unchanged by the
    restriction and the result is still a k-core.
    """
    core = kcore_nodes(g, k, within)
    if q not in core:
        return set()
    return connected_component(g, q, core)


def _delete_and_restore(
    community: Callable[..., Set[int]],
    g: LocalGraph, state: Set[int], q: int, k: int, v: int,
) -> Tuple[Set[int], List[int]]:
    """Delete ``v`` from ``state`` and keep q's maximal connected community
    (``community`` is :func:`maximal_connected_kcore` or
    :func:`maximal_connected_ktruss`) of what remains.

    States are small, so recomputation beats incremental bookkeeping here.
    """
    nodes = state - {v}
    comp = community(g, q, k, within=nodes)
    return comp, [v, *(nodes - comp)]


def delete_with_kcore_maintenance(
    g: LocalGraph, state: Set[int], q: int, k: int, v: int
) -> Tuple[Set[int], List[int]]:
    """Delete ``v`` from a connected-k-core state and restore the invariant.

    The new state is the maximal connected k-core of ``state − v`` that
    contains q: the cascade of nodes whose degree drops below ``k``, then
    q's component. Returns ``(new_state, removed)`` where ``removed`` lists
    every node that left the state (v first; includes nodes cut off by the
    connectivity restriction, which the duplicate-pruning rule of §IV-B
    must also see). ``new_state`` is ∅ when q itself is removed.
    """
    return _delete_and_restore(maximal_connected_kcore, g, state, q, k, v)


# ---------------------------------------------------------------------------
# Triangles and k-truss
# ---------------------------------------------------------------------------


def ktruss_edges(
    g: LocalGraph, k: int, within: Optional[Set[int]] = None
) -> Set[Tuple[int, int]]:
    """Edges of the maximal k-truss: every edge is in ≥ k−2 triangles.

    Iterative peeling of low-support edges; support is recounted against the
    surviving edge set each round (candidate subgraphs here are small).
    """
    nodes = set(g.adj) if within is None else set(within)
    edges = {(v, u) for v in nodes for u in g.adj[v] if u in nodes and v < u}
    need = max(0, k - 2)
    changed = True
    while changed and edges:
        adj: Dict[int, Set[int]] = {}
        for v, u in edges:
            adj.setdefault(v, set()).add(u)
            adj.setdefault(u, set()).add(v)
        drop = {
            (v, u)
            for v, u in edges
            if len(adj[v] & adj[u]) < need
        }
        changed = bool(drop)
        edges -= drop
    return edges


def maximal_connected_ktruss(
    g: LocalGraph, q: int, k: int, within: Optional[Set[int]] = None
) -> Set[int]:
    """Node set of the connected k-truss community containing ``q``.

    Peels edges to the maximal k-truss, then walks q's component over the
    surviving edges. Returns ∅ when q has no surviving edge.
    """
    adj: Dict[int, Set[int]] = {}
    for v, u in ktruss_edges(g, k, within):
        adj.setdefault(v, set()).add(u)
        adj.setdefault(u, set()).add(v)
    return connected_component(LocalGraph(adj), q)


def delete_with_ktruss_maintenance(
    g: LocalGraph, state: Set[int], q: int, k: int, v: int
) -> Tuple[Set[int], List[int]]:
    """Truss twin of :func:`delete_with_kcore_maintenance`: the new state is
    the connected k-truss of ``state − v`` that contains q."""
    return _delete_and_restore(maximal_connected_ktruss, g, state, q, k, v)
