"""Multigraph substrate: stable edge ids, subgraph views, truncated searches.

Every construction in this package works on subgraphs of a fixed host graph,
identified by edge-id subsets. The host graph is immutable. A subgraph view
owns its edge-id subset and keeps its own (neighbor, id)-sorted adjacency,
so a spanner under construction is one view that grows through
``SubgraphView.add``. The kernels below answer bounded-radius hop/weighted
distance, lexicographic shortest path, ball and girth queries by scanning
only the view's edges. This module holds every graph search in the package;
other modules read adjacency lists only to enumerate neighbors, never to
search.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Collection, Iterable, Iterator

INF = math.inf

__all__ = [
    "INF",
    "BudgetExceededError",
    "EdgeRecord",
    "Multigraph",
    "SubgraphView",
    "PathSeq",
    "hop_distance",
    "hop_distances",
    "shortest_path",
    "weighted_dist",
    "weighted_distances",
    "weighted_ball",
    "girth",
]


class BudgetExceededError(RuntimeError):
    """A combinatorial search would exceed its configured budget."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


@dataclass(frozen=True)
class EdgeRecord:
    id: int
    u: int
    v: int
    weight: float


class Multigraph:
    """Undirected multigraph with vertices 0..n-1 and edge ids 0..m-1.

    Parallel edges are allowed (same endpoints, distinct ids); self-loops are
    rejected. Weights are strictly positive when ``weighted`` is set and are
    exactly 1.0 otherwise. Edge ids are assigned in input order and stay
    stable under subgraph views. Instances are immutable and safe to share
    across threads.
    """

    __slots__ = ("n", "weighted", "_us", "_vs", "_ws", "_adj", "_pair_ids")

    def __init__(self, n: int, edges: Iterable = (), weighted: bool = False):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self.weighted = weighted
        us: list[int] = []
        vs: list[int] = []
        ws: list[float] = []
        for item in edges:
            if len(item) == 2:
                u, v = item
                w = 1.0
            else:
                u, v, w = item
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if weighted:
                if not (w > 0 and math.isfinite(w)):
                    raise ValueError(f"edge ({u},{v}) has non-positive-finite weight {w}")
            elif w != 1.0:
                raise ValueError("unweighted graph requires weight exactly 1")
            us.append(u)
            vs.append(v)
            ws.append(w)
        self._us = tuple(us)
        self._vs = tuple(vs)
        self._ws = tuple(ws)
        # a file may declare many isolated vertices: they share () instead of a list
        adj: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
        pair_ids: dict[tuple[int, int], list[int]] = {}
        for eid in range(len(us)):
            a, b = us[eid], vs[eid]
            adj[a].append((b, eid))
            adj[b].append((a, eid))
            pair_ids.setdefault((min(a, b), max(a, b)), []).append(eid)
        self._adj = tuple(tuple(sorted(adj[v])) if v in adj else () for v in range(n))
        self._pair_ids = {p: tuple(ids) for p, ids in pair_ids.items()}

    @property
    def m(self) -> int:
        return len(self._us)

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self._us[eid], self._vs[eid]

    def weight(self, eid: int) -> float:
        return self._ws[eid]

    def edges(self) -> Iterator[EdgeRecord]:
        for eid in range(self.m):
            yield EdgeRecord(eid, self._us[eid], self._vs[eid], self._ws[eid])

    def adj(self, v: int) -> tuple[tuple[int, int], ...]:
        """Neighbors of v as (neighbor, edge id) pairs, sorted ascending."""
        return self._adj[v]

    def edge_ids_between(self, u: int, v: int) -> tuple[int, ...]:
        return self._pair_ids.get((min(u, v), max(u, v)), ())

    def is_simple(self) -> bool:
        return all(len(ids) == 1 for ids in self._pair_ids.values())

    def view(self, included: Iterable[int] | None = None) -> "SubgraphView":
        return SubgraphView(self, included)

    def __repr__(self) -> str:
        kind = "weighted " if self.weighted else ""
        return f"Multigraph({kind}n={self.n}, m={self.m})"


class _ViewAdjacency(dict):
    """vertex -> [(neighbor, edge id), ...]; a vertex with no view edges
    reads ``()`` without getting an entry."""

    def __missing__(self, v: int) -> tuple:
        return ()


class SubgraphView:
    """Restriction of a host graph to an edge-id subset.

    ``included=None`` means all host edges, searched through the host's own
    adjacency. Otherwise the view copies the ids into a set of its own and
    keeps, per endpoint, the view edges in the host's (neighbor, id) order,
    so searches scan only view edges and still pick lexicographically
    smallest parents. Changing the collection passed in does not change the
    view: a view grows only through ``add``, and ``included`` is read-only.
    """

    __slots__ = ("host", "included", "_adj")

    def __init__(self, host: Multigraph, included: Iterable[int] | None = None):
        self.host = host
        if included is None:
            self.included: set[int] | None = None
            self._adj = host._adj
        else:
            self.included = set()
            self._adj = _ViewAdjacency()
            self.add(included)

    def add(self, eids: Iterable[int]) -> None:
        """Add host edge ids to the view, skipping ids already in it. Every
        id is checked before the view changes."""
        eids = list(eids)
        m = self.host.m
        for eid in eids:
            if not (0 <= eid < m):
                raise ValueError(f"edge id {eid} not in host graph")
        included = self.included
        if included is None:
            return
        us, vs, adj = self.host._us, self.host._vs, self._adj
        for eid in eids:
            if eid in included:
                continue
            included.add(eid)
            u, v = us[eid], vs[eid]
            insort(adj.setdefault(u, []), (v, eid))
            insort(adj.setdefault(v, []), (u, eid))

    def edge_ids(self) -> Iterator[int]:
        """Edge ids of the view, ascending."""
        if self.included is None:
            yield from range(self.host.m)
        else:
            yield from sorted(self.included)


@dataclass(frozen=True)
class PathSeq:
    """A concrete path: vertex sequence plus the edge ids joining it.

    ``weights[i]`` is the weight of ``edge_ids[i]``; the aggregates used by
    the weighted stretch bound (the total, and the sum of the largest
    ceil(len/2) weights) are derived properties.
    """

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.edge_ids) + 1:
            raise ValueError("path needs exactly one more vertex than edge")
        if len(self.weights) != len(self.edge_ids):
            raise ValueError("one weight per edge required")

    @classmethod
    def from_graph(
        cls,
        g: Multigraph,
        vertices: Iterable[int],
        edge_ids: Iterable[int] | None = None,
    ) -> "PathSeq":
        """Build a path in g, resolving lowest-id edges when ids are omitted."""
        verts = tuple(int(v) for v in vertices)
        if edge_ids is None:
            eids = []
            for a, b in zip(verts, verts[1:]):
                cands = g.edge_ids_between(a, b)
                if not cands:
                    raise ValueError(f"no edge between {a} and {b}")
                eids.append(cands[0])
            eids = tuple(eids)
        else:
            eids = tuple(int(e) for e in edge_ids)
            for (a, b), eid in zip(zip(verts, verts[1:]), eids):
                ends = g.endpoints(eid)
                if {a, b} != set(ends):
                    raise ValueError(f"edge {eid} does not join {a} and {b}")
        return cls(verts, eids, tuple(g.weight(e) for e in eids))

    @property
    def hop_length(self) -> int:
        return len(self.edge_ids)

    @property
    def x(self) -> int:
        return self.vertices[0]

    @property
    def y(self) -> int:
        return self.vertices[-1]

    @property
    def w(self) -> float:
        return sum(self.weights)

    @property
    def w_half(self) -> float:
        """Sum of the ceil(hop_length/2) largest edge weights."""
        top = (self.hop_length + 1) // 2
        return sum(sorted(self.weights, reverse=True)[:top])


def _check_vertex(g: Multigraph, v: int) -> None:
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} not in graph with n={g.n}")


def hop_distance(
    view: SubgraphView,
    x: int,
    y: int,
    cutoff: int,
    excluded: Collection[int] = frozenset(),
) -> float:
    """Exact hop distance between x and y if it is <= cutoff, else INF.

    ``excluded`` edge ids are treated as absent. Implemented as bidirectional
    layered BFS, so the cost is governed by the cutoff, not the graph size.
    """
    host = view.host
    _check_vertex(host, x)
    _check_vertex(host, y)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if x == y:
        return 0
    adj = view._adj
    excl = excluded if excluded else None

    dist_a: dict[int, int] = {x: 0}
    dist_b: dict[int, int] = {y: 0}
    frontier_a = [x]
    frontier_b = [y]
    depth_a = depth_b = 0
    best = INF
    while (
        frontier_a
        and frontier_b
        and depth_a + depth_b < cutoff
        and best > depth_a + depth_b + 1
    ):
        if len(frontier_a) <= len(frontier_b):
            frontier, seen, other = frontier_a, dist_a, dist_b
            depth_a += 1
            depth = depth_a
            from_a = True
        else:
            frontier, seen, other = frontier_b, dist_b, dist_a
            depth_b += 1
            depth = depth_b
            from_a = False
        nxt: list[int] = []
        for v in frontier:
            for u, eid in adj[v]:
                if u in seen:
                    continue
                if excl is not None and eid in excl:
                    continue
                seen[u] = depth
                o = other.get(u)
                if o is not None and depth + o < best:
                    best = depth + o
                nxt.append(u)
        if from_a:
            frontier_a = nxt
        else:
            frontier_b = nxt
    return best if best <= cutoff else INF


def hop_distances(
    view: SubgraphView,
    source: int,
    cutoff: int,
    excluded: Collection[int] = frozenset(),
) -> dict[int, int]:
    """Hop distances from source to everything within cutoff hops."""
    host = view.host
    _check_vertex(host, source)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    adj = view._adj
    excl = excluded if excluded else None
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and depth < cutoff:
        depth += 1
        nxt: list[int] = []
        for v in frontier:
            for u, eid in adj[v]:
                if u in dist:
                    continue
                if excl is not None and eid in excl:
                    continue
                dist[u] = depth
                nxt.append(u)
        frontier = nxt
    return dist


def shortest_path(
    view: SubgraphView,
    x: int,
    y: int,
    cutoff: int,
    excluded: Collection[int] = frozenset(),
) -> tuple[int, ...] | None:
    """Edge ids of one shortest x-y path of hop length <= cutoff, or None.

    Parent choices follow the (neighbor, id)-sorted adjacency, so the
    returned path is the lexicographically smallest shortest one. The search
    stops in the middle of a layer as soon as y is reached.
    """
    host = view.host
    _check_vertex(host, x)
    _check_vertex(host, y)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if x == y:
        return ()
    adj = view._adj
    excl = excluded if excluded else None
    parent: dict[int, tuple[int, int]] = {x: (-1, -1)}
    frontier = [x]
    depth = 0
    found = False
    while frontier and depth < cutoff and not found:
        depth += 1
        nxt: list[int] = []
        for v in frontier:
            for u, eid in adj[v]:
                if u in parent:
                    continue
                if excl is not None and eid in excl:
                    continue
                parent[u] = (v, eid)
                if u == y:
                    found = True
                    break
                nxt.append(u)
            if found:
                break
        frontier = nxt
    if not found:
        return None
    eids: list[int] = []
    cur = y
    while cur != x:
        prev, eid = parent[cur]
        eids.append(eid)
        cur = prev
    return tuple(reversed(eids))


def _dijkstra(
    view: SubgraphView,
    source: int,
    cap: float | None,
    excluded: Collection[int],
    target: int | None = None,
) -> dict[int, float]:
    """Settled Dijkstra distances from source, pruned at ``cap`` when given;
    the search stops as soon as ``target`` is settled."""
    adj = view._adj
    ws = view.host._ws
    excl = excluded if excluded else None
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        if v == target:
            break
        for u, eid in adj[v]:
            if u in dist:
                continue
            if excl is not None and eid in excl:
                continue
            nd = d + ws[eid]
            if cap is not None and nd > cap:
                continue
            heappush(heap, (nd, u))
    return dist


def weighted_distances(
    view: SubgraphView,
    source: int,
    cap: float | None = None,
    excluded: Collection[int] = frozenset(),
) -> dict[int, float]:
    """Dijkstra distances from source, pruned at ``cap`` when given."""
    _check_vertex(view.host, source)
    return _dijkstra(view, source, cap, excluded)


def weighted_dist(
    view: SubgraphView,
    x: int,
    y: int,
    cap: float | None = None,
    excluded: Collection[int] = frozenset(),
) -> float:
    """Weighted distance from x to y if <= cap (when given), else INF."""
    _check_vertex(view.host, x)
    _check_vertex(view.host, y)
    return _dijkstra(view, x, cap, excluded, y).get(y, INF)


def weighted_ball(view: SubgraphView, v: int, radius: float) -> set[int]:
    """Vertices within weighted distance ``radius`` of v (contains v)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return set(weighted_distances(view, v, cap=radius))


def girth(view: SubgraphView) -> float:
    """Length of the shortest cycle in the view; INF for forests.

    A parallel edge pair forms a cycle of length 2. Computed by checking, for
    each edge, the shortest detour between its endpoints with the edge itself
    removed; only detours short enough to improve the running best are
    explored.
    """
    host = view.host
    best = INF
    for eid in view.edge_ids():
        u, v = host.endpoints(eid)
        limit = host.n if math.isinf(best) else int(best) - 2
        if limit < 1:
            break
        d = hop_distance(view, u, v, limit, excluded=(eid,))
        if d + 1 < best:
            best = d + 1
    return best
