"""Multigraph substrate: stable edge ids, subgraph views, truncated searches.

Every construction in this package works on subgraphs of a fixed host graph,
identified by edge-id subsets. The host graph is immutable. A subgraph view
owns its edge-id subset and keeps its own (neighbor, id)-sorted adjacency,
so a spanner under construction is one view that grows through
``SubgraphView.add``. Four loops do all the searching over a view's edges:

- ``_grow`` takes one BFS layer and records a mark per vertex reached: the
  depth for ``hop_distances``, else the edge that reached it, which gives
  ``tree_path`` the lex-first BFS tree of ``bfs_layers`` and
  ``shortest_path``; it can stop mid-layer;
- ``_reach`` ORs the neighbor masks of a set of ranks, the one step of every
  search over int bitmasks: ``hop_layers`` and ``layer_sizes`` over
  ``neighbor_masks``, the bidirectional ``mask_distance`` and the lex-first
  ``layer_path``;
- ``block_layers`` steps the BFS of a block of source ranks at once over
  ``rank_neighbors``: entry v of its layer table holds the sources whose
  layer holds rank v, and a step ORs the entries of v's neighbors;
- ``weighted_distances`` is the Dijkstra.

A view built from an id subset on a host within ``MASK_RULE`` also keeps
its ``neighbor_masks``, and ``hop_distance`` and ``layer_sizes`` search them
whenever no edge is excluded. No other module names the rule.

This module is the only one that reads graph internals; others read
adjacency lists only to enumerate neighbors, never to search.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from itertools import count
from operator import or_, xor
from typing import Collection, Iterable, Iterator

INF = math.inf

__all__ = [
    "INF",
    "BudgetExceededError",
    "EdgeRecord",
    "Multigraph",
    "SubgraphView",
    "PathSeq",
    "two_paths",
    "hop_distance",
    "hop_distances",
    "bfs_layers",
    "layer_sizes",
    "tree_path",
    "tree_edges",
    "MASK_RULE",
    "neighbor_masks",
    "hop_layers",
    "SOURCE_BLOCK",
    "rank_neighbors",
    "block_layers",
    "mask_distance",
    "layer_path",
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


class _Adjacency(dict):
    """vertex -> (neighbor, edge id) pairs in (neighbor, id) order; a vertex
    with no edges reads ``()`` without getting an entry, so a graph or view
    costs memory per edge, not per vertex."""

    def __missing__(self, v: int) -> tuple:
        return ()


class Multigraph:
    """Undirected multigraph with vertices 0..n-1 and edge ids 0..m-1.

    Parallel edges are allowed (same endpoints, distinct ids); self-loops are
    rejected. Weights are strictly positive when ``weighted`` is set and are
    exactly 1.0 otherwise. Edge ids are assigned in input order and stay
    stable under subgraph views. Instances are immutable and safe to share
    across threads.
    """

    __slots__ = ("n", "weighted", "_us", "_vs", "_ws", "_adj", "_rank")

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
        self._index(us, vs, ws)

    @classmethod
    def _from_checked(
        cls, n: int, us: list[int], vs: list[int], ws: list[float], weighted: bool
    ) -> "Multigraph":
        """The graph ``cls(n, zip(us, vs, ws), weighted)`` builds, from edge
        lists the caller has already checked as ``__init__`` does: ints in
        range, no self-loop, floats that are 1.0 or, when weighted, positive
        and finite."""
        g = cls.__new__(cls)
        g.n = n
        g.weighted = weighted
        g._index(us, vs, ws)
        return g

    def _index(self, us: list[int], vs: list[int], ws: list[float]) -> None:
        """Store the edge lists, build the adjacency, and rank the vertices
        with an edge in ascending order (``_rank``), the order of every mask
        and rank table."""
        self._us = tuple(us)
        self._vs = tuple(vs)
        self._ws = tuple(ws)
        adj: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
        for eid, a, b in zip(count(), us, vs):
            adj[a].append((b, eid))
            adj[b].append((a, eid))
        self._adj = _Adjacency((v, tuple(sorted(nbrs))) for v, nbrs in adj.items())
        self._rank = {v: i for i, v in enumerate(sorted(adj))}

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

    def vertices_with_edges(self) -> list[int]:
        """Vertices with an edge, ascending: the i-th has rank i."""
        return list(self._rank)

    def adj(self, v: int) -> tuple[tuple[int, int], ...]:
        """Neighbors of v as (neighbor, edge id) pairs, sorted ascending."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} not in graph with n={self.n}")
        return self._adj[v]

    def edge_ids_between(self, u: int, v: int) -> tuple[int, ...]:
        """Ids of the edges joining u and v, ascending: the run of v in u's
        (neighbor, id)-sorted adjacency."""
        nbrs = self._adj[u]
        i = bisect_left(nbrs, (v,))
        return tuple(eid for _, eid in nbrs[i : bisect_left(nbrs, (v + 1,), i)])

    def is_simple(self) -> bool:
        """No two edges join the same pair: no adjacency repeats a neighbor."""
        return all(len(dict(nbrs)) == len(nbrs) for nbrs in self._adj.values())

    def view(self, included: Iterable[int] | None = None) -> "SubgraphView":
        return SubgraphView(self, included)

    def __repr__(self) -> str:
        kind = "weighted " if self.weighted else ""
        return f"Multigraph({kind}n={self.n}, m={self.m})"


# Mask tables run on a host whose N vertices with an edge have
# N * N <= MASK_RULE * m, so each table takes at most MASK_RULE / 8 = 128
# bytes per host edge. Past it the dict searches run: they are the only ones
# that fit in memory on a large sparse host.
MASK_RULE = 1024

# verify's fault-free pass runs block_layers on this many sources at once.
# It holds four tables (a layer and a ball per side) of an int of up to
# SOURCE_BLOCK bits per rank, 72 bytes an entry at 256. A star on 6,000
# vertices then peaks at 3.9 MB, under N**2 / 8
# (test_mask_pass_memory_is_linear_in_vertices_with_edges); at 512 it peaks
# at 5.5 MB, past N**2 / 8, and at 128 at the same 3.9 MB in twice the steps.
SOURCE_BLOCK = 256


class SubgraphView:
    """Restriction of a host graph to an edge-id subset.

    ``included=None`` means all host edges, searched through the host's own
    adjacency. Otherwise the view copies the ids into a set of its own and
    keeps, per endpoint, the view edges in the host's (neighbor, id) order,
    so searches scan only view edges and still pick lexicographically
    smallest parents. Changing the collection passed in does not change the
    view: a view grows only through ``add``, and ``included`` is read-only.

    Such a view also keeps ``masks``, its ``neighbor_masks`` over the
    host's ranks, when the host's N vertices with an edge have
    N * N <= MASK_RULE * m; otherwise, and for ``included=None``, it is None.
    """

    __slots__ = ("host", "included", "masks", "_adj")

    def __init__(self, host: Multigraph, included: Iterable[int] | None = None):
        self.host = host
        self.masks = None
        if included is None:
            self.included: set[int] | None = None
            self._adj = host._adj
            return
        n_ranks = len(host._rank)
        if n_ranks * n_ranks <= MASK_RULE * host.m:
            self.masks = [0] * n_ranks
        self.included = set()
        self._adj = _Adjacency()
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
        us, vs, adj, masks, rank = self.host._us, self.host._vs, self._adj, self.masks, self.host._rank
        for eid in eids:
            if eid in included:
                continue
            included.add(eid)
            u, v = us[eid], vs[eid]
            insort(adj.setdefault(u, []), (v, eid))
            insort(adj.setdefault(v, []), (u, eid))
            if masks is not None:
                i, j = rank[u], rank[v]
                masks[i] |= 1 << j
                masks[j] |= 1 << i

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


def two_paths(g: Multigraph) -> list[tuple[int, int, int, int, int]]:
    """All 2-paths (x, mid, y, e_xm, e_my) with x < y, ordered by
    (mid, x, e_xm, y, e_my). Only vertices with an edge are walked, and two
    edges to the same neighbor form no 2-path."""
    out = []
    for mid in g.vertices_with_edges():
        nbrs = g.adj(mid)
        for i, (x, e1) in enumerate(nbrs):
            out.extend((x, mid, y, e1, e2) for y, e2 in nbrs[i + 1 :] if y != x)
    return out


def _check_vertex(g: Multigraph, v: int, cutoff: int = 0) -> None:
    """Reject a vertex outside g, then a negative search cutoff."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} not in graph with n={g.n}")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")


def _grow(adj, frontier: list[int], seen: dict, mark, excl, stop: int = -1) -> list[int]:
    """The next BFS layer after ``frontier``: every neighbor not yet in
    ``seen``, over edges whose id is not in ``excl``, in discovery order.
    Each is recorded in ``seen`` with ``mark``, or with the id of the edge
    that reached it when ``mark`` is None. Reaching ``stop`` (by default -1,
    never a vertex) ends the search there and returns the empty list."""
    nxt: list[int] = []
    for v in frontier:
        for u, eid in adj[v]:
            if u in seen:
                continue
            if excl is not None and eid in excl:
                continue
            seen[u] = eid if mark is None else mark
            if u == stop:
                return []
            nxt.append(u)
    return nxt


def hop_distance(
    view: SubgraphView,
    x: int,
    y: int,
    cutoff: int,
    excluded: Collection[int] = frozenset(),
) -> float:
    """Exact hop distance between x and y if it is <= cutoff, else INF.

    ``excluded`` edge ids are treated as absent. The search grows a ball
    around each end, one layer at a time, the side with the smaller frontier
    first, so the cost is governed by the cutoff, not the graph size. While
    the ball of radius a around x and the ball of radius b around y are
    disjoint, d(x, y) > a + b. So the first new layer that meets the other
    ball puts the ends exactly a + b + 1 apart, and a side that runs dry
    has walked its whole component without meeting the other end. With no
    edge excluded, a view that keeps masks runs ``mask_distance`` on them.
    """
    if view.masks is not None and not excluded:
        i, j = view.host._rank.get(x), view.host._rank.get(y)
        # ranked ends are vertices, and mask_distance checks the cutoff
        if i is not None and j is not None:
            return mask_distance(view.masks, i, j, cutoff)
    _check_vertex(view.host, x)
    _check_vertex(view.host, y, cutoff)
    if x == y:
        return 0
    adj = view._adj
    excl = excluded if excluded else None
    # front and ball are the side grown next; the balls are dicts for _grow,
    # their values (edge ids) unused
    front, ball, other_front, other_ball = [x], {x: None}, [y], {y: None}
    for hops in range(1, cutoff + 1):
        if len(front) > len(other_front):
            front, ball, other_front, other_ball = other_front, other_ball, front, ball
        front = _grow(adj, front, ball, None, excl)
        if not front:
            return INF
        if not other_ball.keys().isdisjoint(front):
            return hops
    return INF


def hop_distances(
    view: SubgraphView,
    source: int,
    cutoff: int,
    excluded: Collection[int] = frozenset(),
) -> dict[int, int]:
    """Hop distances from source to everything within cutoff hops."""
    _check_vertex(view.host, source, cutoff)
    adj = view._adj
    excl = excluded if excluded else None
    dist = {source: 0}
    frontier = [source]
    for depth in range(1, cutoff + 1):
        frontier = _grow(adj, frontier, dist, depth, excl)
        if not frontier:
            break
    return dist


def bfs_layers(
    view: SubgraphView,
    source: int,
    cutoff: int,
    excluded: Collection[int] = frozenset(),
    tree: dict[int, int] | None = None,
) -> Iterator[list[int]]:
    """Breadth-first layers around source: the vertices exactly 1, 2, ...
    hops away, each in discovery order, up to ``cutoff`` hops or the last
    nonempty layer. A layer is searched only when the consumer asks for it.

    ``tree``, when given, must be empty; it receives the parent edge id of
    every vertex reached, in discovery order, with -1 for the source. The
    scan follows the (neighbor, id)-sorted adjacency and a parent is set once,
    at discovery, so ``tree_path`` gives the lexicographically smallest
    shortest path to each vertex.
    """
    _check_vertex(view.host, source, cutoff)
    seen = {} if tree is None else tree
    seen[source] = -1
    adj, excl = view._adj, excluded if excluded else None

    def layers(frontier: list[int]) -> Iterator[list[int]]:
        for _ in range(cutoff):
            frontier = _grow(adj, frontier, seen, None, excl)
            if not frontier:
                return
            yield frontier

    return layers([source])


def layer_sizes(view: SubgraphView, source: int, cutoff: int) -> Iterator[int]:
    """Sizes of the ``bfs_layers`` of source, each layer searched only when
    the consumer asks for it: bit counts of mask layers when the view keeps
    masks, lengths of the dict layers otherwise."""
    if view.masks is None:
        return map(len, bfs_layers(view, source, cutoff))
    _check_vertex(view.host, source, cutoff)
    i = view.host._rank.get(source)
    return iter(()) if i is None else map(int.bit_count, _mask_layers(view.masks, i, cutoff))


def tree_path(g: Multigraph, tree: dict[int, int], y: int) -> tuple[int, ...]:
    """Edge ids of the path from the root of a ``bfs_layers`` tree to y, a
    vertex the tree reached."""
    us, vs = g._us, g._vs
    eids: list[int] = []
    eid = tree[y]
    while eid >= 0:
        eids.append(eid)
        y = us[eid] if vs[eid] == y else vs[eid]
        eid = tree[y]
    eids.reverse()
    return tuple(eids)


def tree_edges(view: SubgraphView, dist: dict[int, float], hops: bool) -> set[int]:
    """One tight parent edge per vertex of ``dist`` but the source: the first
    (neighbor, id) in the view's adjacency with ``dist[u] + w == dist[v]``,
    where w is 1 when ``hops`` is set and the edge's weight otherwise. ``dist``
    is a map of ``hop_distances`` or ``weighted_distances``, which fill it in
    settle order. Only a u settled before v may be its parent, so the edges
    form a tree even where a tiny weight is absorbed by a large distance."""
    adj = view._adj
    ws = None if hops else view.host._ws
    settled: set[int] = set()
    tree: set[int] = set()
    for v, dv in dist.items():
        for u, eid in adj[v]:
            if u in settled and dist[u] + (1 if ws is None else ws[eid]) == dv:
                tree.add(eid)
                break
        settled.add(v)
    return tree


def neighbor_masks(view: SubgraphView) -> list[int]:
    """Neighbor bitmasks of a view over host ranks: rank i is the i-th vertex
    of ``view.host.vertices_with_edges()``, and bit j of entry i is set when
    the view joins ranks i and j. Parallel edges set one bit. A mask is as
    wide as its highest neighbor rank, so the table costs at most N²/8 bytes
    for the N vertices with an edge, whatever the vertex header."""
    rank = view.host._rank
    masks = [0] * len(rank)
    for v, nbrs in view._adj.items():
        mask = 0
        for u, _ in nbrs:
            mask |= 1 << rank[u]
        masks[rank[v]] = mask
    return masks


def _reach(masks: list[int], bits: int) -> int:
    """The union of the masks of the ranks set in ``bits``: one OR per rank."""
    out = 0
    while bits:
        low = bits & -bits
        out |= masks[low.bit_length() - 1]
        bits ^= low
    return out


def hop_layers(masks: list[int], source: int, cutoff: int) -> list[int]:
    """Breadth-first layers of a source rank over ``neighbor_masks``: bit j
    of entry d is set when rank j is exactly d hops from ``source``. A layer
    is the union of the masks of the one before, minus what was seen, so it
    costs one OR per frontier vertex. The list stops after ``cutoff`` hops
    or at the last nonempty layer."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    return [1 << source, *_mask_layers(masks, source, cutoff)]


def _mask_layers(masks: list[int], source: int, cutoff: int) -> Iterator[int]:
    """The layers of ``hop_layers`` after the source's, each taken when the
    consumer asks for it."""
    frontier = seen = 1 << source
    for _ in range(cutoff):
        frontier = _reach(masks, frontier) & ~seen
        if not frontier:
            return
        seen |= frontier
        yield frontier


def rank_neighbors(g: Multigraph, included: Collection[int] | None = None) -> list[tuple[int, ...]]:
    """Neighbor ranks over the edge ids ``included`` of g, or over all of
    them when it is None: entry i holds, ascending and once each, the ranks
    joined to rank i, the i-th vertex of ``g.vertices_with_edges()``. It is
    read off the host's adjacency with no view built, so it costs one slot
    per kept edge end."""
    rank, adj = g._rank, g._adj
    get = rank.__getitem__
    if included is None:
        return [tuple(map(get, dict(adj[v]))) for v in rank]
    return [tuple(map(get, dict.fromkeys(u for u, eid in adj[v] if eid in included))) for v in rank]


def block_layers(nbrs: list[tuple[int, ...]], first: int, count: int) -> Iterator[tuple[list[int], list[int]]]:
    """Breadth-first layers of the source ranks first, ..., first + count - 1
    at once over ``rank_neighbors`` (multi-source BFS: Then et al., *The
    More the Merrier*, PVLDB 2014). Bit s of entry v of the hop-t layer
    table is set when rank v is exactly t hops from rank first + s, and of
    the ball table when it is at most t hops away. Yields (layer, ball) for
    t = 0, 1, ... up to the last nonempty layer, each step taken when the
    consumer asks for it; a yielded table is never changed. A step costs
    one OR per adjacency entry: entry v of the next layer is the union of
    its neighbors' entries, minus v's ball. A rank whose ball already holds
    the whole block can gain nothing, so it is not stepped: on a host of
    long diameter most ranks are full long before the last layer."""
    layer = [0] * len(nbrs)
    for s in range(count):
        layer[first + s] = 1 << s
    ball = layer
    full = (1 << count) - 1
    while True:
        yield layer, ball
        get = layer.__getitem__
        # v's ball with its neighbors' layer entries ORed in, then v's old
        # ball cleared from it
        seen = [own if own == full else reduce(or_, map(get, near), own) for near, own in zip(nbrs, ball)]
        layer = list(map(xor, seen, ball))
        if not any(layer):
            return
        ball = seen


def mask_distance(masks: list[int], i: int, j: int, cutoff: int) -> float:
    """``hop_distance`` between ranks i and j over neighbor masks: exact if
    it is <= cutoff, else INF. Each side grows as a seen mask, the smaller
    frontier first, and the first new layer that meets the other side's
    seen mask puts the ends exactly the hops taken apart (the argument of
    ``hop_distance``)."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if i == j:
        return 0
    front, seen, other_front, other_seen = 1 << i, 1 << i, 1 << j, 1 << j
    for hops in range(1, cutoff + 1):
        if front.bit_count() > other_front.bit_count():
            front, seen, other_front, other_seen = other_front, other_seen, front, seen
        front = _reach(masks, front) & ~seen
        if not front:
            return INF
        if front & other_seen:
            return hops
        seen |= front
    return INF


def layer_path(masks: list[int], layers: list[int], target: int) -> list[int]:
    """Ranks of the lexicographically smallest shortest path from the source
    of ``hop_layers`` ``layers`` to ``target``, a rank in its last layer.

    Walking back from the target, ``on[t]`` keeps the ranks of layer t next
    to ``on[t + 1]``: exactly those on some shortest path to the target.
    Walking forward, each step takes the lowest such neighbor, which gives
    the smallest vertex sequence; it is the ``bfs_layers`` tree path, whose
    parents come first in a discovery order that follows these sequences."""
    on = layers[:]
    on[-1] = 1 << target
    for t in range(len(on) - 2, 0, -1):
        on[t] &= _reach(masks, on[t + 1])
    cur = layers[0].bit_length() - 1
    path = [cur]
    for bits in on[1:]:
        step = bits & masks[cur]
        cur = (step & -step).bit_length() - 1
        path.append(cur)
    return path


def shortest_path(
    view: SubgraphView,
    x: int,
    y: int,
    cutoff: int,
    excluded: Collection[int] = frozenset(),
) -> tuple[int, ...] | None:
    """Edge ids of one shortest x-y path of hop length <= cutoff, or None.

    Its ``_grow`` steps record the edge that reached each vertex, as
    ``bfs_layers`` does, so the path is the lex-first BFS tree path: the
    lexicographically smallest shortest one. The search stops in the middle
    of a layer as soon as y is reached; every parent set by then is the one
    the full search sets.
    """
    _check_vertex(view.host, y)
    _check_vertex(view.host, x, cutoff)
    if x == y:
        return ()
    adj, excl = view._adj, excluded if excluded else None
    frontier, tree = [x], {x: -1}
    for _ in range(cutoff):
        frontier = _grow(adj, frontier, tree, None, excl, y)
        if not frontier:
            break
    return tree_path(view.host, tree, y) if y in tree else None


def weighted_distances(
    view: SubgraphView,
    source: int,
    cap: float | None = None,
    excluded: Collection[int] = frozenset(),
    limit: int | None = None,
    targets: Collection[int] = (),
) -> dict[int, float]:
    """Dijkstra distances from source, pruned at ``cap`` when given. With
    ``limit`` the search stops after that many settled vertices: weights are
    positive, so they are the ``limit`` nearest in settle order. With
    ``targets`` it stops once all of them are settled, so the map is the
    full one cut right after the last target; a target never reached lets
    the search run to ``cap``. The map is filled in settle order, so its
    values are nondecreasing."""
    _check_vertex(view.host, source)
    for t in targets:
        _check_vertex(view.host, t)
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    adj = view._adj
    ws = view.host._ws
    excl = excluded if excluded else None
    # the per-vertex stop tests stay cheap: with no targets ``pending`` is
    # the empty tuple, whose membership test is cheaper than an int compare,
    # and an int sentinel that never matches stands for no limit (``dist``
    # is never empty when it is tested)
    pending = set(targets) if targets else ()
    stop_size = 0 if limit is None else limit
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        if v in pending:
            pending.remove(v)
            if not pending:
                break
        if len(dist) == stop_size:
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


def weighted_dist(
    view: SubgraphView,
    x: int,
    y: int,
    cap: float | None = None,
    excluded: Collection[int] = frozenset(),
) -> float:
    """Weighted distance from x to y if <= cap (when given), else INF."""
    return weighted_distances(view, x, cap, excluded, targets=(y,)).get(y, INF)


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
