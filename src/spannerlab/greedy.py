"""Unweighted spanner constructions built on the greedy distance test.

Four constructions live here: the pairwise greedy that repairs every pair at
host distance exactly d down to distance <= r, its variant over explicit path
collections, the round-based parallel greedy with matchings, and the
composite that unions two greedy runs into a (k, k-1) spanner. All of them
are deterministic: pairs are scanned in lexicographic order and the repair
path is the lexicographically smallest shortest path under id-sorted
adjacency.

The pairwise greedy works one source at a time: one host BFS per source
gives both its pairs and their repair paths, and one BFS ball of radius r in
the spanner answers every pair of that source until the source adds a path,
after which a miss is re-tested pair by pair (see ``greedy_dr_spanner``).
Each construction keeps its spanner as one view; its hop tests run on the
view's neighbor masks whenever the view keeps them. The pairwise greedy on
masks searches only masks, so it grows a copy of the empty view's table.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from math import isqrt
from operator import or_
from typing import Iterable, Sequence

from .clustering import cluster_level
from .graphs import (
    Multigraph,
    PathSeq,
    SubgraphView,
    bfs_layers,
    hop_distance,
    hop_distances,
    hop_layers,
    layer_path,
    mask_distance,
    neighbor_masks,
    tree_path,
    weighted_distances,
)

__all__ = [
    "PathCollection",
    "SpannerResult",
    "greedy_dr_spanner",
    "greedy_path_collection_spanner",
    "parallel_greedy_spanner",
    "sqrt_k_spanner",
    "union_hybrid_spanner",
    "greedy_multiplicative_spanner",
    "matching_rounds",
    "sqrt_k_stretch",
]


@dataclass(frozen=True)
class PathCollection:
    """Ordered collection of equal-hop-length paths over n vertices."""

    n: int
    paths: tuple[PathSeq, ...]

    def __post_init__(self):
        if not self.paths:
            return
        d = self.paths[0].hop_length
        for p in self.paths:
            if p.hop_length != d:
                raise ValueError("all paths must share one hop length")
            if len(set(p.vertices)) != len(p.vertices):
                raise ValueError("path vertices must be pairwise distinct")
            if any(not 0 <= v < self.n for v in p.vertices):
                raise ValueError("path vertex outside collection range")


@dataclass(frozen=True)
class SpannerResult:
    """Edge-id subset of a host graph plus construction provenance."""

    n: int
    edges: tuple[int, ...]
    paths: tuple[PathSeq, ...]
    algorithm: str
    meta: dict = field(default_factory=dict)

    @property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edges)


def _result(n: int, paths: Sequence[PathSeq], algorithm: str, **meta) -> SpannerResult:
    ids: set[int] = set()
    for p in paths:
        ids.update(p.edge_ids)
    return SpannerResult(n, tuple(sorted(ids)), tuple(paths), algorithm, dict(meta))


def _path_union(n: int, paths: Sequence[PathSeq]) -> Multigraph:
    """Unweighted multigraph with one edge per path edge, in path order, so
    path i owns the contiguous id range after the edges of paths 0..i-1."""
    return Multigraph(n, [(a, b) for p in paths for a, b in zip(p.vertices, p.vertices[1:])])


def greedy_dr_spanner(g: Multigraph, d: int, r: int) -> SpannerResult:
    """Repair every pair at host distance exactly d to distance <= r.

    Pairs are scanned once in lexicographic order; a pair still at distance
    > r in the spanner built so far contributes the lexicographically
    smallest shortest d-path of the host graph.

    Per source x (only vertices with an edge have pairs) one host BFS cut
    at d gives x's pairs: the layer d hops out. For x's first pair one BFS
    ball of radius r around x is taken in the spanner; a pair whose y lies
    in the ball is served. The ball goes stale once x adds a path, and from
    then on a y outside it is re-tested with its own bidirectional search.
    This is exact: while the scan is at x the spanner changes only through
    x's own additions, so before the first of them the ball is the exact
    cut ball (y outside means distance > r), and after it distances only
    shrink, so y inside still proves distance <= r.

    When the spanner's view keeps neighbor masks the searches run on masks
    over vertex ranks (``_greedy_dr_masks``), else on the views' adjacency
    (``_greedy_dr_trees``); both add the same paths.
    """
    if g.weighted:
        raise ValueError("greedy_dr_spanner expects an unweighted graph")
    if d < 1 or r < d:
        raise ValueError("need d >= 1 and r >= d")
    hview = g.view(set())
    grow = _greedy_dr_trees if hview.masks is None else _greedy_dr_masks
    return _result(g.n, grow(g, hview, d, r), "greedy-dr", d=d, r=r)


def _greedy_dr_trees(g: Multigraph, hview: SubgraphView, d: int, r: int) -> list[PathSeq]:
    """The pairwise greedy on views. x's host BFS records its tree, and the
    tree path to y is the repair path, since parents are set at discovery
    and a search stopped at y would have set the same ones."""
    full = g.view()
    paths: list[PathSeq] = []
    for x in g.vertices_with_edges():
        tree: dict[int, int] = {}
        layers = list(bfs_layers(full, x, d, tree=tree))
        # a search that ran out before d has nothing exactly d away
        far = sorted(y for y in layers[-1] if y > x) if len(layers) == d else []
        if not far:
            continue
        ball, stale = hop_distances(hview, x, r), False
        for y in far:
            if y in ball or (stale and hop_distance(hview, x, y, r) <= r):
                continue
            p = PathSeq.from_edges(g, x, tree_path(g, tree, y))
            hview.add(p.edge_ids)
            paths.append(p)
            stale = True
    return paths


def _greedy_dr_masks(g: Multigraph, hview: SubgraphView, d: int, r: int) -> list[PathSeq]:
    """The pairwise greedy on neighbor masks. Ranks follow vertex order, so
    x's pairs are the bits of its host layer d above its own rank, taken
    lowest first. The repair path is ``layer_path``, the lex-first one the
    host BFS tree gives, and its edge ids are the lowest ones, as the tree's
    (neighbor, id) scan picks. The spanner is a copy of the empty view's
    table, grown two bits per path edge; the view stays empty, since no
    search here reads its dicts."""
    gmasks, hmasks = neighbor_masks(g.view()), list(hview.masks)
    verts = g.vertices_with_edges()
    paths: list[PathSeq] = []
    for i in range(len(verts)):
        layers = hop_layers(gmasks, i, d)
        # a search that ran out before d has nothing exactly d away
        far = layers[d] & (-1 << (i + 1)) if len(layers) > d else 0
        if not far:
            continue
        ball, stale = reduce(or_, hop_layers(hmasks, i, r)), False
        while far:
            low = far & -far
            far ^= low
            j = low.bit_length() - 1
            if ball & low or (stale and mask_distance(hmasks, i, j, r) <= r):
                continue
            ranks = layer_path(gmasks, layers, j)
            for a, b in zip(ranks, ranks[1:]):
                hmasks[a] |= 1 << b
                hmasks[b] |= 1 << a
            paths.append(PathSeq.from_graph(g, [verts[t] for t in ranks]))
            stale = True
    return paths


def greedy_path_collection_spanner(coll: PathCollection, r: int) -> SpannerResult:
    """Greedy pass over an explicit path collection.

    Each path is kept iff its endpoints are still at distance > r in the
    union of previously kept paths.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    union = _path_union(coll.n, coll.paths)
    uview = union.view(set())
    kept: list[PathSeq] = []
    start = 0
    for p in coll.paths:
        if hop_distance(uview, p.x, p.y, r) > r:
            uview.add(range(start, start + p.hop_length))
            kept.append(p)
        start += p.hop_length
    return _result(coll.n, kept, "greedy-paths", r=r, offered=len(coll.paths))


def matching_rounds(g: Multigraph) -> list[tuple[int, ...]]:
    """Greedy matching decomposition of the edge set, scanning ids in order.

    Each round collects the maximal matching formed by taking every remaining
    edge whose endpoints are still free in that round. Deterministic, and on
    dimension-ordered hypercube edge lists it recovers the dimension
    matchings exactly.

    One pass: each edge, in id order, joins the first round free at both of
    its endpoints, which is the round the round-by-round rescan gives it.
    Bit j of ``busy[v]`` records that round j already uses v; only vertices
    with an edge get an entry, so the cost follows m, not n.
    """
    busy: defaultdict[int, int] = defaultdict(int)
    rounds: list[list[int]] = []
    for eid in range(g.m):
        u, v = g.endpoints(eid)
        used = busy[u] | busy[v]
        j = (~used & (used + 1)).bit_length() - 1  # lowest clear bit
        busy[u] |= 1 << j
        busy[v] |= 1 << j
        if j == len(rounds):
            rounds.append([])
        rounds[j].append(eid)
    return [tuple(r) for r in rounds]


def parallel_greedy_spanner(
    g: Multigraph, k: int, matchings: Sequence[Iterable[int]]
) -> SpannerResult:
    """Round-based greedy: every edge of a round tests distance > 2k-1
    against the spanner as it stood before the round, and all passing edges
    join together.

    Each round must be a matching in g. The result records, per added edge,
    an orientation toward the endpoint whose cluster level was lower in the
    pre-round spanner (ties toward the smaller id); in-degrees under this
    orientation witness the arboricity bound.

    The spanner is one view: the distance test is ``hop_distance`` on it,
    on its neighbor masks when it keeps them, and the cluster levels are
    read from it.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    threshold = 2 * k - 1
    hview = g.view(set())
    orientation: dict[int, int] = {}
    rounds_added: list[tuple[int, ...]] = []
    paths: list[PathSeq] = []
    for rnd, matching in enumerate(matchings):
        ids = sorted(matching)
        used: set[int] = set()
        ends = []
        for eid in ids:
            if not 0 <= eid < g.m:
                raise ValueError(f"edge id {eid} not in graph")
            u, v = g.endpoints(eid)
            if u in used or v in used:
                clash = u if u in used else v
                raise ValueError(f"round {rnd} is not a matching: vertex {clash} repeats")
            used.update((u, v))
            ends.append((u, v))
        passing = [eid for eid, (u, v) in zip(ids, ends) if hop_distance(hview, u, v, threshold) > threshold]
        for eid in passing:
            u, v = g.endpoints(eid)
            lu = cluster_level(hview, u, k)
            lv = cluster_level(hview, v, k)
            orientation[eid] = u if (lu, u) <= (lv, v) else v
            paths.append(PathSeq.from_edges(g, u, (eid,)))
        hview.add(passing)
        rounds_added.append(tuple(passing))
    return _result(
        g.n,
        paths,
        "parallel-greedy",
        k=k,
        rounds=rounds_added,
        orientation=orientation,
    )


def sqrt_k_stretch(k: int) -> tuple[int, int]:
    """Hop length and stretch target (d, r) of the sqrt-k construction."""
    d = isqrt(k)
    if d * d < k:
        d += 1
    return d, 4 * d * d + 2 * (2 * d - 1) * d


def sqrt_k_spanner(g: Multigraph, k: int) -> SpannerResult:
    """Greedy repair of pairs at distance ceil(sqrt(k)) down to O(k)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    d, r = sqrt_k_stretch(k)
    return _result(g.n, greedy_dr_spanner(g, d, r).paths, "sqrt-k", k=k, d=d, r=r)


def union_hybrid_spanner(g: Multigraph, k: int) -> SpannerResult:
    """Union of the 1 -> 2k-1 and 2 -> 2k greedy runs: a (k, k-1) spanner."""
    if k < 1:
        raise ValueError("k must be at least 1")
    one = greedy_dr_spanner(g, 1, 2 * k - 1)
    two = greedy_dr_spanner(g, 2, 2 * k)
    parts = ["greedy-dr:1", "greedy-dr:2"]
    return _result(g.n, one.paths + two.paths, "union-hybrid", k=k, alpha=k, beta=k - 1, parts=parts)


def greedy_multiplicative_spanner(g: Multigraph, t: float) -> SpannerResult:
    """Classic greedy t-spanner: scan edges by ascending (weight, id) and add
    each edge whose endpoints are farther than t times its weight.

    The distance test reuses searches across edges (the FG-greedy of Farshi
    and Gudmundsson). Every edge (u, v) is tested from its first endpoint u.
    Per u one Dijkstra in the spanner, cut at t times the largest weight of
    an edge whose first endpoint is u, is kept as a map restricted to the far
    ends of those edges, tagged with the number of edges added when it was
    taken. For an edge (u, v, w):

    - v within t*w in the map: reject. The spanner only grows, and the path
      the map saw still sums to the same float, so a fresh search finds v
      within t*w too;
    - else, if nothing was added since the map was taken, add: a larger cut
      and no target leave every distance up to t*w as a fresh search has it;
    - else take a fresh map for u and decide by it.

    Only far ends are kept, so the maps hold O(m) entries in all.
    """
    if not t >= 1:  # also NaN, which every comparison fails
        raise ValueError("stretch must be at least 1")
    hview = g.view(set())
    paths: list[PathSeq] = []
    far: defaultdict[int, list[int]] = defaultdict(list)
    top: dict[int, float] = {}
    for eid in range(g.m):
        u, v = g.endpoints(eid)
        far[u].append(v)
        top[u] = max(top.get(u, 0.0), g.weight(eid))
    maps: dict[int, tuple[int, dict[int, float]]] = {}  # u -> (tag, map)
    order = sorted(range(g.m), key=lambda e: (g.weight(e), e))
    for eid in order:
        u, v = g.endpoints(eid)
        cap = t * g.weight(eid)
        tag, dist = maps.get(u, (-1, {}))
        # an unreached v never passes, not even a cap that overflows to inf
        if v in dist and dist[v] <= cap:
            continue
        if tag != len(paths):
            reached = weighted_distances(hview, u, cap=t * top[u])
            dist = {x: reached[x] for x in far[u] if x in reached}
            maps[u] = (len(paths), dist)
            if v in dist and dist[v] <= cap:
                continue
        hview.add((eid,))
        paths.append(PathSeq.from_edges(g, u, (eid,)))
    return _result(g.n, paths, "greedy-multiplicative", t=t)
