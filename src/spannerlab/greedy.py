"""Unweighted spanner constructions built on the greedy distance test.

Four constructions live here: the pairwise greedy that repairs every pair at
host distance exactly d down to distance <= r, its variant over explicit path
collections, the round-based parallel greedy with matchings, and the
composite that unions two greedy runs into a (k, k-1) spanner. All of them
are deterministic: pairs are scanned in lexicographic order and the repair
path is the lexicographically smallest shortest path under id-sorted
adjacency.

The pairwise greedy tests its pairs one source at a time: one BFS ball of
radius r per source answers every pair of that source until the source adds
a path, after which a miss is re-tested pair by pair (see
``greedy_dr_spanner``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Sequence

from .clustering import cluster_level
from .graphs import (
    Multigraph,
    PathSeq,
    SubgraphView,
    hop_distance,
    hop_distances,
    shortest_path,
    weighted_dist,
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


def pairs_at_distance(g: Multigraph, d: int) -> list[tuple[int, int]]:
    """All pairs (x, y), x < y, at hop distance exactly d, in lex order."""
    full = g.view()
    out: list[tuple[int, int]] = []
    for x in range(g.n):
        dist = hop_distances(full, x, d)
        out.extend((x, y) for y in sorted(dist) if y > x and dist[y] == d)
    return out


def lex_shortest_path(g: Multigraph, x: int, y: int, d: int) -> PathSeq:
    """Lexicographically smallest d-hop shortest path from x to y."""
    eids = shortest_path(g.view(), x, y, d)
    if eids is None or len(eids) != d:
        raise ValueError(f"vertices {x},{y} are not at distance {d}")
    verts = [x]
    for eid in eids:
        a, b = g.endpoints(eid)
        verts.append(b if a == verts[-1] else a)
    return PathSeq.from_graph(g, verts, eids)


def _path_union(n: int, paths: Sequence[PathSeq]) -> Multigraph:
    """Unweighted multigraph with one edge per path edge, in path order, so
    path i owns the contiguous id range after the edges of paths 0..i-1."""
    return Multigraph(n, [(a, b) for p in paths for a, b in zip(p.vertices, p.vertices[1:])])


def _check_distant_half(view: SubgraphView, vertices: tuple[int, ...], r: int) -> None:
    # Any freshly repaired 2-path has one half still far in the pre-addition
    # graph: the halves sum to more than r, so one exceeds r // 2.
    x, mid, y = vertices
    half = r // 2
    a = hop_distance(view, x, mid, half)
    b = hop_distance(view, mid, y, half)
    if a <= half and b <= half:
        raise RuntimeError(f"2-path ({x},{mid},{y}) lost both distant halves")


def greedy_dr_spanner(g: Multigraph, d: int, r: int) -> SpannerResult:
    """Repair every pair at host distance exactly d to distance <= r.

    Pairs are scanned once in lexicographic order; a pair still at distance
    > r in the spanner built so far contributes the lexicographically
    smallest shortest d-path of the host graph.

    Pairs come grouped by their smaller end x. At x's first pair one BFS
    ball of radius r around x is taken in the spanner; a pair whose y lies
    in the ball is served. The ball goes stale once x adds a path, and from
    then on a y outside it is re-tested with its own bidirectional search.
    This is exact: while the scan is at x the spanner changes only through
    x's own additions, so before the first of them the ball is the exact
    cut ball (y outside means distance > r), and after it distances only
    shrink, so y inside still proves distance <= r.
    """
    if g.weighted:
        raise ValueError("greedy_dr_spanner expects an unweighted graph")
    if d < 1 or r < d:
        raise ValueError("need d >= 1 and r >= d")
    hview = g.view(set())
    paths: list[PathSeq] = []
    source, ball, stale = -1, {}, False
    for x, y in pairs_at_distance(g, d):
        if x != source:
            source, ball, stale = x, hop_distances(hview, x, r), False
        if y in ball or (stale and hop_distance(hview, x, y, r) <= r):
            continue
        p = lex_shortest_path(g, x, y, d)
        if d == 2:
            _check_distant_half(hview, p.vertices, r)
        hview.add(p.edge_ids)
        paths.append(p)
        stale = True
    return _result(g.n, paths, "greedy-dr", d=d, r=r)


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
            if p.hop_length == 2:
                _check_distant_half(uview, p.vertices, r)
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
    Bit j of ``busy[v]`` records that round j already uses v.
    """
    busy = [0] * g.n
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
        for eid in ids:
            if not 0 <= eid < g.m:
                raise ValueError(f"edge id {eid} not in graph")
            u, v = g.endpoints(eid)
            if u in used or v in used:
                clash = u if u in used else v
                raise ValueError(f"round {rnd} is not a matching: vertex {clash} repeats")
            used.update((u, v))
        passing = [
            eid
            for eid in ids
            if hop_distance(hview, *g.endpoints(eid), threshold) > threshold
        ]
        for eid in passing:
            u, v = g.endpoints(eid)
            lu = cluster_level(hview, u, k)
            lv = cluster_level(hview, v, k)
            orientation[eid] = u if (lu, u) <= (lv, v) else v
        hview.add(passing)
        rounds_added.append(tuple(passing))
        paths.extend(PathSeq.from_graph(g, g.endpoints(eid), (eid,)) for eid in passing)
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
    each edge whose endpoints are farther than t times its weight."""
    if t < 1:
        raise ValueError("stretch must be at least 1")
    hview = g.view(set())
    paths: list[PathSeq] = []
    order = sorted(range(g.m), key=lambda e: (g.weight(e), e))
    for eid in order:
        u, v = g.endpoints(eid)
        cap = t * g.weight(eid)
        if weighted_dist(hview, u, v, cap=cap) > cap:
            hview.add((eid,))
            paths.append(PathSeq.from_graph(g, (u, v), (eid,)))
    return _result(g.n, paths, "greedy-multiplicative", t=t)
