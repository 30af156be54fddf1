"""Five-phase weighted spanner with per-2-path stretch w(P) + (2k-2)*w_max(P).

The construction layers five deterministic passes over a simple weighted
graph, each with its own scan order:

1. a classic greedy (2k-1)-spanner (ascending weight, tie by id);
2. greedy clustering over all edges by ascending weight, testing hop
   distance and full clustering inside the weight-thresholded spanner; edges
   that passed the distance test but had both endpoints fully clustered are
   recorded as *saturated*;
3. per-vertex lateral clustering: each vertex considers its fully clustered
   neighbors by ascending key (R-1)*w_u + w(v,u) and buys the edge when the
   neighbor's ball adds enough new vertices to its own;
4. global distance reduction: saturated-style edges are re-offered when they
   would shrink many inter-ball distances below k hops;
5. a final greedy repair over the 2-paths that still violate the bound,
   processed by ascending 2*w(lat) + (k-1)*w(sat). Only the open 2-paths
   are searched: neither edge kept by phases 1-4 and one edge saturated.
   Phases 1 and 2 already give every other 2-path its bound (see
   ``_open_two_paths``), and one Dijkstra per source, cut at its largest
   bound and stopped once the far ends of its open 2-paths have settled,
   tests them all.

The spanner is the disjoint union of the five phase edge sets.

Phases 2 and 4 walk phase 1's edge order, (weight, id), one weight group at
a time. At the start of a group, the group's edges that the spanner held
when the phase began join the thresholded spanner, before any edge of the
group is tested: an edge of weight w is tested with every such edge of
weight <= w, ties included. An edge a phase adds joins at once and counts
for the rest of its group.

Phases 1-3 are incremental. Phase 1 tests each edge from its first
endpoint u with the last Dijkstra map of u, kept at the far ends of u's
edges, and searches afresh only when that map is stale and does not reject
the edge (see ``greedy_multiplicative_spanner``). After each weight group,
phase 2 re-tests full clustering only for vertices within R - 1 hops of an
endpoint of an edge that joined the thresholded spanner during the group; the
test is monotone in that spanner, so every other vertex keeps its verdict.
Phase 3 runs one Dijkstra per vertex, cut at its largest candidate key and
stopped after T settled vertices, the least T with T**k >= n**R, and drops
it when it adds an edge. Any ball of T vertices saturates a candidate, so a
ball cut there gives every verdict a full one gives.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from typing import Mapping

from .clustering import has_cluster, least_ball_sizes
from .graphs import (
    INF,
    Multigraph,
    PathSeq,
    hop_distance,
    hop_distances,
    two_paths,
    weighted_ball,
    weighted_dist,
    weighted_distances,
)
from .greedy import greedy_multiplicative_spanner

__all__ = [
    "SaturationRecord",
    "Phase3Decision",
    "Phase5Addition",
    "WeightedSpannerResult",
    "build_weighted_spanner",
    "two_path_bound",
]

P3_ADDED = "added"
P3_SATURATED = "saturated-candidate"
P3_CONTAINED = "roughly-contained"
P4_ADDED = "added"
P4_CLOSE = "roughly-close-clusters"

# Equal-weight paths can overshoot the bound by float-sum ulps; distances
# within this relative slack count as meeting it.
_REL_EPS = 1e-12


def two_path_bound(w1: float, w2: float, k: int) -> float:
    return w1 + w2 + (2 * k - 2) * max(w1, w2)


@dataclass(frozen=True)
class SaturationRecord:
    """Saturated edge ids plus, per vertex, the least weight threshold at
    which it was first seen fully clustered (absent if never)."""

    saturated: frozenset[int]
    thresholds: Mapping[int, float]


@dataclass(frozen=True)
class Phase3Decision:
    vertex: int
    neighbor: int
    edge_id: int
    key: float
    verdict: str


@dataclass(frozen=True)
class Phase5Addition:
    path: PathSeq
    sat_edge: int
    lat_edge: int
    key: float


@dataclass(frozen=True)
class WeightedSpannerResult:
    n: int
    k: int
    phase1: tuple[int, ...]
    phase2: tuple[int, ...]
    phase3: tuple[int, ...]
    phase4: tuple[int, ...]
    phase5: tuple[int, ...]
    saturation: SaturationRecord
    phase3_log: tuple[Phase3Decision, ...]
    phase4_log: tuple[tuple[int, str], ...]
    phase5_paths: tuple[Phase5Addition, ...]

    @property
    def edges(self) -> tuple[int, ...]:
        return tuple(
            sorted(
                set(self.phase1)
                | set(self.phase2)
                | set(self.phase3)
                | set(self.phase4)
                | set(self.phase5)
            )
        )


def build_weighted_spanner(g: Multigraph, k: int) -> WeightedSpannerResult:
    """Run the five phases on a simple positively weighted graph."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if not g.is_simple():
        raise ValueError("weighted construction requires a simple graph")
    n, m = g.n, g.m
    R, i_odd = (k + 1) // 2, k % 2  # growth radius ceil(k/2); 2*R - i_odd == k
    weight = g.weight
    order = sorted(range(m), key=lambda e: (weight(e), e))

    # Phase 1: multiplicative baseline.
    phase1 = tuple(greedy_multiplicative_spanner(g, 2 * k - 1).edges)
    hview = g.view(phase1)

    # Phase 2: greedy clustering at ascending weight thresholds, one weight
    # group at a time. The hop and cluster tests run in ``lview``, the current
    # spanner restricted to edges of weight at most the threshold. ``lview``
    # grows with the threshold: at the start of each group all of the group's
    # phase-1 edges join it, before any edge of the group is tested, and every
    # edge this phase adds joins it at once. After each group only dirty
    # vertices get a fresh cluster test: those within R - 1 hops, in the grown
    # ``lview``, of an endpoint of an edge that joined it during the group
    # (before the first group, every vertex with an edge). This is exact
    # because clustering is monotone in ``lview``: a new edge (a, b) can grow
    # B(x, r), r <= R, only if x reaches a or b within r - 1 hops. An isolated
    # vertex is never clustered: for n >= 2 its balls have size 1 < n**(r/k),
    # and m = 0 when n <= 1.
    kept = frozenset(phase1)
    lview = g.view(set())
    phase2: list[int] = []
    saturated: list[int] = []
    first_clustered: dict[int, float] = {}
    dirty: set[int] = set(g.vertices_with_edges())
    for omega, group in groupby(order, key=weight):
        group = list(group)
        joined = [eid for eid in group if eid in kept]
        lview.add(joined)
        touched = {x for eid in joined for x in g.endpoints(eid)}
        for eid in group:
            u, v = g.endpoints(eid)
            if hop_distance(lview, u, v, k) <= k:
                continue
            if has_cluster(lview, u, R, k) and has_cluster(lview, v, R, k):
                saturated.append(eid)
            else:
                hview.add((eid,))
                lview.add((eid,))
                touched.update((u, v))
                phase2.append(eid)
        for a in touched:
            dirty.update(hop_distances(lview, a, R - 1))
        for v in dirty:
            if v not in first_clustered and has_cluster(lview, v, R, k):
                first_clustered[v] = omega
        dirty.clear()
    sat_set = frozenset(saturated)

    # Phase 3: lateral clustering, vertices in ascending id, candidates in
    # ascending (key, neighbor id). Balls are weighted and unthresholded. Per
    # vertex one Dijkstra, cut at its largest key, gives every candidate's
    # ball: a larger cap makes the same pushes at or below a key, so the
    # vertices within it get the same distances. An addition changes
    # ``hview`` and drops it. An isolated vertex has no candidates.
    # The Dijkstra also stops after ``full`` settled vertices, the least ball
    # size that saturates a candidate (full**k >= n**R). Weights are positive,
    # so vertices settle in nondecreasing distance: if the last of ``full``
    # settled is within a key, the candidate is saturated either way, and if
    # it is not, or fewer settled, the ball within the key is complete.
    # No ball of v is built: ``dist_v`` is filled in settle order, so the
    # size of v's ball within a key is a ``bisect_right`` over its values,
    # and when that size does not saturate, the ball is complete, so a
    # vertex of u's ball is new exactly when ``dist_v`` lacks it or holds it
    # beyond the key (a key can overflow to inf, so "lacks" is tested apart).
    n_pow_R1 = n ** (R - 1)
    full = least_ball_sizes(n, k, R)[R]
    phase3: list[int] = []
    log3: list[Phase3Decision] = []
    for v in g.vertices_with_edges():
        cands = sorted(
            ((R - 1) * first_clustered[u] + weight(eid), u, eid)
            for u, eid in g.adj(v)
            if u in first_clustered
        )
        dist_v = None
        for key, u, eid in cands:
            if dist_v is None:
                dist_v = weighted_distances(hview, v, cap=cands[-1][0], limit=full)
                settle_order = list(dist_v.values())
            if bisect_right(settle_order, key) >= full:
                log3.append(Phase3Decision(v, u, eid, key, P3_SATURATED))
                continue
            ball_u = weighted_ball(hview, u, (R - 1) * first_clustered[u])
            grown = sum(1 for x in ball_u if x not in dist_v or dist_v[x] > key)
            if (10 * grown) ** k > n_pow_R1:
                hview.add((eid,))
                phase3.append(eid)
                log3.append(Phase3Decision(v, u, eid, key, P3_ADDED))
                dist_v = None
            else:
                log3.append(Phase3Decision(v, u, eid, key, P3_CONTAINED))

    # Phase 4: global distance reduction, one weight group at a time. Balls
    # and distances are hop-based inside ``lview``, which restarts empty and
    # again grows with the threshold: at the start of each group the group's
    # edges of phases 1-3 join it, before any edge of the group is tested,
    # and every edge this phase adds joins it at once.
    n_pow_k1 = n ** (k - 1)
    kept = frozenset(hview.included)
    lview = g.view(set())

    def reduces_many(a: int, b: int) -> bool:
        ball_a = sorted(hop_distances(lview, a, R - i_odd))
        ball_b = hop_distances(lview, b, R - 1)
        count = 0
        for p in ball_a:
            count += len(ball_b.keys() - hop_distances(lview, p, k).keys())
            if (10 * count) ** k > n_pow_k1:
                return True
        return False

    phase4: list[int] = []
    log4: list[tuple[int, str]] = []
    for _, group in groupby(order, key=weight):
        group = list(group)
        lview.add(eid for eid in group if eid in kept)
        for eid in group:
            u, v = g.endpoints(eid)
            if hop_distance(lview, u, v, k) <= k:
                continue
            if reduces_many(v, u) or reduces_many(u, v):
                hview.add((eid,))
                lview.add((eid,))
                phase4.append(eid)
                log4.append((eid, P4_ADDED))
            else:
                log4.append((eid, P4_CLOSE))

    # Phase 5: greedy repair of the 2-paths that still miss the bound, by
    # ascending key, re-checked at processing time. Only the open 2-paths
    # (see ``_open_two_paths``) can miss it. They are grouped by x, and one
    # Dijkstra per x, cut at the largest slack bound of its 2-paths and
    # stopped once all their far ends have settled, tests them all: a larger
    # cut makes the same pushes at or below a bound, so every distance
    # within a bound is the one an uncut search gives.
    bad: list[tuple[float, int, int, int, int, int]] = []
    for x, paths in _open_two_paths(g, hview.included, sat_set, k).items():
        cap = max(bound for *_, bound in paths) * (1 + _REL_EPS)
        dist = weighted_distances(hview, x, cap=cap, targets={y for _, y, *_ in paths})
        for mid, y, e1, e2, bound in paths:
            if y in dist and dist[y] <= bound * (1 + _REL_EPS):
                continue
            e_sat = max((e for e in (e1, e2) if e in sat_set), key=lambda e: (weight(e), e))
            e_lat = e2 if e_sat == e1 else e1
            key = 2 * weight(e_lat) + (k - 1) * weight(e_sat)
            bad.append((key, x, mid, y, e_sat, e_lat))
    bad.sort()

    phase5: list[int] = []
    adds5: list[Phase5Addition] = []
    for key, x, mid, y, e_sat, e_lat in bad:
        bound = two_path_bound(weight(e_sat), weight(e_lat), k)
        cap = bound * (1 + _REL_EPS)
        if weighted_dist(hview, x, y, cap=cap) < INF:  # reached within the cap
            continue
        for eid in (e_sat, e_lat):
            if eid in hview.included:
                raise RuntimeError(f"repair path edge {eid} already present")
            hview.add((eid,))
            phase5.append(eid)
        adds5.append(
            Phase5Addition(PathSeq.from_graph(g, (x, mid, y)), e_sat, e_lat, key)
        )

    return WeightedSpannerResult(
        n=n,
        k=k,
        phase1=phase1,
        phase2=tuple(phase2),
        phase3=tuple(phase3),
        phase4=tuple(phase4),
        phase5=tuple(phase5),
        saturation=SaturationRecord(sat_set, dict(sorted(first_clustered.items()))),
        phase3_log=tuple(log3),
        phase4_log=tuple(log4),
        phase5_paths=tuple(adds5),
    )


def _open_two_paths(
    g: Multigraph, spanner: set[int], sat_set: frozenset[int], k: int
) -> dict[int, list[tuple[int, int, int, int, float]]]:
    """The 2-paths (x, mid, y, e1, e2) that phase 5 must test, as
    x -> [(mid, y, e1, e2, bound)]: those with neither
    edge in ``spanner``, the spanner of phases 1-4, and at least one edge in
    ``sat_set``. Every other 2-path meets its bound B = w1 + w2 +
    (2k - 2) * max(w1, w2) there already:

    - one edge in the spanner, say e1: phase 1 leaves each edge a path of
      weight at most (2k - 1) times its own, so d(x, y) <= w1 + (2k - 1) * w2
      <= B;
    - neither edge saturated: phase 2 skipped each edge only after its hop
      test found a path of at most k edges, each no heavier than the edge,
      so d(x, y) <= k * w1 + k * w2 <= B, as (k - 1)(w1 + w2) <= (2k - 2) *
      max(w1, w2).

    In floats, Dijkstra's value at y is at most the float sum along any x-y
    path taken edge by edge, and each addition, like each of the few
    operations giving B, is off by at most a relative 2**-53. Phase 2's
    paths have at most 2k edges, and phase 1 tested its path's float sum
    against (2k - 1) * w; a simple path has fewer edges than the host has
    vertices, so the gap stays inside the ``_REL_EPS`` slack of phase 5 on
    any host of fewer than about 4,000 vertices, and beyond that only
    thousands of roundings all one way could cross it.
    """
    weight = g.weight
    open_paths: dict[int, list[tuple[int, int, int, int, float]]] = {}
    for x, mid, y, e1, e2 in two_paths(g):
        if e1 in spanner or e2 in spanner or (e1 not in sat_set and e2 not in sat_set):
            continue
        bound = two_path_bound(weight(e1), weight(e2), k)
        open_paths.setdefault(x, []).append((mid, y, e1, e2, bound))
    return open_paths
