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
   processed by ascending 2*w(lat) + (k-1)*w(sat).

The spanner is the disjoint union of the five phase edge sets.

Phases 2 and 3 are incremental. After each weight group, phase 2 re-tests
full clustering only for vertices within R - 1 hops of an endpoint of an edge
that joined the thresholded spanner during the group; the test is monotone in
that spanner, so every other vertex keeps its verdict. Phase 3 runs one
Dijkstra per vertex, cut at its largest candidate key, caches the neighbors'
balls, and drops both when it adds an edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial
from typing import Mapping

from .clustering import has_cluster
from .graphs import (
    INF,
    Multigraph,
    PathSeq,
    hop_distance,
    hop_distances,
    weighted_ball,
    weighted_dist,
    weighted_distances,
)
from .greedy import greedy_multiplicative_spanner
from .verify import DEFAULT_CHECK_BUDGET, as_edge_ids, check_budget

__all__ = [
    "SaturationRecord",
    "Phase3Decision",
    "Phase5Addition",
    "WeightedSpannerResult",
    "WeightedBoundReport",
    "build_weighted_spanner",
    "verify_weighted_bound",
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

    @property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edges)

    def phase_sizes(self) -> dict[str, int]:
        return {
            "phase1": len(self.phase1),
            "phase2": len(self.phase2),
            "phase3": len(self.phase3),
            "phase4": len(self.phase4),
            "phase5": len(self.phase5),
        }


def _two_paths(g: Multigraph) -> list[tuple[int, int, int, int, int]]:
    """All unordered 2-paths (x, mid, y, e_xm, e_my) with x < y, ordered by
    (mid, x, y). g must be simple, so each neighbor has one edge id."""
    return [
        (x, mid, y, e1, e2)
        for mid in range(g.n)
        for i, (x, e1) in enumerate(g.adj(mid))
        for y, e2 in g.adj(mid)[i + 1 :]
    ]


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

    # Phase 2: greedy clustering at ascending weight thresholds. The hop and
    # cluster tests run in ``lview``, the current spanner restricted to edges
    # of weight at most the threshold. ``lview`` grows with the threshold:
    # before each weight group the phase-1 edges up to the new threshold join
    # it, and every edge this phase adds joins it at once. After each group
    # only dirty vertices get a fresh cluster test: those within R - 1 hops,
    # in the grown ``lview``, of an endpoint of an edge that joined it during
    # the group (before the first group, every vertex). This is exact because
    # clustering is monotone in ``lview``: a new edge (a, b) can grow B(x, r),
    # r <= R, only if x reaches a or b within r - 1 hops.
    start = sorted(phase1, key=lambda e: (weight(e), e))
    lview = g.view(set())
    pos = 0
    phase2: list[int] = []
    saturated: list[int] = []
    first_clustered: dict[int, float] = {}
    dirty: set[int] = set(range(n))
    idx = 0
    while idx < m:
        omega = weight(order[idx])
        touched: set[int] = set()
        while pos < len(start) and weight(start[pos]) <= omega:
            lview.add((start[pos],))
            touched.update(g.endpoints(start[pos]))
            pos += 1
        while idx < m and weight(order[idx]) == omega:
            eid = order[idx]
            idx += 1
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
    # vertices within it get the same distances. The u-balls are cached per
    # u. An addition changes ``hview`` and drops both.
    n_pow_R = n**R
    n_pow_R1 = n ** (R - 1)
    phase3: list[int] = []
    log3: list[Phase3Decision] = []
    balls_u: dict[int, set[int]] = {}
    for v in range(n):
        cands = sorted(
            ((R - 1) * first_clustered[u] + weight(eid), u, eid)
            for u, eid in g.adj(v)
            if u in first_clustered
        )
        dist_v = None
        for key, u, eid in cands:
            if dist_v is None:
                dist_v = weighted_distances(hview, v, cap=cands[-1][0])
            ball_v = {x for x, d in dist_v.items() if d <= key}
            if len(ball_v) ** k >= n_pow_R:
                log3.append(Phase3Decision(v, u, eid, key, P3_SATURATED))
                continue
            if u not in balls_u:
                balls_u[u] = weighted_ball(hview, u, (R - 1) * first_clustered[u])
            grown = len(balls_u[u] - ball_v)
            if (10 * grown) ** k > n_pow_R1:
                hview.add((eid,))
                phase3.append(eid)
                log3.append(Phase3Decision(v, u, eid, key, P3_ADDED))
                dist_v = None
                balls_u.clear()
            else:
                log3.append(Phase3Decision(v, u, eid, key, P3_CONTAINED))

    # Phase 4: global distance reduction, edges by ascending weight. Balls
    # and distances are hop-based inside ``lview``, which restarts empty and
    # again grows with the threshold: before each edge the spanner edges of
    # phases 1-3 up to its weight join it, and every edge this phase adds
    # joins it at once.
    n_pow_k1 = n ** (k - 1)
    start = sorted(hview.included, key=lambda e: (weight(e), e))
    lview = g.view(set())
    pos = 0

    def reduces_many(a: int, b: int) -> bool:
        ball_a = sorted(hop_distances(lview, a, R - i_odd))
        ball_b = hop_distances(lview, b, R - 1)
        count = 0
        for p in ball_a:
            reach = hop_distances(lview, p, k)
            count += sum(1 for q in ball_b if q not in reach)
            if (10 * count) ** k > n_pow_k1:
                return True
        return False

    phase4: list[int] = []
    log4: list[tuple[int, str]] = []
    for eid in order:
        u, v = g.endpoints(eid)
        omega = weight(eid)
        while pos < len(start) and weight(start[pos]) <= omega:
            lview.add((start[pos],))
            pos += 1
        if hop_distance(lview, u, v, k) <= k:
            continue
        if reduces_many(v, u) or reduces_many(u, v):
            hview.add((eid,))
            lview.add((eid,))
            phase4.append(eid)
            log4.append((eid, P4_ADDED))
        else:
            log4.append((eid, P4_CLOSE))

    # Phase 5: greedy repair of the 2-paths that still miss the bound,
    # by ascending key, re-checked at processing time.
    settled = cache(partial(weighted_distances, hview))
    bad: list[tuple[float, int, int, int, int, int]] = []
    for x, mid, y, e1, e2 in _two_paths(g):
        bound = two_path_bound(weight(e1), weight(e2), k)
        if settled(x).get(y, INF) <= bound * (1 + _REL_EPS):
            continue
        sat_on = [e for e in (e1, e2) if e in sat_set]
        if not sat_on:
            raise RuntimeError(f"unrepaired 2-path ({x},{mid},{y}) has no saturated edge")
        e_sat = max(sat_on, key=lambda e: (weight(e), e))
        e_lat = e2 if e_sat == e1 else e1
        key = 2 * weight(e_lat) + (k - 1) * weight(e_sat)
        bad.append((key, x, mid, y, e_sat, e_lat))
    bad.sort()

    phase5: list[int] = []
    adds5: list[Phase5Addition] = []
    for key, x, mid, y, e_sat, e_lat in bad:
        bound = two_path_bound(weight(e_sat), weight(e_lat), k)
        cap = bound * (1 + _REL_EPS)
        if weighted_dist(hview, x, y, cap=cap) <= cap:
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


@dataclass(frozen=True)
class WeightedBoundReport:
    passed: bool
    worst_ratio: float
    worst_case: tuple[int, ...] | None
    two_paths_checked: int
    sampled_checked: int


def _random_simple_path(g: Multigraph, length: int, rng: random.Random) -> PathSeq | None:
    start = rng.randrange(g.n)
    verts = [start]
    eids = []
    seen = {start}
    cur = start
    for _ in range(length):
        options = [(u, eid) for u, eid in g.adj(cur) if u not in seen]
        if not options:
            return None
        u, eid = rng.choice(options)
        verts.append(u)
        eids.append(eid)
        seen.add(u)
        cur = u
    return PathSeq.from_graph(g, verts, eids)


def verify_weighted_bound(
    g: Multigraph,
    h,
    k: int,
    max_hops: int = 2,
    sample: int = 0,
    seed: int = 0,
    budget: int = DEFAULT_CHECK_BUDGET,
) -> WeightedBoundReport:
    """Check dist_H(x, y) <= w(P) + (2k-2)*w_half(P) over paths of g.

    All 2-paths are checked exhaustively; for each hop length from 3 to
    ``max_hops``, up to ``sample`` random simple paths are drawn from a
    seeded generator. Distances are recomputed from scratch in the candidate
    subgraph. Reports the worst observed ratio of distance to bound. Raises
    ``ValueError`` for ``max_hops < 2`` or ``sample < 0``, and
    ``BudgetExceededError`` before any search when the paths to check exceed
    ``budget``.
    """
    if not g.is_simple():
        raise ValueError("weighted bound verification requires a simple host graph")
    if max_hops < 2 or sample < 0:
        raise ValueError("need max_hops >= 2 and sample >= 0")
    ids = as_edge_ids(g, h)
    two_paths = _two_paths(g)
    check_budget(len(two_paths) + sample * (max_hops - 2), budget)
    settled = cache(partial(weighted_distances, g.view(ids)))
    worst = 0.0
    worst_case: tuple[int, ...] | None = None
    for x, mid, y, e1, e2 in two_paths:
        bound = two_path_bound(g.weight(e1), g.weight(e2), k)
        ratio = settled(x).get(y, INF) / bound
        if ratio > worst:
            worst = ratio
            worst_case = (x, mid, y)
    sampled = 0
    rng = random.Random(seed)
    for length in range(3, max_hops + 1):
        drawn = 0
        attempts = 0
        while drawn < sample and attempts < 20 * max(sample, 1):
            attempts += 1
            p = _random_simple_path(g, length, rng)
            if p is None:
                continue
            drawn += 1
            sampled += 1
            bound = p.w + (2 * k - 2) * p.w_half
            ratio = settled(p.x).get(p.y, INF) / bound
            if ratio > worst:
                worst = ratio
                worst_case = p.vertices
    return WeightedBoundReport(
        passed=worst <= 1 + 1e-9,
        worst_ratio=worst,
        worst_case=worst_case,
        two_paths_checked=len(two_paths),
        sampled_checked=sampled,
    )
