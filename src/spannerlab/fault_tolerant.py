"""Edge-fault-tolerant spanner constructions and blocking-set verification.

The exact construction guards every candidate d-path with a search for a
small fault set that would still separate its endpoints: it peels
edge-disjoint short routes, then branches on the edges of the short routes
that survive partial fault sets. Routes that proved a pair inseparable
answer later candidates with the same endpoints. The polynomial variant
decides by the peel alone. Both emit, per added path, the fault witness that
justified the addition, and ``verify_blocking_set`` replays those witnesses
against the prefix of previously added paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Collection, Iterable, Iterator, Sequence

from .graphs import (
    INF,
    BudgetExceededError,
    Multigraph,
    PathSeq,
    SubgraphView,
    hop_distance,
    hop_distances,
    shortest_path,
)
from .greedy import SpannerResult, _path_union, _result

__all__ = [
    "BlockingRecord",
    "DEFAULT_SUBSET_BUDGET",
    "find_fault_set",
    "eft_greedy_exact",
    "eft_modified_greedy",
    "eft_edge_greedy_2k1",
    "eft_union_spanner",
    "verify_blocking_set",
]

DEFAULT_SUBSET_BUDGET = 5_000_000


@dataclass(frozen=True)
class BlockingRecord:
    """Per added path, the fault witness recorded at addition time."""

    fault_sets: tuple[frozenset[int], ...]


def _lens_candidates(
    view: SubgraphView, x: int, y: int, r: int, banned: frozenset[int]
) -> list[int]:
    """Edges lying on some <= r-hop x-y walk of the view, minus banned ids.

    Every least separating fault set uses only such edges. The count prices
    the search budget: the budget bounds the subsets of these edges that a
    fault set could be drawn from, not the searches actually run.
    """
    dx = hop_distances(view, x, r)
    dy = hop_distances(view, y, r)
    host = view.host
    out = []
    for eid in view.edge_ids():
        if eid in banned:
            continue
        u, v = host.endpoints(eid)
        du, dv = dx.get(u, INF), dx.get(v, INF)
        eu, ev = dy.get(u, INF), dy.get(v, INF)
        if min(du + 1 + ev, dv + 1 + eu) <= r:
            out.append(eid)
    return out


def _peel_disjoint_short_paths(
    view: SubgraphView,
    x: int,
    y: int,
    r: int,
    limit: int,
    protected: frozenset[int],
) -> list[tuple[int, ...]]:
    """Up to ``limit`` x-y paths of length <= r whose non-protected edges
    are pairwise disjoint; protected edges are reusable. Stops after a path
    of protected edges only, which no admissible fault set can cut."""
    removed: set[int] = set()
    routes: list[tuple[int, ...]] = []
    while len(routes) < limit:
        path = shortest_path(view, x, y, r, excluded=removed)
        if path is None:
            break
        routes.append(path)
        fresh = [e for e in path if e not in protected]
        if not fresh:
            break
        removed.update(fresh)
    return routes


def _certified(routes: Sequence[tuple[int, ...]], banned: Collection[int], f: int) -> bool:
    """True when short routes of the view leave their endpoints within r
    under every fault set of at most f edges outside ``banned``: one route
    lies wholly in ``banned``, or f + 1 routes are pairwise disjoint outside
    it, so each fault cuts at most one of them."""
    seen: set[int] = set()
    fresh = 0
    for route in routes:
        outside = [e for e in route if e not in banned]
        if not outside:
            return True
        seen.update(outside)
        fresh += len(outside)
    return len(routes) > f and fresh == len(seen)


def _guard(
    view: SubgraphView, p: PathSeq, r: int, f: int, budget: int
) -> tuple[frozenset[int] | None, list[tuple[int, ...]]]:
    """``find_fault_set``'s answer, plus the routes its peel found."""
    if r < 0 or f < 0:
        raise ValueError("need r >= 0 and f >= 0")
    x, y = p.x, p.y
    banned = frozenset(p.edge_ids)
    routes = _peel_disjoint_short_paths(view, x, y, r, f + 1, banned)
    if not routes:
        return frozenset(), routes
    if _certified(routes, banned, f):
        return None, routes
    cands = _lens_candidates(view, x, y, r, banned)
    total = sum(comb(len(cands), size) for size in range(1, f + 1))
    if total > budget:
        raise BudgetExceededError(
            f"fault-set search needs {total} subsets, budget is {budget}",
            required=total,
        )
    # A separating set that contains a non-separating set T also contains a
    # non-banned edge of the shortest route surviving T. So growing each set
    # of level s-1 by those edges reaches every separating set of size s when
    # none is smaller, and level s holds at most r**s sets, one search each.
    level = {(): routes[0]}
    for _ in range(f):
        grown = {
            tuple(sorted(t + (e,)))
            for t, path in level.items()
            for e in path
            if e not in banned
        }
        level = {}
        for t in sorted(grown):
            survivor = shortest_path(view, x, y, r, excluded=t)
            if survivor is None:
                return frozenset(t), routes
            level[t] = survivor
    return None, routes


def find_fault_set(
    view: SubgraphView,
    p: PathSeq,
    r: int,
    f: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> frozenset[int] | None:
    """First fault set of at most f edge ids (size-then-lexicographic),
    disjoint from p, that pushes the endpoints of p beyond distance r in the
    view, or None. ``frozenset()`` means already beyond r: test ``is not None``.

    The first search of the disjoint-path peel is the far test; f + 1 peeled
    routes answer None. Otherwise the search branches on the edges of short
    surviving routes, at most r**s searches for size s. Raises
    BudgetExceededError when the subsets of the lens edges (those on some
    <= r-hop walk) of size 1..f outnumber ``budget``, however few searches
    the branching would run; it never falls back silently.
    """
    return _guard(view, p, r, f, budget)[0]


def _d_paths(g: Multigraph, d: int) -> Iterator[PathSeq]:
    """All d-paths of g in lexicographic (vertex sequence, edge ids) order,
    endpoints canonicalized to x < y. Supports d in {1, 2}. The ids come from
    ``edge_ids_between``, so the paths are built without re-checking them."""
    if d == 1:
        for x in range(g.n):
            for y in range(x + 1, g.n):
                for eid in g.edge_ids_between(x, y):
                    yield PathSeq((x, y), (eid,), (g.weight(eid),))
    elif d == 2:
        for x in range(g.n):
            for mid, _ in _distinct_neighbors(g, x):
                for y, _ in _distinct_neighbors(g, mid):
                    if y <= x or y == mid:
                        continue
                    for e1 in g.edge_ids_between(x, mid):
                        for e2 in g.edge_ids_between(mid, y):
                            yield PathSeq((x, mid, y), (e1, e2), (g.weight(e1), g.weight(e2)))
    else:
        raise ValueError("only path lengths 1 and 2 are supported")


def _distinct_neighbors(g: Multigraph, v: int) -> list[tuple[int, int]]:
    seen = {}
    for u, eid in g.adj(v):
        if u not in seen:
            seen[u] = eid
    return sorted(seen.items())


def _guarded_greedy(
    g: Multigraph, candidates: Iterable[PathSeq], r: int, f: int, budget: int
) -> tuple[list[PathSeq], list[frozenset[int]]]:
    """Keep each candidate that some admissible fault set still separates
    beyond r in the kept paths; return the kept paths and their witnesses.

    The routes of every None answer are kept per endpoint pair. They stay in
    the kept paths, which only grow, so a later candidate with the same
    endpoints that they certify is rejected without a search."""
    if g.weighted:
        raise ValueError("fault-tolerant constructions expect unweighted graphs")
    hview = g.view(set())
    paths: list[PathSeq] = []
    witnesses: list[frozenset[int]] = []
    certificates: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for p in candidates:
        pair = (p.x, p.y)
        routes = certificates.get(pair)
        if routes is not None and _certified(routes, p.edge_ids, f):
            continue
        fs, routes = _guard(hview, p, r, f, budget)
        if fs is None:
            certificates[pair] = routes
        else:
            hview.add(p.edge_ids)
            paths.append(p)
            witnesses.append(fs)
    return paths, witnesses


def eft_greedy_exact(
    g: Multigraph,
    d: int,
    r: int,
    f: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> tuple[SpannerResult, BlockingRecord]:
    """Exact fault-tolerant greedy: add a d-path whenever some admissible
    fault set still separates its endpoints beyond r."""
    if r < d:
        raise ValueError("r must be at least d")
    paths, witnesses = _guarded_greedy(g, _d_paths(g, d), r, f, budget)
    return (
        _result(g.n, paths, "eft-exact", d=d, r=r, f=f),
        BlockingRecord(tuple(witnesses)),
    )


def eft_modified_greedy(
    g: Multigraph, k: int, f: int
) -> tuple[SpannerResult, BlockingRecord]:
    """Polynomial-time fault-tolerant greedy over 2-paths.

    For each 2-path (x, m, y), edge-disjoint replacement routes are peeled
    out of the spanner built so far: full x-y paths of length <= 2k avoiding
    the candidate's own edge ids, and, when one candidate edge is already
    present, the complementary x-m / m-y legs of length <= 2k-1 (those legs
    complete to short x-y routes through the present edge). The path is
    added iff fewer than f+1 routes exist; the union of the peeled routes is
    the recorded fault witness, of size at most 2kf.
    """
    if k < 1 or f < 0:
        raise ValueError("need k >= 1 and f >= 0")
    if g.weighted:
        raise ValueError("fault-tolerant constructions expect unweighted graphs")
    r = 2 * k
    hview = g.view(set())
    paths: list[PathSeq] = []
    witnesses: list[frozenset[int]] = []
    for p in _d_paths(g, 2):
        e1, e2 = p.edge_ids
        x, mid, y = p.vertices
        present = [e for e in (e1, e2) if e in hview.included]
        if len(present) == 2:
            continue
        banned = frozenset(p.edge_ids)
        removed: set[int] = set()
        routes = 0
        while routes < f + 1:
            excl = banned | removed
            route = shortest_path(hview, x, y, r, excluded=excl)
            if route is None and e1 in hview.included:
                route = shortest_path(hview, mid, y, r - 1, excluded=excl)
            if route is None and e2 in hview.included:
                route = shortest_path(hview, x, mid, r - 1, excluded=excl)
            if route is None:
                break
            removed.update(route)
            routes += 1
        if routes < f + 1:
            hview.add(p.edge_ids)
            paths.append(p)
            witnesses.append(frozenset(removed))
    return (
        _result(g.n, paths, "eft-fast", k=k, r=r, f=f),
        BlockingRecord(tuple(witnesses)),
    )


def eft_edge_greedy_2k1(
    g: Multigraph, k: int, f: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> SpannerResult:
    """Multigraph fault-tolerant greedy over single edges with stretch 2k-1."""
    if k < 1 or f < 0:
        raise ValueError("need k >= 1 and f >= 0")
    r = 2 * k - 1
    edges = (PathSeq(g.endpoints(eid), (eid,), (g.weight(eid),)) for eid in range(g.m))
    paths, _ = _guarded_greedy(g, edges, r, f, budget)
    return _result(g.n, paths, "eft-edge-greedy", k=k, r=r, f=f)


def eft_union_spanner(
    g: Multigraph,
    k: int,
    f: int,
    fast: bool = False,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> SpannerResult:
    """Union of the edge-level and 2-path fault-tolerant greedy spanners:
    an f-EFT (k, k-1) spanner. ``fast`` swaps in the polynomial 2-path
    construction."""
    one = eft_edge_greedy_2k1(g, k, f, budget)
    if fast:
        two, _ = eft_modified_greedy(g, k, f)
    else:
        two, _ = eft_greedy_exact(g, 2, 2 * k, f, budget)
    return _result(g.n, one.paths + two.paths, "eft-union", k=k, f=f, fast=fast, alpha=k, beta=k - 1)


def verify_blocking_set(
    paths: Sequence[PathSeq],
    record: BlockingRecord,
    r: int,
    f: int,
) -> bool:
    """Replay the prefix condition of a blocking record.

    True iff every witness has at most f edges, avoids its own path's edge
    ids, and leaves the path's endpoints at distance > r in the union of all
    previously added paths minus the witness.
    """
    if len(paths) != len(record.fault_sets):
        raise ValueError("record does not align with the path collection")
    n = 1 + max((v for p in paths for v in p.vertices), default=-1)
    union = _path_union(n, paths)
    local_ids: dict[int, list[int]] = {}
    for local, eid in enumerate(e for p in paths for e in p.edge_ids):
        local_ids.setdefault(eid, []).append(local)
    uview = union.view(set())
    start = 0
    for p, faults in zip(paths, record.fault_sets):
        if len(faults) > f:
            return False
        if faults & set(p.edge_ids):
            return False
        # hop_distance rejects a negative cutoff, and every pair is farther
        # apart than a negative r.
        if r >= 0:
            excluded = {local for eid in faults for local in local_ids.get(eid, ())}
            if hop_distance(uview, p.x, p.y, r, excluded=excluded) <= r:
                return False
        uview.add(range(start, start + p.hop_length))
        start += p.hop_length
    return True
