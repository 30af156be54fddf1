"""Edge-fault-tolerant spanner constructions and blocking-set verification.

The exact construction guards every candidate d-path with a search for a
small fault set that would still separate its endpoints; the polynomial
variant replaces that search by peeling edge-disjoint short replacement
paths. Both emit, per added path, the fault witness that justified the
addition, and ``verify_blocking_set`` replays those witnesses against the
prefix of previously added paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

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
    "FaultSet",
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
class FaultSet:
    """An admissible fault pattern: at most ``f`` edge ids."""

    edges: frozenset[int]
    f: int

    def __post_init__(self):
        if len(self.edges) > self.f:
            raise ValueError("fault set exceeds its bound")


@dataclass(frozen=True)
class BlockingRecord:
    """Per added path, the fault witness recorded at addition time."""

    fault_sets: tuple[frozenset[int], ...]


def _lens_candidates(
    view: SubgraphView, x: int, y: int, r: int, banned: frozenset[int]
) -> list[int]:
    """Edges lying on some <= r-hop x-y walk of the view, minus banned ids.

    Any minimal separating fault set uses only such edges, so restricting the
    subset enumeration to them preserves both completeness and the
    size-then-lexicographic order of the first valid hit.
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
) -> int:
    """Count up to ``limit`` x-y paths of length <= r whose non-protected
    edges are pairwise disjoint; protected edges are reusable."""
    removed: set[int] = set()
    count = 0
    while count < limit:
        path = shortest_path(view, x, y, r, excluded=removed)
        if path is None:
            return count
        fresh = [e for e in path if e not in protected]
        if not fresh:
            # A path of protected edges only survives every admissible fault
            # set, so the endpoints are inseparable.
            return limit
        removed.update(fresh)
        count += 1
    return count


def find_fault_set(
    view: SubgraphView,
    p: PathSeq,
    r: int,
    f: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> FaultSet | None:
    """First fault set (size-then-lexicographic) disjoint from p that pushes
    the endpoints of p beyond distance r in the view, or None.

    Raises BudgetExceededError when the subset enumeration would exceed
    ``budget`` tested subsets; it never falls back silently.
    """
    if f < 0:
        raise ValueError("f must be nonnegative")
    x, y = p.x, p.y
    banned = frozenset(p.edge_ids)
    if hop_distance(view, x, y, r) > r:
        return FaultSet(frozenset(), f)
    if f == 0:
        return None
    if _peel_disjoint_short_paths(view, x, y, r, f + 1, banned) >= f + 1:
        return None
    cands = _lens_candidates(view, x, y, r, banned)
    total = sum(comb(len(cands), size) for size in range(1, f + 1))
    if total > budget:
        raise BudgetExceededError(
            f"fault-set search needs {total} subsets, budget is {budget}",
            required=total,
        )
    for size in range(1, f + 1):
        for combo in combinations(cands, size):
            if hop_distance(view, x, y, r, excluded=combo) > r:
                return FaultSet(frozenset(combo), f)
    return None


def _d_paths(g: Multigraph, d: int) -> Iterator[PathSeq]:
    """All d-paths of g in lexicographic (vertex sequence, edge ids) order,
    endpoints canonicalized to x < y. Supports d in {1, 2}."""
    if d == 1:
        for x in range(g.n):
            for y in range(x + 1, g.n):
                for eid in g.edge_ids_between(x, y):
                    yield PathSeq.from_graph(g, (x, y), (eid,))
    elif d == 2:
        for x in range(g.n):
            for mid, _ in _distinct_neighbors(g, x):
                for y, _ in _distinct_neighbors(g, mid):
                    if y <= x or y == mid:
                        continue
                    for e1 in g.edge_ids_between(x, mid):
                        for e2 in g.edge_ids_between(mid, y):
                            yield PathSeq.from_graph(g, (x, mid, y), (e1, e2))
    else:
        raise ValueError("only path lengths 1 and 2 are supported")


def _distinct_neighbors(g: Multigraph, v: int) -> list[tuple[int, int]]:
    seen = {}
    for u, eid in g.adj(v):
        if u not in seen:
            seen[u] = eid
    return sorted(seen.items())


def eft_greedy_exact(
    g: Multigraph,
    d: int,
    r: int,
    f: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> tuple[SpannerResult, BlockingRecord]:
    """Exact fault-tolerant greedy: add a d-path whenever some admissible
    fault set still separates its endpoints beyond r."""
    if g.weighted:
        raise ValueError("fault-tolerant constructions expect unweighted graphs")
    if r < d:
        raise ValueError("r must be at least d")
    included: set[int] = set()
    hview = g.view(included)
    paths: list[PathSeq] = []
    witnesses: list[frozenset[int]] = []
    for p in _d_paths(g, d):
        fs = find_fault_set(hview, p, r, f, budget)
        if fs is not None:
            included.update(p.edge_ids)
            paths.append(p)
            witnesses.append(fs.edges)
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
    included: set[int] = set()
    hview = g.view(included)
    paths: list[PathSeq] = []
    witnesses: list[frozenset[int]] = []
    for p in _d_paths(g, 2):
        e1, e2 = p.edge_ids
        x, mid, y = p.vertices
        present = [e for e in (e1, e2) if e in included]
        if len(present) == 2:
            continue
        banned = frozenset(p.edge_ids)
        removed: set[int] = set()
        routes = 0
        while routes < f + 1:
            excl = banned | removed
            route = shortest_path(hview, x, y, r, excluded=excl)
            if route is None and e1 in included:
                route = shortest_path(hview, mid, y, r - 1, excluded=excl)
            if route is None and e2 in included:
                route = shortest_path(hview, x, mid, r - 1, excluded=excl)
            if route is None:
                break
            removed.update(route)
            routes += 1
        if routes < f + 1:
            included.update(p.edge_ids)
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
    if g.weighted:
        raise ValueError("fault-tolerant constructions expect unweighted graphs")
    r = 2 * k - 1
    included: set[int] = set()
    hview = g.view(included)
    paths: list[PathSeq] = []
    for eid in range(g.m):
        u, v = g.endpoints(eid)
        p = PathSeq.from_graph(g, (u, v), (eid,))
        if find_fault_set(hview, p, r, f, budget) is not None:
            included.add(eid)
            paths.append(p)
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
    ids = sorted(set(one.edges) | set(two.edges))
    return SpannerResult(
        g.n,
        tuple(ids),
        one.paths + two.paths,
        "eft-union",
        {"k": k, "f": f, "fast": fast, "alpha": k, "beta": k - 1},
    )


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
    included: set[int] = set()
    uview = union.view(included)
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
        included.update(range(start, start + p.hop_length))
        start += p.hop_length
    return True
