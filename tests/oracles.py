"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive (Floyd-Warshall, full enumeration) and
shares no code with the library kernels, so agreement is meaningful.
"""

from __future__ import annotations

from itertools import combinations

INF = float("inf")


def edges_of(g) -> list[tuple[int, int]]:
    return [(e.u, e.v) for e in g.edges()]


def weighted_edges_of(g) -> list[tuple[int, int, float]]:
    return [(e.u, e.v, e.weight) for e in g.edges()]


def fw_hop(n: int, edge_list, excluded=frozenset()):
    """All-pairs hop distances by Floyd-Warshall."""
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for eid, (u, v) in enumerate(edge_list):
        if eid in excluded:
            continue
        if dist[u][v] > 1:
            dist[u][v] = dist[v][u] = 1
    for mid in range(n):
        dm = dist[mid]
        for i in range(n):
            dim = dist[i][mid]
            if dim == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dim + dm[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def fw_weighted(n: int, edge_list, excluded=frozenset()):
    """All-pairs weighted distances by Floyd-Warshall."""
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for eid, (u, v, w) in enumerate(edge_list):
        if eid in excluded:
            continue
        if dist[u][v] > w:
            dist[u][v] = dist[v][u] = w
    for mid in range(n):
        dm = dist[mid]
        for i in range(n):
            dim = dist[i][mid]
            if dim == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dim + dm[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def first_violation(n: int, edge_list, kept, f: int, bound_of, weighted: bool = False):
    """First stretch violation in (fault set, x, y) order, by full enumeration.

    Fault sets are every set of at most f edge ids, by size then lex order.
    For each, every pair x < y connected in G - F with ``bound_of(dist_{G-F})``
    not None is checked against its distance in H - F, where H keeps the
    ``kept`` edge ids. Distances are hops on lists of ``(u, v)`` and weights
    on ``(u, v, w)`` lists when ``weighted``. Returns ``(violation, pairs,
    fault_sets, closest)``: violation is ``(x, y, faults, distance, bound)``
    or None, the counts stop at the violation, and closest is the smallest
    ``|distance - bound|`` over the finite H-side distances checked.
    """
    fw = fw_weighted if weighted else fw_hop
    m = len(edge_list)
    dropped = set(range(m)) - set(kept)
    pairs = fault_sets = 0
    closest = INF
    for size in range(f + 1):
        for faults in combinations(range(m), size):
            fault_sets += 1
            dg = fw(n, edge_list, set(faults))
            dh = fw(n, edge_list, dropped | set(faults))
            for x in range(n):
                for y in range(x + 1, n):
                    if dg[x][y] == INF:
                        continue
                    bound = bound_of(dg[x][y])
                    if bound is None:
                        continue
                    pairs += 1
                    if dh[x][y] != INF:
                        closest = min(closest, abs(dh[x][y] - bound))
                    if dh[x][y] > bound:
                        return (x, y, faults, dh[x][y], bound), pairs, fault_sets, closest
    return None, pairs, fault_sets, closest


def brute_girth(n: int, edge_list):
    """Shortest cycle length: per-edge detours over full Floyd-Warshall."""
    best = INF
    for eid, (u, v) in enumerate(edge_list):
        d = fw_hop(n, edge_list, excluded={eid})[u][v]
        if d + 1 < best:
            best = d + 1
    return best


def pairs_at_distance(n: int, edge_list, d: int):
    dist = fw_hop(n, edge_list)
    return [(x, y) for x in range(n) for y in range(x + 1, n) if dist[x][y] == d]


def ball(n: int, edge_list, v: int, radius: int):
    dist = fw_hop(n, edge_list)
    return {u for u in range(n) if dist[v][u] <= radius}


def proper_subsets(ids):
    """Every proper subset of an edge-id collection (exponential)."""
    ids = sorted(ids)
    for size in range(len(ids)):
        yield from combinations(ids, size)


def lex_shortest_path(n: int, edge_list, x: int, y: int, cutoff: int, allowed):
    """Edge ids of the x-y path with the smallest (hop length, ((vertex,
    edge id), ...)) key among paths of at most ``cutoff`` hops over the
    ``allowed`` edge ids, or None. Enumerates every simple path from x."""
    nbrs = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edge_list):
        if eid in allowed:
            nbrs[u].append((v, eid))
            nbrs[v].append((u, eid))
    best = None

    def walk(v, steps, seen):
        nonlocal best
        if v == y:
            key = (len(steps), steps)
            if best is None or key < best:
                best = key
            return
        if len(steps) == cutoff:
            return
        for u, eid in nbrs[v]:
            if u not in seen:
                walk(u, steps + ((u, eid),), seen | {u})

    walk(x, (), {x})
    return None if best is None else tuple(eid for _, eid in best[1])
