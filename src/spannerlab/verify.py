"""Brute-force ground truth: exhaustive stretch and fault verification.

Everything here recomputes distances from scratch against the host graph and
a candidate edge subset; nothing is shared with construction-time state, so a
passing report is an independent certificate. Fault sets are enumerated by
size then lexicographic edge ids, and the first counterexample in that order
is the one reported. The weighted bound w(P) + (2k - 2) * w_half(P)
(``verify_weighted_bound``) is checked on every 2-path and on seeded samples
of longer simple paths, so only its 2-path part is exhaustive.

Both exhaustive oracles test a fault set F and source x with one search on
each side: one in G - F finds the pairs and their bounds, and one in H - F,
cut at the largest bound of that source, tests them all. A cut search still
gives the exact distance of every vertex within its cut, so the verdicts
equal those of a search per pair. The distance of a counterexample comes
from one more, uncut search, so it is exact.

With no fault set (f = 0) and hop distances (``verify dr``, ``verify eft
-f 0``, unweighted ``verify alpha-beta``, and any hop check on a weighted
host) the searches are bit-parallel across sources: ``graphs.block_layers``
runs the BFS of ``SOURCE_BLOCK`` sources at once over the neighbor ranks of
the N vertices with an edge (``graphs.rank_neighbors``), and entry y of its
tables holds the block's sources whose layer or ball holds y. A check is
"the G-layer d entry of y, from sources ranked below y, minus the H-ball
entry of y at radius floor(bound(d))". Each side holds one layer and one
ball table of N ints of SOURCE_BLOCK bits, so the pass takes
O(m + N * SOURCE_BLOCK) memory: about 300 bytes per vertex for the four
tables at 256, next to the neighbor tables and the candidate's edge ids; no
size switch is needed. The other runs keep the dict searches: with f >= 1
the skip below needs parent edge ids, and a rank table forgets which
parallel edges survive a fault set; a weighted ``alpha-beta`` measures
weights, not hops.

When f >= 1, most (F, x) need no search at all. From the fault-free
searches of x the oracle keeps one tight parent edge per reached vertex on
each side (a shortest-path tree of G and one of H, at most 2(n - 1) edge
ids). If F contains none of them, (F, x) has the pairs and verdicts of
(empty set, x), which passed, so only its pair count is added. This is exact
in floats too: weights are positive and float addition is monotone, so
removing edges can only raise a computed distance, while each tree path
still adds up to the fault-free value; G - F and H - F thus give the same
distances as G and H inside the cuts. The trees come from the oracle's own
fault-free searches, so it still shares nothing with a construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import chain, combinations, islice
from math import comb
from operator import and_, invert, or_
from typing import Iterable

from .graphs import (
    INF,
    SOURCE_BLOCK,
    BudgetExceededError,
    Multigraph,
    PathSeq,
    SubgraphView,
    block_layers,
    hop_distances,
    rank_neighbors,
    tree_edges,
    two_paths,
    weighted_distances,
)

__all__ = [
    "Counterexample",
    "VerificationReport",
    "SizeReport",
    "WeightedBoundReport",
    "DEFAULT_CHECK_BUDGET",
    "verify_dr",
    "verify_eft",
    "verify_alpha_beta",
    "verify_weighted_bound",
    "size_report",
    "as_edge_ids",
]

DEFAULT_CHECK_BUDGET = 50_000_000


@dataclass(frozen=True)
class Counterexample:
    x: int
    y: int
    faults: tuple[int, ...]
    distance: float
    bound: float


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    counterexample: Counterexample | None
    pairs_checked: int
    fault_sets_checked: int


@dataclass(frozen=True)
class SizeReport:
    edges: int
    n: int
    k: float | None
    ratio: float


def as_edge_ids(g: Multigraph, h) -> frozenset[int]:
    """Normalize a candidate subgraph (result object, view, or id iterable)
    to a validated edge-id set of g."""
    if isinstance(h, Multigraph):
        raise ValueError("pass an edge-id subset of the host graph, not a graph")
    if hasattr(h, "edge_set"):
        ids = frozenset(h.edge_set)
    elif isinstance(h, SubgraphView):
        if h.host is not g:
            raise ValueError("view is not over the host graph")
        ids = frozenset(h.edge_ids())
    else:
        ids = frozenset(int(e) for e in h)
    for eid in ids:
        if not 0 <= eid < g.m:
            raise ValueError(f"edge id {eid} is not an edge of the host graph")
    return ids


def check_budget(required: int, budget: int) -> None:
    if required > budget:
        raise BudgetExceededError(
            f"verification needs {required} checks, budget is {budget}",
            required=required,
        )


def _fault_sets(m: int, f: int) -> Iterable[tuple[int, ...]]:
    return chain.from_iterable(combinations(range(m), size) for size in range(f + 1))


def _pair_bits(layer: list[int], first: int, below: list[int]):
    """Entry j: the sources in the layer entry of rank first + 1 + j that
    ``below[j]`` keeps."""
    return map(and_, islice(layer, first + 1, None), below)


def _checked_layers(nbrs, first: int, count: int, below: list[int], reach, bound_of):
    """(bound, G-layer table) of each hop d up to ``reach`` at which a source
    of the block of ``count`` ranks from ``first`` has a pair that ``below``
    keeps and ``bound_of(d)`` is not None."""
    layers = islice(block_layers(nbrs, first, count), 1, None if reach is None else reach + 1)
    for d, (layer, _) in enumerate(layers, 1):
        if any(_pair_bits(layer, first, below)) and (bound := bound_of(d)) is not None:
            yield bound, layer


def _check_blocks(g: Multigraph, ids: frozenset[int], sources: list[int], reach, bound_of) -> VerificationReport:
    """The fault-free hop pass of ``_check_pairs``: ``block_layers`` over the
    ``rank_neighbors`` of G and of H, one block of ``SOURCE_BLOCK`` source
    ranks at a time, where rank i is ``sources[i]``, the i-th of
    ``g.vertices_with_edges()``; no neighbor mask is built. At hop d the
    pairs of the block are, per rank y, the G-layer entry of y masked to the
    sources ranked below y, and a pair fails when its source is not in y's
    entry of the H-ball of radius floor(bound(d)): hop counts are integers,
    so that ball holds exactly the vertices within the bound. Both callers'
    bounds are nondecreasing in d, so H only steps forward, and each side
    holds only its current layer and ball. The lowest failing source is
    reported with its smallest failing y. Its block's G side then runs again
    to count the pairs a scan by x, then y, checks up to it: those of the
    sources before it, and its own up to y. The distance of a counterexample
    comes from one uncut dict search."""
    gnbrs, hnbrs = rank_neighbors(g), rank_neighbors(g, ids)
    n = len(sources)  # longer than any hop distance
    pairs = 0
    for first in range(0, n, SOURCE_BLOCK):
        count = min(SOURCE_BLOCK, n - first)
        # entry j is for rank first + 1 + j: the block's sources ranked below
        # it, all of them past the block (one shared int)
        below = [(1 << i) - 1 for i in range(1, count)] + [(1 << count) - 1] * (n - first - count)
        hballs = (ball for _, ball in block_layers(hnbrs, first, count))
        hball, hop = next(hballs), 0
        found = 0
        worst = None  # (source bit, j, bound) of the lowest failing pair
        for bound, layer in _checked_layers(gnbrs, first, count, below, reach, bound_of):
            # bounds are >= 0, so int() is the floor
            radius = int(min(bound, n))
            while hop < radius and (ball := next(hballs, None)) is not None:
                hball, hop = ball, hop + 1
            found += sum(map(int.bit_count, _pair_bits(layer, first, below)))
            miss = list(map(and_, _pair_bits(layer, first, below), map(invert, islice(hball, first + 1, None))))
            low = reduce(or_, miss, 0)
            if low:
                low &= -low
                j = next(j for j, bits in enumerate(miss) if bits & low)
                if worst is None or (low, j) < worst[:2]:
                    worst = (low, j, bound)
        if worst is None:
            pairs += found
            continue
        low, j, bound = worst
        # the pairs of the sources before the failing one, and its own up to y
        kept = [bits & ((low << 1) - 1 if i <= j else low - 1) for i, bits in enumerate(below)]
        for _, layer in _checked_layers(gnbrs, first, count, kept, reach, bound_of):
            pairs += sum(map(int.bit_count, _pair_bits(layer, first, kept)))
        x, y = sources[first + low.bit_length() - 1], sources[first + 1 + j]
        actual = hop_distances(g.view(ids), x, g.n).get(y, INF)
        return VerificationReport(False, Counterexample(x, y, (), actual, bound), pairs, 1)
    return VerificationReport(True, None, pairs, 1)


def _check_pairs(g: Multigraph, h, f: int, budget: int, reach, bound_of) -> VerificationReport:
    """The loop of the exhaustive oracles. For every fault set F and source x,
    every y > x reached from x in G - F must lie within ``bound_of(dist)`` in
    H - F, unless that is None. Distances are hops within ``reach`` when it is
    given, else weights on a weighted host and hops on an unweighted one.

    With f = 0 and hop distances the pass runs on source blocks
    (``_check_blocks``), in O(m + N * SOURCE_BLOCK) memory.
    With f >= 1 it keeps dict searches, because the skip below needs
    parent edge ids and a rank table cannot say which parallel edges a fault
    set leaves; a weighted run keeps them because its distances are weights.

    When f >= 1 the fault-free pass keeps, per source x, the edge ids of a
    shortest-path tree of each of its two searches and the number of pairs x
    checked. A later F with no edge in those trees leaves every distance
    inside the cuts as it was: removing edges only raises the values a search
    computes, and each tree path still sums to the fault-free value, also in
    floats. So (F, x) is skipped, and its pairs are counted from the cache.
    f is clamped to m first: no fault set has more than m edges, so the sets
    and their count stay the same.
    """
    ids = as_edge_ids(g, h)
    n, m = g.n, g.m
    f = min(f, m)
    # an isolated vertex is in no pair, so only vertices with an edge are
    # sources, and only pairs among them count against the budget
    sources = g.vertices_with_edges()
    n_fault_sets = sum(comb(m, size) for size in range(f + 1))
    check_budget(n_fault_sets * comb(len(sources), 2), budget)
    hops = reach is not None or not g.weighted
    if f == 0 and hops:
        return _check_blocks(g, ids, sources, reach, bound_of)
    hview = g.view(ids)
    gview = g.view()
    # a cut of None searches the whole graph
    if not hops:

        def search(view, x, cut, faults):
            return weighted_distances(view, x, cap=cut, excluded=faults)
    else:

        def search(view, x, cut, faults):
            # a bound can overflow to inf; no hop distance exceeds n
            return hop_distances(view, x, n if cut is None else int(min(cut, n)), excluded=faults)
    pairs = 0
    fault_sets = 0
    trees: list[tuple[set[int], int]] = []  # per source, from the fault-free pass
    for faults in _fault_sets(m, f):
        fault_sets += 1
        for i, x in enumerate(sources):
            if faults:
                tree, count = trees[i]
                if tree.isdisjoint(faults):
                    pairs += count
                    continue
            dist = search(gview, x, reach, faults)
            bounds = ((y, bound_of(dist[y])) for y in sorted(dist) if y > x)
            checks = [(y, b) for y, b in bounds if b is not None]
            dh = search(hview, x, max(b for _, b in checks), faults) if checks else {}
            for y, bound in checks:
                pairs += 1
                # an unreached y fails, also against a bound that overflows
                if y not in dh or dh[y] > bound:
                    actual = search(hview, x, None, faults).get(y, INF)
                    return VerificationReport(
                        False,
                        Counterexample(x, y, faults, actual, bound),
                        pairs,
                        fault_sets,
                    )
            if f and not faults:
                trees.append((tree_edges(gview, dist, hops) | tree_edges(hview, dh, hops), len(checks)))
    return VerificationReport(True, None, pairs, fault_sets)


def verify_dr(g: Multigraph, h, d: int, r: int, budget: int = DEFAULT_CHECK_BUDGET) -> VerificationReport:
    """Check that every pair at host hop distance exactly d sits at distance
    <= r in the candidate subgraph."""
    return verify_eft(g, h, d, r, 0, budget)


def verify_eft(
    g: Multigraph,
    h,
    d: int,
    r: int,
    f: int,
    budget: int = DEFAULT_CHECK_BUDGET,
) -> VerificationReport:
    """Exhaustive fault-tolerance check: for every fault set F of at most f
    edges and every pair at distance exactly d in g - F, the candidate minus
    F must connect the pair within r hops. Distances are hops, also on a
    weighted host."""
    if d < 1 or r < 0 or f < 0:
        raise ValueError(f"need d >= 1, r >= 0 and f >= 0, got d={d}, r={r}, f={f}")
    return _check_pairs(g, h, f, budget, reach=d, bound_of=lambda dist: r if dist == d else None)


def verify_alpha_beta(
    g: Multigraph,
    h,
    alpha: float,
    beta: float,
    f: int = 0,
    budget: int = DEFAULT_CHECK_BUDGET,
) -> VerificationReport:
    """Check dist_{H-F}(x,y) <= alpha * dist_{G-F}(x,y) + beta for all pairs
    and all fault sets of at most f edges."""
    if not (0 <= alpha < INF and 0 <= beta < INF) or f < 0:
        raise ValueError(f"need finite alpha, beta >= 0 and f >= 0, got {alpha}, {beta}, {f}")
    return _check_pairs(g, h, f, budget, reach=None, bound_of=lambda dist: alpha * dist + beta)


@dataclass(frozen=True)
class WeightedBoundReport:
    passed: bool
    worst_ratio: float
    worst_case: tuple[int, ...] | None
    two_paths_checked: int
    sampled_checked: int


def _random_simple_path(
    g: Multigraph, starts: list[int], length: int, rng: random.Random
) -> PathSeq | None:
    start = cur = rng.choice(starts)
    eids = []
    seen = {start}
    for _ in range(length):
        options = [(u, eid) for u, eid in g.adj(cur) if u not in seen]
        if not options:
            return None
        cur, eid = rng.choice(options)
        eids.append(eid)
        seen.add(cur)
    return PathSeq.from_edges(g, start, eids)


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
    seeded generator, each from a vertex with an edge. Distances are
    recomputed from scratch in the candidate subgraph. Reports the worst
    observed ratio of distance to bound. Raises ``ValueError`` for ``k < 1``,
    ``max_hops < 2`` or ``sample < 0``, and ``BudgetExceededError`` before
    any search when the paths to check exceed ``budget``. No length is
    walked when ``sample`` is 0, nor past N - 1 for the N vertices with an
    edge, since no draw finds a simple path of more hops.
    """
    if not g.is_simple():
        raise ValueError("weighted bound verification requires a simple host graph")
    if not k >= 1 or max_hops < 2 or sample < 0:
        raise ValueError("need k >= 1, max_hops >= 2 and sample >= 0")
    ids = as_edge_ids(g, h)
    paths = two_paths(g)
    check_budget(len(paths) + sample * (max_hops - 2), budget)
    settled = cache(partial(weighted_distances, g.view(ids)))
    worst = 0.0
    worst_case: tuple[int, ...] | None = None
    for x, mid, y, e1, e2 in paths:
        # an unreached y gets the ratio INF, also against a bound that
        # overflows to inf, where INF / inf would be nan and pass
        dist, w1, w2 = settled(x), g.weight(e1), g.weight(e2)
        ratio = dist[y] / (w1 + w2 + (2 * k - 2) * max(w1, w2)) if y in dist else INF
        if ratio > worst:
            worst = ratio
            worst_case = (x, mid, y)
    sampled = 0
    rng = random.Random(seed)
    # a path starts at a vertex with an edge; on a host without isolated
    # vertices the draws are those of randrange(n)
    starts = g.vertices_with_edges()
    longest = min(max_hops, len(starts) - 1) if sample else 2
    for length in range(3, longest + 1):
        drawn = attempts = 0
        while drawn < sample and attempts < 20 * sample:
            attempts += 1
            p = _random_simple_path(g, starts, length, rng)
            if p is None:
                continue
            drawn += 1
            sampled += 1
            dist = settled(p.x)
            ratio = dist[p.y] / (p.w + (2 * k - 2) * p.w_half) if p.y in dist else INF
            if ratio > worst:
                worst = ratio
                worst_case = p.vertices
    return WeightedBoundReport(
        passed=worst <= 1 + 1e-9,
        worst_ratio=worst,
        worst_case=worst_case,
        two_paths_checked=len(paths),
        sampled_checked=sampled,
    )


def size_report(edges: int, n: int, k: float | None) -> SizeReport:
    """An edge count against the n**(1 + 1/k) yardstick.

    ``k=None`` (or infinity) means the yardstick degenerates to n itself;
    any other k must be positive.
    """
    if k is not None and not k > 0:
        raise ValueError(f"need k > 0 or None, got {k}")
    if n <= 0:
        return SizeReport(edges, n, k, 0.0 if edges == 0 else INF)
    exponent = 1.0 if k is None or k == INF else 1.0 + 1.0 / k
    return SizeReport(edges, n, k, edges / (n**exponent))

