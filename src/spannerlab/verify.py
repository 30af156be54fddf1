"""Brute-force ground truth: exhaustive stretch and fault verification.

Everything here recomputes distances from scratch against the host graph and
a candidate edge subset; nothing is shared with construction-time state, so a
passing report is an independent certificate. Fault sets are enumerated by
size then lexicographic edge ids, and the first counterexample in that order
is the one reported.

Both exhaustive oracles run one search per fault set and source on each
side: one in G - F finds the pairs and their bounds, and one in H - F, cut at
the largest bound of that source, tests them all. A cut search still gives
the exact distance of every vertex within its cut, so the verdicts equal
those of a search per pair. The distance of a counterexample comes from one
more, uncut search, so it is exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import Iterable

from .graphs import (
    INF,
    BudgetExceededError,
    Multigraph,
    SubgraphView,
    hop_distances,
    weighted_distances,
)

__all__ = [
    "Counterexample",
    "VerificationReport",
    "SizeReport",
    "DEFAULT_CHECK_BUDGET",
    "verify_dr",
    "verify_eft",
    "verify_alpha_beta",
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


def _check_pairs(g: Multigraph, h, f: int, budget: int, reach, bound_of) -> VerificationReport:
    """The loop of the exhaustive oracles. For every fault set F and source x,
    every y > x reached from x in G - F must lie within ``bound_of(dist)`` in
    H - F, unless that is None. Distances are hops within ``reach`` when it is
    given, else weights on a weighted host and hops on an unweighted one.
    """
    ids = as_edge_ids(g, h)
    hview = g.view(ids)
    gview = g.view()
    n, m = g.n, g.m
    n_fault_sets = sum(comb(m, size) for size in range(f + 1))
    check_budget(n_fault_sets * comb(n, 2) if n >= 2 else 0, budget)
    # a cut of None searches the whole graph
    if g.weighted and reach is None:
        def search(view, x, cut, faults):
            return weighted_distances(view, x, cap=cut, excluded=faults)
    else:
        def search(view, x, cut, faults):
            return hop_distances(view, x, n if cut is None else int(cut), excluded=faults)
    pairs = 0
    fault_sets = 0
    for faults in _fault_sets(m, f):
        fault_sets += 1
        for x in range(n):
            dist = search(gview, x, reach, faults)
            bounds = ((y, bound_of(dist[y])) for y in sorted(dist) if y > x)
            checks = [(y, b) for y, b in bounds if b is not None]
            if not checks:
                continue
            dh = search(hview, x, max(b for _, b in checks), faults)
            for y, bound in checks:
                pairs += 1
                if dh.get(y, INF) > bound:
                    actual = search(hview, x, None, faults).get(y, INF)
                    return VerificationReport(
                        False,
                        Counterexample(x, y, faults, actual, bound),
                        pairs,
                        fault_sets,
                    )
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


def size_report(h, n: int, k: float | None) -> SizeReport:
    """Edge count of a candidate against the n**(1 + 1/k) yardstick.

    ``k=None`` (or infinity) means the yardstick degenerates to n itself.
    """
    if isinstance(h, Multigraph):
        edges = h.m
    elif hasattr(h, "edges") and not callable(getattr(h, "edges")):
        edges = len(h.edges)
    else:
        edges = len(set(int(e) for e in h))
    if n <= 0:
        return SizeReport(edges, n, k, 0.0 if edges == 0 else INF)
    exponent = 1.0 if k is None or k == INF else 1.0 + 1.0 / k
    return SizeReport(edges, n, k, edges / (n**exponent))


def env_budget() -> int:
    """Verification budget, honoring the SPANNER_BUDGET environment variable."""
    raw = os.environ.get("SPANNER_BUDGET")
    if raw is None:
        return DEFAULT_CHECK_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"SPANNER_BUDGET must be an integer, got {raw!r}") from exc
