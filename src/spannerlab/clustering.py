"""Cluster levels and the sequential greedy clustering procedure.

A vertex is l-clustered in a subgraph H of a host with n vertices when every
ball around it in H up to radius l contains at least n**(r/k) vertices;
"fully clustered" means l reaches ceil(s/2) for the stretch parameter s in
play. The greedy clustering pass scans an edge sequence and keeps an edge
exactly when its endpoints are still far apart and at least one of them is
not yet fully clustered, which bounds both the girth and the size of what it
keeps. Ball sizes come one layer at a time from ``graphs.layer_sizes``,
which reads the view's neighbor masks when it keeps them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .graphs import Multigraph, SubgraphView, hop_distance, layer_sizes

__all__ = ["ClusteringTrace", "has_cluster", "cluster_level", "greedy_clustering", "least_ball_sizes"]

ACCEPTED = "added"
REJECTED_CLOSE = "endpoints-within-s"
REJECTED_CLUSTERED = "both-fully-clustered"


@dataclass(frozen=True)
class ClusteringTrace:
    """Replay record: per-edge verdicts plus the accepted ids in order."""

    added: tuple[int, ...]
    decisions: tuple[tuple[int, str], ...]


@lru_cache(maxsize=64)
def least_ball_sizes(n: int, k: int, radius: int) -> tuple[int, ...]:
    """Entry r, for r <= radius, is the least ball size s with s**k >= n**r,
    or n + 1 when no ball of at most n vertices reaches it (as at r > k).

    The comparison is exact integer arithmetic; floating logs would misorder
    near-boundary cases. s**k grows with s, so a bisection finds each entry.
    A run asks for a few (n, k, radius), so the last 64 tables are kept.
    """
    return tuple(bisect_left(range(n + 1), n**r, key=lambda s: s**k) for r in range(radius + 1))


def _level(view: SubgraphView, v: int, k: int, radius: int) -> int:
    """Largest l <= radius such that |B(v,r)| >= n**(r/k) for every r <= l,
    where n is the host's vertex count.

    The ball grows one BFS layer at a time, from ``layer_sizes`` (on the
    view's masks when it keeps them), and the search stops at the first
    radius that fails, so a vertex whose first layer is thin costs only that
    layer. A ball holds at most n vertices, so |B|**k >= n**r exactly when
    |B| reaches ``need[r]``, entry r of ``least_ball_sizes(n, k, radius)``.

    Once the layers run out, every radius past the last one has the final
    ball, so one bisection of ``need`` replaces the per-radius tests. For
    n >= 1 (v is a vertex), n**r grows with r, so ``need`` is nondecreasing.
    Every radius up to the last layer passed with a ball no larger than the
    final one, so the entries of ``need`` above the final size are a suffix
    past the last layer. The level is the radius just before that suffix
    starts, or ``radius`` when it is empty.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    need = least_ball_sizes(view.host.n, k, radius)
    size = 1
    for r, grown in enumerate(layer_sizes(view, v, radius), 1):
        size += grown
        if size < need[r]:
            return r - 1
    return bisect_right(need, size) - 1


def has_cluster(view: SubgraphView, v: int, ell: int, k: int) -> bool:
    """True iff |B(v,r)| >= n**(r/k) for every r <= ell, where n is the
    host's vertex count."""
    if ell < 0:
        raise ValueError("cluster level must be nonnegative")
    return _level(view, v, k, ell) == ell


def cluster_level(view: SubgraphView, v: int, k: int) -> int:
    """Maximal l in [0, k] such that v is l-clustered."""
    return _level(view, v, k, k)


def greedy_clustering(
    g: Multigraph,
    s: int,
    edge_order: Iterable[int],
    k: int,
) -> ClusteringTrace:
    """Scan edges in the given order, keeping each one that still helps.

    An edge {u,v} is accepted iff its endpoints are at hop distance > s in
    the graph of edges accepted so far AND at least one endpoint is not
    ceil(s/2)-clustered there. Strictly sequential by definition.
    """
    if s < 1 or k < 1:
        raise ValueError("s and k must be at least 1")
    half = (s + 1) // 2
    hview = g.view(set())
    added: list[int] = []
    decisions: list[tuple[int, str]] = []
    for eid in edge_order:
        if not 0 <= eid < g.m:
            raise ValueError(f"edge id {eid} not in graph")
        u, v = g.endpoints(eid)
        if hop_distance(hview, u, v, s) <= s:
            decisions.append((eid, REJECTED_CLOSE))
            continue
        if has_cluster(hview, u, half, k) and has_cluster(hview, v, half, k):
            decisions.append((eid, REJECTED_CLUSTERED))
            continue
        hview.add((eid,))
        added.append(eid)
        decisions.append((eid, ACCEPTED))
    return ClusteringTrace(tuple(added), tuple(decisions))
