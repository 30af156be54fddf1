"""Cluster levels and the sequential greedy clustering procedure.

A vertex is l-clustered in a graph H when every ball around it up to radius l
contains at least n**(r/k) vertices; "fully clustered" means l reaches
ceil(s/2) for the stretch parameter s in play. The greedy clustering pass
scans an edge sequence and keeps an edge exactly when its endpoints are still
far apart and at least one of them is not yet fully clustered, which bounds
both the girth and the size of what it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Multigraph, SpannerParams, SubgraphView, hop_distance, hop_distances

__all__ = [
    "ClusterLevel",
    "ClusteringTrace",
    "has_cluster",
    "cluster_level",
    "is_fully_clustered",
    "greedy_clustering",
]

ACCEPTED = "added"
REJECTED_CLOSE = "endpoints-within-s"
REJECTED_CLUSTERED = "both-fully-clustered"


@dataclass(frozen=True)
class ClusterLevel:
    vertex: int
    level: int


@dataclass(frozen=True)
class ClusteringTrace:
    """Replay record: per-edge verdicts plus the accepted ids in order."""

    added: tuple[int, ...]
    decisions: tuple[tuple[int, str], ...]


def _ball_sizes(view: SubgraphView, v: int, radius: int) -> list[int]:
    """Cumulative ball sizes |B(v,0)|..|B(v,radius)|; constant once exhausted."""
    dist = hop_distances(view, v, radius)
    sizes = [0] * (radius + 1)
    for d in dist.values():
        sizes[d] += 1
    total = 0
    out = []
    for r in range(radius + 1):
        total += sizes[r]
        out.append(total)
    return out


def has_cluster(view: SubgraphView, v: int, ell: int, params: SpannerParams) -> bool:
    """True iff |B(v,r)| >= n**(r/k) for every r <= ell.

    The threshold comparison is done in exact integer arithmetic as
    |B|**k >= n**r; floating logs would misorder near-boundary cases.
    """
    if ell < 0:
        raise ValueError("cluster level must be nonnegative")
    if params.n != view.host.n:
        raise ValueError("params.n must match the host vertex count")
    n, k = params.n, params.k
    sizes = _ball_sizes(view, v, ell)
    for r in range(1, ell + 1):
        if sizes[r] ** k < n**r:
            return False
    return True


def cluster_level(view: SubgraphView, v: int, params: SpannerParams) -> ClusterLevel:
    """Maximal l in [0, k] such that v is l-clustered."""
    if params.n != view.host.n:
        raise ValueError("params.n must match the host vertex count")
    n, k = params.n, params.k
    sizes = _ball_sizes(view, v, k)
    level = 0
    for r in range(1, k + 1):
        if sizes[r] ** k >= n**r:
            level = r
        else:
            break
    return ClusterLevel(v, level)


def is_fully_clustered(
    view: SubgraphView, v: int, params: SpannerParams, s: int
) -> bool:
    """True iff v has a ceil(s/2)-cluster in the view."""
    if s < 1:
        raise ValueError("s must be at least 1")
    return has_cluster(view, v, (s + 1) // 2, params)


def greedy_clustering(
    g: Multigraph,
    s: int,
    edge_order: Iterable[int],
    params: SpannerParams,
) -> ClusteringTrace:
    """Scan edges in the given order, keeping each one that still helps.

    An edge {u,v} is accepted iff its endpoints are at hop distance > s in
    the graph of edges accepted so far AND at least one endpoint is not
    ceil(s/2)-clustered there. Strictly sequential by definition.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    half = (s + 1) // 2
    accepted: set[int] = set()
    hview = g.view(accepted)
    added: list[int] = []
    decisions: list[tuple[int, str]] = []
    for eid in edge_order:
        if not 0 <= eid < g.m:
            raise ValueError(f"edge id {eid} not in graph")
        u, v = g.endpoints(eid)
        if hop_distance(hview, u, v, s) <= s:
            decisions.append((eid, REJECTED_CLOSE))
            continue
        if has_cluster(hview, u, half, params) and has_cluster(hview, v, half, params):
            decisions.append((eid, REJECTED_CLUSTERED))
            continue
        accepted.add(eid)
        added.append(eid)
        decisions.append((eid, ACCEPTED))
    return ClusteringTrace(tuple(added), tuple(decisions))
