"""Cluster levels and the sequential greedy clustering procedure.

A vertex is l-clustered in a subgraph H of a host with n vertices when every
ball around it in H up to radius l contains at least n**(r/k) vertices;
"fully clustered" means l reaches ceil(s/2) for the stretch parameter s in
play. The greedy clustering pass scans an edge sequence and keeps an edge
exactly when its endpoints are still far apart and at least one of them is
not yet fully clustered, which bounds both the girth and the size of what it
keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Multigraph, SubgraphView, hop_distance, hop_distances

__all__ = ["ClusteringTrace", "has_cluster", "cluster_level", "greedy_clustering"]

ACCEPTED = "added"
REJECTED_CLOSE = "endpoints-within-s"
REJECTED_CLUSTERED = "both-fully-clustered"


@dataclass(frozen=True)
class ClusteringTrace:
    """Replay record: per-edge verdicts plus the accepted ids in order."""

    added: tuple[int, ...]
    decisions: tuple[tuple[int, str], ...]


def _level(view: SubgraphView, v: int, k: int, radius: int) -> int:
    """Largest l <= radius such that |B(v,r)| >= n**(r/k) for every r <= l,
    where n is the host's vertex count.

    One search cut at ``radius`` gives every ball size. The threshold
    comparison is done in exact integer arithmetic as |B|**k >= n**r;
    floating logs would misorder near-boundary cases.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = view.host.n
    counts = [0] * (radius + 1)
    for d in hop_distances(view, v, radius).values():
        counts[d] += 1
    size = counts[0]
    for r in range(1, radius + 1):
        size += counts[r]
        if size**k < n**r:
            return r - 1
    return radius


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
