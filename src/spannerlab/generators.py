"""Deterministic instance builders: adversarial families, lower-bound
instances, small high-girth catalog graphs, and seeded random graphs.

Randomness comes exclusively from ``random.Random`` (Mersenne Twister) seeded
with the caller's integer seed, so instances are reproducible byte-for-byte;
weights use a second generator seeded with ``f"{seed}:weights"`` so the
topology of a seed does not depend on the weighted flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from .graphs import Multigraph, PathSeq, girth, hop_distances
from .greedy import PathCollection, matching_rounds

__all__ = [
    "InstanceBundle",
    "gen_big_clique",
    "gen_hypercube",
    "gen_weighted_lower_bound",
    "gen_eft_lower_bound",
    "gen_random",
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "star_graph",
    "petersen_graph",
    "heawood_graph",
    "named_graph",
    "catalog_entry",
]


@dataclass(frozen=True)
class InstanceBundle:
    """A generated graph plus whatever ordered structure drives it."""

    graph: Multigraph
    paths: PathCollection | None
    matchings: tuple[tuple[int, ...], ...] | None
    tag: str


def cycle_graph(length: int) -> Multigraph:
    if length < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Multigraph(length, [(i, (i + 1) % length) for i in range(length)])


def path_graph(n: int) -> Multigraph:
    return Multigraph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Multigraph:
    return Multigraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Multigraph:
    """Star on n vertices with center 0."""
    return Multigraph(n, [(0, i) for i in range(1, n)])


def petersen_graph() -> Multigraph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph(10, edges)


def heawood_graph() -> Multigraph:
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Multigraph(14, edges)


# name -> (builder, vertex count, edge count)
_NAMED = {
    "petersen": (petersen_graph, 10, 15),
    "heawood": (heawood_graph, 14, 21),
}

# kind -> (builder, edge count of the graph on N vertices)
_SIZED = {
    "cycle": (cycle_graph, lambda n: n),
    "path": (path_graph, lambda n: max(n - 1, 0)),
    "complete": (complete_graph, lambda n: n * (n - 1) // 2),
    "star": (star_graph, lambda n: max(n - 1, 0)),
}


def catalog_entry(spec: str):
    """(builder, vertex count, edge count) of a catalog spec, the builder
    taking no argument, else None; builds nothing, so a caller can check
    the size first."""
    if spec in _NAMED:
        return _NAMED[spec]
    kind, _, arg = spec.partition(":")
    try:
        build, edges = _SIZED[kind]
        n = int(arg)
    except (KeyError, ValueError):
        return None
    return partial(build, n), n, edges(n)


def named_graph(spec: str) -> Multigraph:
    """Catalog lookup: "petersen", "heawood", "cycle:N", "path:N",
    "complete:N", "star:N"."""
    found = catalog_entry(spec)
    if found is None:
        raise ValueError(f"unknown graph spec {spec!r}")
    return found[0]()


def gen_big_clique(t: int) -> InstanceBundle:
    """Clique of t vertices, each with t-1 private leaves, plus the 2-path
    order that forces every clique edge into a greedy output.

    Path j of vertex i runs (clique[i+j mod t], clique[i], leaf[i,j]); every
    path ends at a fresh leaf, so a greedy scan keeps all of them.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    n = t * t
    edges = [(i, j) for i in range(t) for j in range(i + 1, t)]
    for i in range(t):
        for j in range(t - 1):
            edges.append((i, t + i * (t - 1) + j))
    g = Multigraph(n, edges)
    paths = []
    for i in range(1, t + 1):
        for j in range(1, t):
            a = (i - 1 + j) % t
            b = i - 1
            leaf = t + b * (t - 1) + (j - 1)
            paths.append(PathSeq.from_graph(g, (a, b, leaf)))
    return InstanceBundle(g, PathCollection(n, tuple(paths)), None, f"big-clique(t={t})")


def gen_hypercube(k: int) -> InstanceBundle:
    """k-dimensional hypercube with its dimension matchings in index order.

    Edges are listed dimension by dimension, so ``matching_rounds`` gives
    back the dimensions as its rounds.
    """
    if not 1 <= k <= 16:
        raise ValueError("k must be between 1 and 16")
    n = 1 << k
    g = Multigraph(n, [(x, x | 1 << dim) for dim in range(k) for x in range(n) if not x >> dim & 1])
    return InstanceBundle(g, None, tuple(matching_rounds(g)), f"hypercube(k={k})")


def gen_weighted_lower_bound(base: Multigraph, eps: float, k: int) -> InstanceBundle:
    """Unit-weight base of girth > 2k-1 with one eps-weight leaf per vertex.

    No proper subgraph of the result meets the weighted 2-path stretch bound
    for this k, which is what makes it a lower-bound witness.
    """
    if base.weighted:
        raise ValueError("base graph must be unweighted")
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    if base.n and len(hop_distances(base.view(), 0, base.n)) != base.n:
        raise ValueError("base graph must be connected")
    base_girth = girth(base.view())
    if not base_girth > 2 * (k - 1) + 1:
        raise ValueError(
            f"base girth {base_girth} is not greater than {2 * (k - 1) + 1}"
        )
    edges: list[tuple[int, int, float]] = [(e.u, e.v, 1.0) for e in base.edges()]
    for v in range(base.n):
        edges.append((v, base.n + v, eps))
    g = Multigraph(2 * base.n, edges, weighted=True)
    return InstanceBundle(g, None, None, f"weighted-lb(eps={eps},k={k})")


def gen_eft_lower_bound(base: Multigraph, f: int) -> InstanceBundle:
    """Each base edge replaced by f parallel copies, plus a leaf per vertex."""
    if base.weighted:
        raise ValueError("base graph must be unweighted")
    if not base.is_simple():
        raise ValueError("base graph must be simple")
    if f < 1:
        raise ValueError("f must be at least 1")
    edges: list[tuple[int, int]] = []
    for e in base.edges():
        edges.extend((e.u, e.v) for _ in range(f))
    for v in range(base.n):
        edges.append((v, base.n + v))
    g = Multigraph(2 * base.n, edges)
    return InstanceBundle(g, None, None, f"eft-lb(f={f})")


def gen_random(n: int, p: float, seed: int, weighted: bool = False) -> InstanceBundle:
    """Seeded Erdos-Renyi graph; weights, when requested, are uniform on
    (0, 1] from a separate deterministic stream."""
    if not 0 <= p <= 1:
        raise ValueError("p must be a probability")
    rng = random.Random(seed)
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    if weighted:
        wrng = random.Random(f"{seed}:weights")
        g = Multigraph(n, [(u, v, 1.0 - wrng.random()) for u, v in pairs], weighted=True)
    else:
        g = Multigraph(n, pairs)
    return InstanceBundle(g, None, None, f"gnp(n={n},p={p},seed={seed})")
