from __future__ import annotations

import random
import tracemalloc
from itertools import chain, islice

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from conftest import small_graphs
from spannerlab import (
    INF,
    Multigraph,
    PathSeq,
    girth,
    hop_distance,
    hop_distances,
    hop_layers,
    neighbor_masks,
    weighted_ball,
    weighted_dist,
    weighted_distances,
)
from spannerlab.generators import cycle_graph, gen_random, path_graph, petersen_graph
from spannerlab.graphs import (
    SOURCE_BLOCK,
    _grow,
    bfs_layers,
    block_layers,
    layer_path,
    layer_sizes,
    mask_distance,
    rank_neighbors,
    shortest_path,
    tree_path,
)


def test_multigraph_rejects_self_loops():
    with pytest.raises(ValueError):
        Multigraph(3, [(1, 1)])


def test_multigraph_rejects_bad_ids_and_weights():
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 5)])
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 1, 0.0)], weighted=True)
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 1, 2.0)], weighted=False)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Multigraph(2, [(0, 1, bad)], weighted=True)


def test_multigraph_rejects_non_integral_vertex_ids():
    # int() would truncate 1.5 to 1 and build the edge (0, 1)
    for edge in ((0, 1.5), (0.5, 2), (0, 1.000001, 1.0)):
        with pytest.raises(ValueError, match="non-integral vertex id"):
            Multigraph(3, [edge])
    g = Multigraph(3, [(0.0, 2.0), (True, 2)])
    assert [g.endpoints(e) for e in range(g.m)] == [(0, 2), (1, 2)]


@settings(max_examples=200)
@given(small_graphs(multigraph=True))
def test_parallel_edges_have_distinct_ids(g):
    fixed = Multigraph(2, [(0, 1), (0, 1), (1, 0)])
    assert fixed.m == 3
    assert fixed.edge_ids_between(0, 1) == (0, 1, 2)
    assert not fixed.is_simple()
    # pair queries against a scan of the edge list, out-of-range ids included
    for u in range(-1, g.n + 1):
        for v in range(-1, g.n + 1):
            naive = tuple(e.id for e in g.edges() if {e.u, e.v} == {u, v})
            assert g.edge_ids_between(u, v) == naive, (u, v)
    assert g.is_simple() == (len({frozenset((e.u, e.v)) for e in g.edges()}) == g.m)


def test_multigraph_retains_under_250_bytes_per_edge():
    # the edge arrays plus one (neighbor, id)-sorted adjacency, no second index
    edges = [(e.u, e.v) for e in gen_random(400, 0.25, 0).graph.edges()]
    tracemalloc.start()
    try:
        g = Multigraph(400, edges)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.m == len(edges) > 20000
    assert retained < 250 * g.m


def test_hop_distance_cycle_detour():
    g = cycle_graph(6)
    eid = g.edge_ids_between(0, 1)[0]
    assert hop_distance(g.view(), 0, 1, 10, excluded={eid}) == 5


def test_hop_distance_identity():
    g = cycle_graph(6)
    assert hop_distance(g.view(), 2, 2, 0) == 0


def test_hop_distance_petersen_far_pair():
    g = petersen_graph()
    # oracle-derived: non-adjacent pairs of the Petersen graph sit at hop 2
    oracle = oracles.fw_hop(g.n, oracles.edges_of(g))
    assert oracle[0][2] == 2
    assert hop_distance(g.view(), 0, 2, 10) == 2


def test_hop_distance_invalid_vertex():
    g = cycle_graph(4)
    for view in (g.view(), g.view(range(g.m))):
        with pytest.raises(ValueError):
            hop_distance(view, 0, 9, 3)


def test_hop_distance_respects_cutoff():
    g = path_graph(6)
    assert hop_distance(g.view(), 0, 5, 4) == INF
    assert hop_distance(g.view(), 0, 5, 5) == 5


@pytest.mark.parametrize(
    "search",
    [
        lambda view, x, y: hop_distance(view, x, y, -1),
        lambda view, x, y: hop_distances(view, x, -1),
        lambda view, x, y: shortest_path(view, x, y, -1),
        lambda view, x, y: hop_layers(neighbor_masks(view), x, -1),
        lambda view, x, y: mask_distance(neighbor_masks(view), x, y, -1),
        lambda view, x, y: bfs_layers(view, x, -1),
        lambda view, x, y: layer_sizes(view, x, -1),
    ],
    ids=["hop_distance", "hop_distances", "shortest_path", "hop_layers", "mask_distance", "bfs_layers", "layer_sizes"],
)
@pytest.mark.parametrize("y", [0, 2])
def test_searches_reject_negative_cutoff(search, y):
    # on the host's adjacency and on a view that keeps masks
    g = path_graph(3)
    for view in (g.view(), g.view(range(g.m))):
        with pytest.raises(ValueError, match="cutoff must be nonnegative"):
            search(view, 0, y)


def test_weighted_distances_rejects_limit_below_one():
    with pytest.raises(ValueError, match="limit must be at least 1"):
        weighted_distances(path_graph(3).view(), 0, limit=0)


def test_weighted_ball_unit_path():
    g = path_graph(5)
    assert weighted_ball(g.view(), 0, 2) == {0, 1, 2}


def test_weighted_ball_radius_zero():
    g = path_graph(5)
    assert weighted_ball(g.view(), 3, 0) == {3}


def test_weighted_ball_mixed_weights():
    # oracle-derived on the 2-path v0 -0.5- v1 -2.0- v2: radius 1 reaches v1 only
    g = Multigraph(3, [(0, 1, 0.5), (1, 2, 2.0)], weighted=True)
    oracle = oracles.fw_weighted(g.n, oracles.weighted_edges_of(g))
    assert oracle[0][1] == 0.5 and oracle[0][2] == 2.5
    assert weighted_ball(g.view(), 0, 1) == {0, 1}


def test_weighted_ball_negative_radius():
    g = path_graph(3)
    with pytest.raises(ValueError):
        weighted_ball(g.view(), 0, -1)


def test_girth_examples():
    assert girth(cycle_graph(5).view()) == 5
    assert girth(path_graph(6).view()) == INF
    g = petersen_graph()
    assert oracles.brute_girth(g.n, oracles.edges_of(g)) == 5
    assert girth(g.view()) == 5


def test_girth_parallel_pair():
    g = Multigraph(2, [(0, 1), (0, 1)])
    assert girth(g.view()) == 2


def test_pathseq_validation_and_aggregates():
    g = Multigraph(4, [(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0)], weighted=True)
    p = PathSeq.from_graph(g, (0, 1, 2, 3))
    assert p.hop_length == 3
    assert p.w == 6.0
    assert p.w_half == 5.0  # top-2 of (3, 1, 2)
    with pytest.raises(ValueError):
        PathSeq.from_graph(g, (0, 2))
    with pytest.raises(ValueError):
        PathSeq.from_edges(g, 0, (2,))


def test_from_edges_walks_host_ids_from_the_start_vertex():
    g = Multigraph(4, [(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0), (2, 1, 5.0)], weighted=True)
    p = PathSeq.from_edges(g, 3, (2, 3, 0))
    assert (p.vertices, p.edge_ids, p.weights) == ((3, 2, 1, 0), (2, 3, 0), (2.0, 5.0, 3.0))
    assert PathSeq.from_edges(g, 2, ()) == PathSeq((2,), (), ())
    assert PathSeq.from_edges(g, 0, (0, 1, 2)) == PathSeq.from_graph(g, (0, 1, 2, 3))
    # the second edge does not leave vertex 1, where the first one ends
    with pytest.raises(ValueError, match="edge 2 does not leave 1"):
        PathSeq.from_edges(g, 0, (0, 2))
    # -1 would read the last edge, which leaves 2
    for eid in (-1, 4):
        with pytest.raises(ValueError, match=f"edge id {eid} not in host graph"):
            PathSeq.from_edges(g, 2, (eid,))


@st.composite
def midsize_multigraphs(draw):
    """A seeded multigraph on 30 to 80 vertices: a sparse G(n, 6/n), a hub
    (vertex 0) joined to a quarter of the others, and parallel copies of an
    eighth of the edges. Frontiers around the hub outgrow the others, so
    both ends of a hop_distance search grow before the balls meet."""
    n = draw(st.integers(30, 80))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 6 / n]
    edges += [(0, v) for v in rng.sample(range(1, n), n // 4)]
    edges += rng.sample(edges, len(edges) // 8)
    return Multigraph(n, edges)


@given(small_graphs(multigraph=True) | midsize_multigraphs(), st.data())
def test_hop_distance_matches_oracle(g, data):
    # a partial view of a multigraph, up to two excluded ids, every cutoff
    included = edge_subset(data, g.m)
    faults = data.draw(st.sets(st.integers(0, g.m - 1), max_size=2)) if g.m else set()
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 1))
    absent = (set(range(g.m)) - included) | faults
    oracle = oracles.fw_hop(g.n, oracles.edges_of(g), excluded=absent)[x][y]
    view = g.view(included)
    for cutoff in range(g.n + 3):
        expected = oracle if oracle <= cutoff else INF
        assert hop_distance(view, x, y, cutoff, excluded=faults) == expected


@given(small_graphs(), st.data())
def test_hop_distance_symmetry_and_triangle(g, data):
    n = g.n
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    z = data.draw(st.integers(0, n - 1))
    v = g.view()
    dxy = hop_distance(v, x, y, n)
    dyx = hop_distance(v, y, x, n)
    assert dxy == dyx
    dxz = hop_distance(v, x, z, n)
    dzy = hop_distance(v, z, y, n)
    assert dxy <= dxz + dzy


@given(small_graphs(min_n=3), st.data())
def test_hop_distance_monotone_under_insertion(g, data):
    # distances never grow when an edge joins the graph
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1).filter(lambda w: w != u))
    bigger = Multigraph(g.n, [(e.u, e.v) for e in g.edges()] + [(u, v)])
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 1))
    before = hop_distance(g.view(), x, y, g.n)
    after = hop_distance(bigger.view(), x, y, g.n)
    assert after <= before


@given(small_graphs(), st.data())
def test_ball_nesting(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    r1 = data.draw(st.integers(0, g.n))
    r2 = data.draw(st.integers(0, g.n))
    if r1 > r2:
        r1, r2 = r2, r1
    view = g.view()
    assert set(hop_distances(view, v, r1)) <= set(hop_distances(view, v, r2))
    assert weighted_ball(view, v, float(r1)) <= weighted_ball(view, v, float(r2))


@given(small_graphs(max_n=7, max_m=12, multigraph=True), st.data())
def test_girth_monotone_under_subviews(g, data):
    ids = list(range(g.m))
    subset = frozenset(data.draw(st.sets(st.sampled_from(ids)))) if ids else frozenset()
    assert girth(g.view(subset)) >= girth(g.view())


def test_view_rejects_foreign_edge_ids():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        g.view({0, 17})


@given(small_graphs(max_n=10, max_m=30, multigraph=True), st.data())
def test_excluded_equals_removed_view(g, data):
    # excluding F at query time must equal querying the view with F dropped
    ids = list(range(g.m))
    faults = data.draw(st.sets(st.sampled_from(ids), max_size=2)) if ids else set()
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 1))
    removed_view = g.view(frozenset(ids) - frozenset(faults))
    d_excl = hop_distance(g.view(), x, y, g.n, excluded=frozenset(faults))
    d_view = hop_distance(removed_view, x, y, g.n)
    assert d_excl == d_view
    oracle = oracles.fw_hop(g.n, oracles.edges_of(g), excluded=frozenset(faults))[x][y]
    assert d_excl == oracle


def edge_subset(data, m: int) -> set[int]:
    mask = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return {eid for eid, keep in enumerate(mask) if keep}


@given(small_graphs(weighted=True), st.data())
def test_weighted_dist_matches_oracle(g, data):
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 1))
    faults = frozenset(edge_subset(data, g.m))
    cap = data.draw(st.none() | st.floats(0.0, 10.0))
    oracle = oracles.fw_weighted(g.n, oracles.weighted_edges_of(g), excluded=faults)[x][y]
    got = weighted_dist(g.view(), x, y, cap=cap, excluded=faults)
    assert weighted_dist(g.view(), x, x, cap=cap, excluded=faults) == 0.0
    if cap is not None and oracle != INF:
        # Dijkstra and Floyd-Warshall may sum in different orders.
        assume(oracle != pytest.approx(cap, rel=1e-9))
    if oracle == INF or (cap is not None and oracle > cap):
        assert got == INF
    else:
        assert got == pytest.approx(oracle, rel=1e-9)


@settings(max_examples=300)
@given(small_graphs(min_n=3, max_n=7, min_m=6, max_m=16, multigraph=True, weighted=True), st.data())
def test_shortest_path_matches_oracle(g, data):
    x = data.draw(st.integers(0, g.n - 1))
    y = (x + data.draw(st.integers(1, g.n - 1))) % g.n
    cutoff = data.draw(st.integers(0, g.n))
    included = edge_subset(data, g.m) if data.draw(st.booleans()) else None
    excluded = frozenset(data.draw(st.lists(st.integers(0, max(g.m - 1, 0)), max_size=2)))
    allowed = {
        e.id
        for e in g.edges()
        if (included is None or e.id in included) and e.id not in excluded
    }
    view = g.view(included)
    got = shortest_path(view, x, y, cutoff, excluded)
    assert got == oracles.lex_shortest_path(g.n, oracles.edges_of(g), x, y, cutoff, allowed)
    assert shortest_path(view, x, x, cutoff, excluded) == ()


@settings(max_examples=300)
@given(small_graphs(max_n=7, max_m=14, multigraph=True), st.data())
def test_bfs_tree_matches_oracle(g, data):
    """Layers are the exact hop spheres; the tree path to every vertex
    reached is the oracle's lex smallest shortest path; a search stopped at
    a vertex leaves every parent it set as the full search sets it."""
    x = data.draw(st.integers(0, g.n - 1))
    cutoff = data.draw(st.integers(0, g.n))
    included = edge_subset(data, g.m) if data.draw(st.booleans()) else None
    excluded = frozenset(data.draw(st.sets(st.integers(0, max(g.m - 1, 0)), max_size=2)))
    absent = excluded | (frozenset() if included is None else frozenset(range(g.m)) - included)
    allowed = set(range(g.m)) - absent
    view = g.view(included)
    tree: dict[int, int] = {}
    layers = list(bfs_layers(view, x, cutoff, excluded, tree))
    hops = oracles.fw_hop(g.n, oracles.edges_of(g), excluded=absent)[x]
    spheres = [{v for v in range(g.n) if hops[v] == d} for d in range(1, cutoff + 1)]
    while spheres and not spheres[-1]:
        spheres.pop()
    assert [set(layer) for layer in layers] == spheres
    assert list(tree) == [x] + [v for layer in layers for v in layer]
    for v in tree:
        assert tree_path(g, tree, v) == oracles.lex_shortest_path(
            g.n, oracles.edges_of(g), x, v, cutoff, allowed
        )
    # shortest_path's search: _grow steps that end where they reach stop
    stop = data.draw(st.integers(0, g.n - 1))
    cut, frontier = {x: -1}, [x]
    for _ in range(cutoff if stop != x else 0):
        frontier = _grow(view._adj, frontier, cut, None, excluded or None, stop)
        if not frontier:
            break
    assert (stop in cut) == (stop in tree)
    assert list(cut.items()) == list(tree.items())[: len(cut)]
    # the search ends where it reaches stop, not at the end of that layer
    assert stop not in cut or list(cut)[-1] == stop


@given(small_graphs(max_n=7, max_m=12, multigraph=True))
def test_girth_matches_oracle(g):
    assert girth(g.view()) == oracles.brute_girth(g.n, oracles.edges_of(g))


@given(small_graphs(max_n=7), st.data())
def test_hop_distances_map_consistent(g, data):
    src = data.draw(st.integers(0, g.n - 1))
    cutoff = data.draw(st.integers(0, g.n))
    dist = hop_distances(g.view(), src, cutoff)
    oracle = oracles.fw_hop(g.n, oracles.edges_of(g))
    for v in range(g.n):
        if oracle[src][v] <= cutoff:
            assert dist[v] == oracle[src][v]
        else:
            assert v not in dist


@given(small_graphs(max_n=7, multigraph=True), st.data())
def test_hop_layers_match_oracle(g, data):
    verts = g.vertices_with_edges()
    assume(verts)
    kept = data.draw(st.sets(st.integers(0, g.m - 1)))
    i = data.draw(st.integers(0, len(verts) - 1))
    cutoff = data.draw(st.integers(0, g.n))
    layers = hop_layers(neighbor_masks(g.view(kept)), i, cutoff)
    oracle = oracles.fw_hop(g.n, oracles.edges_of(g), excluded=set(range(g.m)) - kept)
    expected = [sum(1 << j for j, v in enumerate(verts) if oracle[verts[i]][v] == d) for d in range(cutoff + 1)]
    while len(expected) > 1 and not expected[-1]:
        expected.pop()
    assert layers == expected


def _assert_block_tables(g, kept, first, count):
    """Each (layer, ball) table ``block_layers`` yields at hop t is, bit for
    bit, the hop-t ``hop_layers`` of every source rank of the block (bit s
    for rank first + s) and their union up to t, and the tables stop at the
    last nonempty layer of any of them."""
    masks = neighbor_masks(g.view(kept))
    nbrs = rank_neighbors(g, kept)
    assert nbrs == [tuple(j for j in range(len(masks)) if mask >> j & 1) for mask in masks]
    expected = []
    for s in range(count):
        for t, layer in enumerate(hop_layers(masks, first + s, len(masks))):
            if t == len(expected):
                expected.append([0] * len(masks))
            while layer:
                v = (layer & -layer).bit_length() - 1
                expected[t][v] |= 1 << s
                layer ^= 1 << v
    # one table past the last expected shows a search that does not stop
    tables = list(islice(block_layers(nbrs, first, count), len(expected) + 1))
    assert [layer for layer, _ in tables] == expected
    ball = [0] * len(masks)
    for t, (_, got) in enumerate(tables):
        ball = [a | b for a, b in zip(ball, expected[t])]
        assert got == ball


@given(st.booleans().flatmap(lambda multi: small_graphs(max_n=8, multigraph=multi)), st.data())
def test_block_layers_match_hop_layers(g, data):
    n_ranks = len(g.vertices_with_edges())
    assume(n_ranks)
    kept = data.draw(st.none() | st.sets(st.integers(0, g.m - 1)))
    first = data.draw(st.integers(0, n_ranks - 1))
    _assert_block_tables(g, kept, first, data.draw(st.integers(1, n_ranks - first)))


def test_block_layers_match_hop_layers_over_two_blocks():
    # more ranks than a block, on ids spread under a larger header: a path
    # with chords and a few doubled edges, of which 80% are kept
    rng = random.Random(3)
    n_ranks = SOURCE_BLOCK + 44
    ids = sorted(rng.sample(range(5_000), n_ranks))
    pairs = [(u, u + 1) for u in range(n_ranks - 1)] + [tuple(rng.sample(range(n_ranks), 2)) for _ in range(60)]
    pairs += rng.sample(pairs, 30)
    g = Multigraph(5_000, [(ids[u], ids[v]) for u, v in pairs])
    kept = {e for e in range(g.m) if rng.random() < 0.8}
    for first in range(0, n_ranks, SOURCE_BLOCK):
        _assert_block_tables(g, kept, first, min(SOURCE_BLOCK, n_ranks - first))


@given(small_graphs(max_n=8, multigraph=True), st.data())
def test_mask_kernels_match_oracle(g, data):
    """Over a view grown edge by edge from ``g.view(set())``: after each
    ``add`` its masks are its ``neighbor_masks``; ``hop_distance``, with and
    without excluded edges, and ``mask_distance`` are the Floyd-Warshall
    distance within the cutoff; and ``layer_path`` to every rank of a last
    layer is the enumerated lex smallest shortest path."""
    verts = g.vertices_with_edges()
    assume(verts)
    kept = data.draw(st.none() | st.lists(st.integers(0, g.m - 1)))
    kept = range(g.m) if kept is None else kept
    view = g.view(set())
    # the host ranks its vertices with an edge in ascending order
    assert view.masks is not None and list(view.host._rank) == verts == sorted(set(chain(*oracles.edges_of(g))))
    for eid in kept:
        view.add((eid,))
        assert view.masks == neighbor_masks(view)
    edges = oracles.edges_of(g)
    absent = set(range(g.m)) - set(kept)
    faults = data.draw(st.sets(st.integers(0, g.m - 1)))
    oracle = oracles.fw_hop(g.n, edges, excluded=absent)
    cut = oracles.fw_hop(g.n, edges, excluded=absent | faults)
    cutoff = data.draw(st.integers(0, g.n))
    for x in range(g.n):
        for y in range(g.n):
            assert hop_distance(view, x, y, cutoff) == (oracle[x][y] if oracle[x][y] <= cutoff else INF)
            assert hop_distance(view, x, y, cutoff, excluded=faults) == (cut[x][y] if cut[x][y] <= cutoff else INF)
    for i, x in enumerate(verts):
        for j, y in enumerate(verts):
            d = oracle[x][y]
            assert mask_distance(view.masks, i, j, cutoff) == (d if d <= cutoff else INF)
        layers = hop_layers(view.masks, i, cutoff)
        last = layers[-1]
        while last:
            t = (last & -last).bit_length() - 1
            last ^= 1 << t
            eids = oracles.lex_shortest_path(g.n, edges, x, verts[t], len(layers) - 1, set(kept))
            path = [x]
            for eid in eids:
                u, v = edges[eid]
                path.append(v if u == path[-1] else u)
            assert [verts[r] for r in layer_path(view.masks, layers, t)] == path


def test_isolated_vertices_cost_no_adjacency_list():
    # a one-edge header asking for 2**20 vertices must stay cheap
    tracemalloc.start()
    try:
        g = Multigraph(1 << 20, [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    assert g.adj(0) == ((1, 0),) and g.adj(1) == ((0, 0),) and g.adj(2) == ()


def test_header_at_the_cap_costs_no_slot_per_vertex():
    # no adjacency slot per isolated vertex, even at the parser's 2**24 cap
    tracemalloc.start()
    try:
        g = Multigraph(2**24, [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert g.adj(0) == ((1, 0),) and g.adj(2**24 - 1) == ()
    assert hop_distances(g.view(), 2**24 - 1, 3) == {2**24 - 1: 0}
    for v in (-1, 2**24):
        with pytest.raises(IndexError):
            g.adj(v)


@settings(max_examples=300)
@given(st.data())
def test_view_add_matches_fresh_view(data):
    # a view grown batch by batch, repeats and present ids included, must
    # search exactly the edges it holds, lex-first path order included
    weighted = data.draw(st.booleans())
    g = data.draw(small_graphs(max_n=7, min_m=1, max_m=14, multigraph=True, weighted=weighted))
    ids = st.integers(0, g.m - 1)
    held = data.draw(st.sets(ids))
    view = g.view(held)
    for _ in range(data.draw(st.integers(1, 4))):
        batch = data.draw(st.lists(ids, max_size=6))
        if held:
            batch += data.draw(st.lists(st.sampled_from(sorted(held)), max_size=2))
        view.add(batch)
        held.update(batch)
        assert view.included == held
        assert list(view.edge_ids()) == sorted(held)
        excluded = frozenset(data.draw(st.sets(ids, max_size=2)))
        absent = excluded | (frozenset(range(g.m)) - held)
        allowed = held - excluded
        x = data.draw(st.integers(0, g.n - 1))
        y = data.draw(st.integers(0, g.n - 1))
        cutoff = data.draw(st.integers(0, g.n))
        hops = oracles.fw_hop(g.n, oracles.edges_of(g), excluded=absent)[x]
        assert hop_distance(view, x, y, cutoff, excluded) == (hops[y] if hops[y] <= cutoff else INF)
        assert hop_distances(view, x, cutoff, excluded) == {
            v: d for v, d in enumerate(hops) if d <= cutoff
        }
        assert shortest_path(view, x, y, cutoff, excluded) == oracles.lex_shortest_path(
            g.n, oracles.edges_of(g), x, y, cutoff, allowed
        )
        weights = oracles.fw_weighted(g.n, oracles.weighted_edges_of(g), excluded=absent)[x]
        got = weighted_distances(view, x, excluded=excluded)
        assert got == pytest.approx({v: d for v, d in enumerate(weights) if d != INF}, rel=1e-9)
        # a limited search is the same search stopped early, in settle order
        limit = data.draw(st.integers(1, g.n))
        cut = weighted_distances(view, x, excluded=excluded, limit=limit)
        assert list(cut.items()) == list(got.items())[:limit]


@given(small_graphs(max_m=14, multigraph=True, weighted=True), st.data())
def test_search_with_targets_is_the_full_search_cut_at_the_last(g, data):
    # a search with targets is the full search in settle order, cut right
    # after its last target settles; with a target out of reach it runs to
    # its cap; weighted_dist is the full search read at y
    view = g.view(edge_subset(data, g.m))
    x = data.draw(st.integers(0, g.n - 1))
    cap = data.draw(st.none() | st.floats(0.0, 6.0))
    targets = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=3))
    full = weighted_distances(view, x, cap=cap)
    got = weighted_distances(view, x, cap=cap, targets=targets)
    settled = list(full.items())
    if targets <= full.keys():
        assert list(got.items()) == settled[: 1 + max(list(full).index(t) for t in targets)]
    else:
        assert list(got.items()) == settled
    for y in targets:
        assert weighted_dist(view, x, y, cap=cap) == full.get(y, INF)


def test_search_with_targets_examples():
    g = Multigraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 5.0)], weighted=True)
    view = g.view()
    assert weighted_distances(view, 0, targets=(1,)) == {0: 0.0, 1: 1.0}
    assert weighted_distances(view, 0, targets=(0,)) == {0: 0.0}
    assert weighted_distances(view, 0, targets=[2, 1, 2]) == {0: 0.0, 1: 1.0, 2: 2.0}
    # vertex 4 is isolated: the search runs to its cap, or to the end
    assert weighted_distances(view, 0, cap=2.5, targets=(4, 1)) == {0: 0.0, 1: 1.0, 2: 2.0}
    assert list(weighted_distances(view, 0, targets=(4,))) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        weighted_distances(view, 0, targets=(1, 5))


def test_view_owns_its_edge_ids():
    g = cycle_graph(6)
    ids = {0, 1}
    view = g.view(ids)
    ids.update(range(6))
    ids.discard(0)
    assert view.included == {0, 1}
    assert hop_distance(view, 0, 5, 6) == INF
    assert hop_distances(view, 0, 6) == {0: 0, 1: 1, 2: 2}


def test_view_add_rejects_bad_ids_before_changing():
    g = cycle_graph(6)
    view = g.view({0})
    for bad in ([2, -1], [3, 6]):
        with pytest.raises(ValueError, match="not in host graph"):
            view.add(bad)
        assert view.included == {0}
        assert list(view.edge_ids()) == [0]
        assert hop_distances(view, 2, 6) == {2: 0}
        assert shortest_path(view, 0, 1, 6) == (0,)
    full = g.view()
    with pytest.raises(ValueError, match="not in host graph"):
        full.add([6])
    full.add([0, 0])
    assert list(full.edge_ids()) == list(range(6))


def test_view_of_few_edges_costs_no_per_vertex_slot():
    # a one-edge header asking for 2**20 vertices: views of it stay small
    g = Multigraph(1 << 20, [(0, 1)])
    tracemalloc.start()
    try:
        view = g.view({0})
        view.add([0])
        grown = g.view(set())
        grown.add([0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for v in (view, grown):
        assert hop_distances(v, 1, 3) == {1: 0, 0: 1}
        assert hop_distances(v, 5, 3) == {5: 0}
