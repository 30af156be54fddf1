from __future__ import annotations

import tracemalloc

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
    weighted_ball,
    weighted_dist,
    weighted_distances,
)
from spannerlab.generators import cycle_graph, path_graph, petersen_graph
from spannerlab.graphs import shortest_path


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


def test_parallel_edges_have_distinct_ids():
    g = Multigraph(2, [(0, 1), (0, 1), (1, 0)])
    assert g.m == 3
    assert g.edge_ids_between(0, 1) == (0, 1, 2)
    assert not g.is_simple()


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
    with pytest.raises(ValueError):
        hop_distance(g.view(), 0, 9, 3)


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
    ],
    ids=["hop_distance", "hop_distances", "shortest_path"],
)
@pytest.mark.parametrize("y", [0, 2])
def test_searches_reject_negative_cutoff(search, y):
    with pytest.raises(ValueError, match="cutoff must be nonnegative"):
        search(path_graph(3).view(), 0, y)


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
        PathSeq.from_graph(g, (0, 1), (2,))


@given(small_graphs(), st.data())
def test_hop_distance_matches_oracle(g, data):
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 1))
    cutoff = data.draw(st.integers(0, g.n + 2))
    oracle = oracles.fw_hop(g.n, oracles.edges_of(g))[x][y]
    expected = oracle if oracle <= cutoff else INF
    assert hop_distance(g.view(), x, y, cutoff) == expected


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
