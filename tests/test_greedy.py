from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import seeded_gnp, small_graphs
from spannerlab import (
    Multigraph,
    PathCollection,
    PathSeq,
    greedy_dr_spanner,
    greedy_multiplicative_spanner,
    greedy_path_collection_spanner,
    matching_rounds,
    parallel_greedy_spanner,
    sqrt_k_spanner,
    union_hybrid_spanner,
)
from spannerlab.generators import (
    complete_graph,
    cycle_graph,
    gen_big_clique,
    gen_hypercube,
    path_graph,
)
from spannerlab import greedy
from spannerlab.greedy import lex_shortest_path, sqrt_k_stretch


def spanner_ok(g, result, d, r):
    """Independent check: every host pair at distance d ends within r."""
    host = oracles.fw_hop(g.n, oracles.edges_of(g))
    kept = [g.endpoints(e) for e in result.edges]
    sub = oracles.fw_hop(g.n, kept)
    return all(
        sub[x][y] <= r
        for x in range(g.n)
        for y in range(x + 1, g.n)
        if host[x][y] == d
    )


def test_greedy_dr_small_diameter_gives_empty():
    g = complete_graph(5)  # diameter 1 < 2
    result = greedy_dr_spanner(g, 2, 4)
    assert result.edges == ()
    assert result.paths == ()


def test_greedy_dr_cycle_pairs():
    g = cycle_graph(6)
    result = greedy_dr_spanner(g, 2, 4)
    assert spanner_ok(g, result, 2, 4)
    # oracle: C_6 has six distance-2 pairs, all covered
    assert len(oracles.pairs_at_distance(6, oracles.edges_of(g), 2)) == 6


def test_greedy_dr_c5_keeps_all_edges():
    result = greedy_dr_spanner(cycle_graph(5), 1, 3)
    assert len(result.edges) == 5


def test_greedy_dr_rejects_weighted():
    g = Multigraph(3, [(0, 1, 0.5)], weighted=True)
    with pytest.raises(ValueError):
        greedy_dr_spanner(g, 1, 3)


def test_greedy_dr_deterministic_lex_paths():
    g = cycle_graph(6)
    a = greedy_dr_spanner(g, 2, 4)
    b = greedy_dr_spanner(g, 2, 4)
    assert a.edges == b.edges and a.paths == b.paths
    for p in a.paths:
        assert len(p.vertices) == 3


def test_lex_shortest_path_choice():
    # two shortest routes between 0 and 2 exist; the smaller middle vertex
    # wins, and among parallel copies the smaller edge id wins
    g = Multigraph(4, [(0, 3), (3, 2), (0, 1), (1, 2), (0, 1)])
    p = lex_shortest_path(g, 0, 2, 2)
    assert p.vertices == (0, 1, 2)
    assert p.edge_ids == (2, 3)
    first = greedy_dr_spanner(cycle_graph(6), 2, 4).paths[0]
    assert first.vertices == (0, 1, 2)


def test_greedy_dr_contract_on_random_instances():
    for seed in range(12):
        g = seeded_gnp(24, 0.2, seed)
        for k in (2, 3):
            result = greedy_dr_spanner(g, 2, 2 * k)
            assert spanner_ok(g, result, 2, 2 * k)


@settings(max_examples=300)
@given(small_graphs(multigraph=True), st.data())
def test_greedy_dr_matches_naive_replay(g, data):
    """The greedy equals a replay that re-tests every pair from scratch: an
    all-pairs Floyd-Warshall over the kept edges, and the enumerated lex
    smallest d-path of the host when the pair is still far."""
    d = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(d, 2 * d + 2))
    edges = oracles.edges_of(g)
    every = set(range(g.m))
    kept: set[int] = set()
    expected = []
    for x, y in oracles.pairs_at_distance(g.n, edges, d):
        if oracles.fw_hop(g.n, edges, every - kept)[x][y] <= r:
            continue
        eids = oracles.lex_shortest_path(g.n, edges, x, y, d, every)
        verts = [x]
        for eid in eids:
            u, v = edges[eid]
            verts.append(v if u == verts[-1] else u)
        kept.update(eids)
        expected.append((tuple(verts), eids))
    got = greedy_dr_spanner(g, d, r)
    assert [(p.vertices, p.edge_ids) for p in got.paths] == expected


@pytest.mark.parametrize("n, p", [(60, 0.3), (80, 0.15)])
def test_greedy_dr_one_ball_per_source(monkeypatch, n, p):
    """One BFS ball per source with pairs; pair-by-pair searches are left only
    for the distant-half checks and for misses after the source added a path."""
    g = seeded_gnp(n, p, 0)
    pairs = greedy.pairs_at_distance(g, 2)
    calls = {"hop_distances": 0, "hop_distance": 0}

    def counted(name):
        real = getattr(greedy, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(greedy, name, counted(name))
    result = greedy_dr_spanner(g, 2, 4)
    assert calls["hop_distances"] == g.n + len({x for x, _ in pairs})
    assert calls["hop_distance"] <= 2 * len(result.paths) + len(pairs) // 10


def test_path_collection_big_clique_forces_clique():
    bundle = gen_big_clique(4)
    result = greedy_path_collection_spanner(bundle.paths, 4)
    clique_pairs = {(i, j) for i in range(4) for j in range(i + 1, 4)}
    kept_pairs = {
        tuple(sorted(bundle.graph.endpoints(e))) for e in result.edges
    }
    assert clique_pairs <= kept_pairs
    assert len(result.paths) == 12


def test_path_collection_rejects_duplicate_path():
    g = path_graph(3)
    p = PathSeq.from_graph(g, (0, 1, 2))
    coll = PathCollection(3, (p, p))
    result = greedy_path_collection_spanner(coll, 4)
    assert len(result.paths) == 1


def test_path_collection_big_clique_t6():
    bundle = gen_big_clique(6)
    result = greedy_path_collection_spanner(bundle.paths, 4)
    kept_pairs = {tuple(sorted(bundle.graph.endpoints(e))) for e in result.edges}
    assert {(i, j) for i in range(6) for j in range(i + 1, 6)} <= kept_pairs


def test_path_collection_rejects_mixed_lengths():
    g = path_graph(4)
    p2 = PathSeq.from_graph(g, (0, 1, 2))
    p3 = PathSeq.from_graph(g, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        PathCollection(4, (p2, p3))


def test_path_collection_prefix_distance_replay():
    # replay: each kept path's endpoints were farther than r in the union of
    # the paths kept before it
    bundle = gen_big_clique(5)
    r = 4
    result = greedy_path_collection_spanner(bundle.paths, r)
    prefix_edges: list[tuple[int, int]] = []
    for p in result.paths:
        dist = oracles.fw_hop(bundle.graph.n, prefix_edges)
        assert dist[p.x][p.y] > r
        prefix_edges.extend(
            (a, b) for a, b in zip(p.vertices, p.vertices[1:])
        )


def test_parallel_greedy_hypercube_adds_everything():
    bundle = gen_hypercube(3)
    result = parallel_greedy_spanner(bundle.graph, 3, bundle.matchings)
    assert len(result.edges) == 12


def test_parallel_greedy_single_edge_rounds():
    g = Multigraph(4, [(0, 1), (2, 3)])
    result = parallel_greedy_spanner(g, 2, [(0,)])
    assert result.edges == (0,)
    repeat = parallel_greedy_spanner(g, 2, [(0,), (0,)])
    assert repeat.edges == (0,)
    assert repeat.meta["rounds"][1] == ()


def test_parallel_greedy_rejects_non_matching():
    g = Multigraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="vertex 1"):
        parallel_greedy_spanner(g, 2, [(0, 1)])


def test_parallel_greedy_size_and_orientation_bounds():
    for k in (2, 3, 4):
        bundle = gen_hypercube(k)
        result = parallel_greedy_spanner(bundle.graph, k, bundle.matchings)
        n = bundle.graph.n
        assert len(result.edges) <= 4 * k * n ** (1 + 1 / k)
        indeg: dict[int, int] = {}
        for head in result.meta["orientation"].values():
            indeg[head] = indeg.get(head, 0) + 1
        assert all(c <= 4 * k * n ** (1 / k) for c in indeg.values())


def test_parallel_greedy_matches_sequential_on_singleton_rounds():
    g = seeded_gnp(18, 0.3, 3)
    k = 2
    rounds = [(e,) for e in range(g.m)]
    par = parallel_greedy_spanner(g, k, rounds)
    seq = greedy_multiplicative_spanner(g, 2 * k - 1)
    assert par.edges == seq.edges


def test_matching_rounds_recovers_hypercube_dimensions():
    bundle = gen_hypercube(4)
    assert tuple(matching_rounds(bundle.graph)) == bundle.matchings


def rescanned_rounds(g):
    """Reference decomposition: build one round at a time, each by a scan of
    every edge that no earlier round took."""
    remaining = list(range(g.m))
    rounds = []
    while remaining:
        used, taken, leftover = set(), [], []
        for eid in remaining:
            u, v = g.endpoints(eid)
            if u in used or v in used:
                leftover.append(eid)
            else:
                used.update((u, v))
                taken.append(eid)
        rounds.append(tuple(taken))
        remaining = leftover
    return rounds


def test_matching_rounds_matches_rescanning_reference():
    hosts = [seeded_gnp(n, p, seed) for n, p in ((12, 0.3), (30, 0.2), (60, 0.5)) for seed in range(3)]
    hosts += [gen_hypercube(k).graph for k in range(1, 7)]
    base = seeded_gnp(15, 0.4, 7)
    hosts.append(Multigraph(base.n, [(e.u, e.v) for e in base.edges() for _ in range(3)]))
    hosts.append(Multigraph(4))
    for g in hosts:
        assert matching_rounds(g) == rescanned_rounds(g)


def test_sqrt_k_stretch_values():
    assert sqrt_k_stretch(4) == (2, 28)
    assert sqrt_k_stretch(1) == (1, 6)
    assert sqrt_k_stretch(9) == (3, 66)


def test_sqrt_k_spanner_contract():
    g = seeded_gnp(20, 0.25, 11)
    result = sqrt_k_spanner(g, 4)
    assert spanner_ok(g, result, 2, 28)


def test_sqrt_k_triangle():
    g = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    result = sqrt_k_spanner(g, 1)
    assert len(result.edges) == 2


def test_sqrt_k_small_diameter_empty():
    g = complete_graph(4)
    assert sqrt_k_spanner(g, 4).edges == ()  # diameter 1 < 2


def test_union_hybrid_tree_is_identity():
    g = path_graph(7)
    result = union_hybrid_spanner(g, 3)
    assert set(result.edges) == set(range(g.m))


def test_union_hybrid_stretch_contract():
    for seed, n in ((0, 20), (1, 16)):
        g = seeded_gnp(n, 0.3, seed)
        k = 2
        result = union_hybrid_spanner(g, k)
        host = oracles.fw_hop(g.n, oracles.edges_of(g))
        sub = oracles.fw_hop(g.n, [g.endpoints(e) for e in result.edges])
        for x in range(g.n):
            for y in range(x + 1, g.n):
                if host[x][y] < oracles.INF:
                    assert sub[x][y] <= k * host[x][y] + (k - 1)


def test_union_hybrid_k5():
    result = union_hybrid_spanner(complete_graph(5), 2)
    g = complete_graph(5)
    sub = oracles.fw_hop(5, [g.endpoints(e) for e in result.edges])
    assert all(sub[x][y] <= 3 for x in range(5) for y in range(x + 1, 5))


def test_greedy_multiplicative_weighted_keeps_high_girth_cycle():
    # C_5 with unit weights survives the stretch-3 greedy whole
    g = Multigraph(5, [(i, (i + 1) % 5, 1.0) for i in range(5)], weighted=True)
    assert len(greedy_multiplicative_spanner(g, 3).edges) == 5


def test_greedy_multiplicative_unweighted_fractional_stretch():
    # on unit weights only whole hop counts exist, so t = 2.5 acts as t = 2
    # and t = 3.0 as t = 3
    for seed in range(4):
        g = seeded_gnp(14, 0.35, 300 + seed)
        for frac, whole in ((2.5, 2), (3.0, 3)):
            a = greedy_multiplicative_spanner(g, frac)
            b = greedy_multiplicative_spanner(g, whole)
            assert (a.edges, a.paths) == (b.edges, b.paths)


def test_two_to_2k_size_trend_small():
    for k, n in ((2, 60), (2, 150), (3, 60), (3, 150)):
        for seed in (0, 1):
            g = seeded_gnp(n, 8 / n, seed)
            result = greedy_dr_spanner(g, 2, 2 * k)
            assert len(result.paths) <= 8 * n ** (1 + 1 / k)
