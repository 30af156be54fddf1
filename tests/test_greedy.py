from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import DICTS, MASKS, mask_rule, seeded_gnp, small_graphs
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
    gen_random,
    path_graph,
)
from spannerlab import greedy
from spannerlab import graphs
from spannerlab.graphs import bfs_layers, tree_path, weighted_dist
from spannerlab.greedy import sqrt_k_stretch

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
    # wins, and among parallel copies the smaller edge id wins, both in the
    # tree walk and in the greedy's first repair path
    g = Multigraph(4, [(0, 3), (3, 2), (0, 1), (1, 2), (0, 1)])
    tree: dict[int, int] = {}
    assert list(bfs_layers(g.view(), 0, 2, tree=tree)) == [[1, 3], [2]]
    assert tree_path(g, tree, 2) == (2, 3)
    first = greedy_dr_spanner(g, 2, 2).paths[0]
    assert (first.vertices, first.edge_ids) == ((0, 1, 2), (2, 3))
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
    """The greedy, on masks and on dicts, equals a replay that re-tests
    every pair from scratch: an all-pairs Floyd-Warshall over the kept
    edges, and the enumerated lex smallest d-path of the host when the pair
    is still far."""
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
    for rule in (MASKS, DICTS):
        with mask_rule(rule):
            got = greedy_dr_spanner(g, d, r)
        assert [(p.vertices, p.edge_ids) for p in got.paths] == expected


def replay_greedy_dr(g, d, r):
    """The naive replay above, on the rank-compacted host so that isolated
    vertices under a large header cost nothing: pairs at host distance d in
    lex order, and the enumerated lex smallest d-path for a pair still
    farther than r over the kept edges. Kept distances are an all-pairs table
    that each added edge relaxes through itself (exact for hops), not a
    Floyd-Warshall per pair. Returns (vertices, edge ids) per added path."""
    verts = g.vertices_with_edges()
    rank = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    edges = [(rank[u], rank[v]) for u, v in oracles.edges_of(g)]
    every = set(range(g.m))
    kept = [[0 if i == j else oracles.INF for j in range(n)] for i in range(n)]
    held: set[int] = set()
    out = []
    for x, y in oracles.pairs_at_distance(n, edges, d):
        if kept[x][y] <= r:
            continue
        eids = oracles.lex_shortest_path(n, edges, x, y, d, every)
        path = [x]
        for eid in eids:
            u, v = edges[eid]
            path.append(v if u == path[-1] else u)
            if eid in held:
                continue
            held.add(eid)
            row_u, row_v = kept[u][:], kept[v][:]
            for i in range(n):
                via_u, via_v, row = row_u[i] + 1, row_v[i] + 1, kept[i]
                for j in range(n):
                    alt = min(via_u + row_v[j], via_v + row_u[j])
                    if alt < row[j]:
                        row[j] = alt
        out.append((tuple(verts[v] for v in path), eids))
    return out


def midsize_hosts():
    """A simple G(50, .12); a multigraph whose parallel copies come both
    next to and far after their first copy; and G(55, .1) with its vertices
    scattered unordered over a 2**20 header."""
    simple = seeded_gnp(50, 0.12, 3)
    base = oracles.edges_of(seeded_gnp(45, 0.15, 5))
    multi = []
    for i, e in enumerate(base):
        multi += [e, e] if i % 4 == 0 else [e]
    multi += base[1::5]
    scatter = random.Random(8).sample(range(2**20), 55)
    sparse = [(scatter[u], scatter[v]) for u, v in oracles.edges_of(seeded_gnp(55, 0.1, 8))]
    return [simple, Multigraph(45, multi), Multigraph(2**20, sparse)]


@pytest.mark.parametrize("host", range(3), ids=["simple", "multigraph", "scattered"])
def test_greedy_dr_family_matches_replay_on_midsize_hosts(host):
    g = midsize_hosts()[host]
    replays = {}

    def replay(d, r):
        if (d, r) not in replays:
            replays[d, r] = replay_greedy_dr(g, d, r)
        return replays[d, r]

    def paths(result):
        return [(p.vertices, p.edge_ids) for p in result.paths]

    for rule in (MASKS, DICTS):
        with mask_rule(rule):
            for d, r in ((1, 3), (2, 4), (3, 5)):
                assert paths(greedy_dr_spanner(g, d, r)) == replay(d, r)
            for k in (2, 3):
                got = union_hybrid_spanner(g, k)
                assert paths(got) == replay(1, 2 * k - 1) + replay(2, 2 * k)
                assert got.edges == tuple(sorted({e for _, eids in paths(got) for e in eids}))
            for k in (2, 5):
                d, r = sqrt_k_stretch(k)
                assert paths(sqrt_k_spanner(g, k)) == replay(d, r)
    assert all(replays.values())


def counted_calls(monkeypatch, module, names):
    """Replace each named function of module by one that logs (name, args)
    to the returned list before calling it."""
    log = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            log.append((name, args))
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return log


@pytest.mark.parametrize("n, p", [(60, 0.3), (80, 0.15)])
def test_greedy_dr_one_ball_per_source(monkeypatch, n, p):
    """One host search per vertex with an edge gives the pairs and the
    repair paths, so the greedy runs no shortest-path search; one spanner
    ball per source with pairs; pair-by-pair searches are left only for
    misses after the source added a path. Masks: the host layer lists, the
    H-balls and the re-tests are ``hop_layers`` on the host table,
    ``hop_layers`` on the growing table and ``mask_distance``. Dicts (the
    rule forced): ``bfs_layers``, ``hop_distances`` and ``hop_distance``."""
    g = seeded_gnp(n, p, 0)
    verts = g.vertices_with_edges()
    pairs = oracles.pairs_at_distance(g.n, oracles.edges_of(g), 2)
    sources = sorted({x for x, _ in pairs})
    names = ("bfs_layers", "hop_distances", "hop_distance", "hop_layers", "mask_distance")
    searches = []
    real_path = graphs.shortest_path

    def counted_path(*args, **kwargs):
        searches.append(args[1:3])
        return real_path(*args, **kwargs)

    for module in (graphs, greedy):
        monkeypatch.setattr(module, "shortest_path", counted_path, raising=False)

    log = counted_calls(monkeypatch, greedy, names)
    result = greedy_dr_spanner(g, 2, 4)
    assert g.view(set()).masks is not None
    assert {name for name, _ in log} <= {"hop_layers", "mask_distance"}
    host = log[0][1][0]
    layers = [args for name, args in log if name == "hop_layers"]
    assert [args[1:] for args in layers if args[0] is host] == [(i, 2) for i in range(len(verts))]
    balls = [args for args in layers if args[0] is not host]
    assert [(verts[i], cutoff) for _, i, cutoff in balls] == [(x, 4) for x in sources]
    first_y = {}
    for path in result.paths:
        first_y.setdefault(path.x, path.y)
    retests = [args[1:3] for name, args in log if name == "mask_distance"]
    assert retests and all(verts[i] in first_y and first_y[verts[i]] < verts[j] for i, j in retests)
    assert searches == []

    log.clear()
    with mask_rule(DICTS):
        assert greedy_dr_spanner(g, 2, 4) == result
    calls = {name: sum(1 for called, _ in log if called == name) for name in names}
    assert calls["bfs_layers"] == len(verts)
    assert calls["hop_distances"] == len(sources)
    assert calls["hop_distance"] <= 2 * len(result.paths) + len(pairs) // 10
    assert calls["hop_layers"] == calls["mask_distance"] == 0
    assert searches == []


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


def _assert_distant_halves(n, paths, r):
    """Each kept 2-path, replayed against the union of the paths kept before
    it, has a half longer than r // 2 there: the halves sum to at least
    d(x, y) > r, which the greedy's test promised."""
    before: list[tuple[int, int]] = []
    for p in paths:
        x, mid, y = p.vertices
        dist = oracles.fw_hop(n, before)
        assert max(dist[x][mid], dist[mid][y]) > r // 2, (p.vertices, r)
        before += [(x, mid), (mid, y)]


@pytest.mark.parametrize("seed", range(8))
def test_kept_two_paths_have_a_distant_half(seed):
    g = seeded_gnp(14, 0.3, seed)
    two_paths = [
        PathSeq.from_graph(g, (x, mid, y))
        for x in range(g.n)
        for mid in sorted({u for u, _ in g.adj(x)})
        for y in sorted({u for u, _ in g.adj(mid)})
        if y > x
    ]
    random.Random(seed).shuffle(two_paths)
    coll = PathCollection(g.n, tuple(two_paths))
    clique = gen_big_clique(3 + seed % 4)
    for r in range(2, 7):
        _assert_distant_halves(g.n, greedy_dr_spanner(g, 2, r).paths, r)
        _assert_distant_halves(g.n, greedy_path_collection_spanner(coll, r).paths, r)
        _assert_distant_halves(clique.graph.n, greedy_path_collection_spanner(clique.paths, r).paths, r)


def test_path_collection_same_on_masks_and_dicts():
    colls = [gen_big_clique(t).paths for t in (3, 5, 7)]
    for seed in range(3):
        g = seeded_gnp(30, 0.2, seed + 40)
        two_paths = [
            PathSeq.from_graph(g, (x, mid, y))
            for x in range(g.n)
            for mid in sorted({u for u, _ in g.adj(x)})
            for y in sorted({u for u, _ in g.adj(mid)})
            if y > x
        ]
        random.Random(seed).shuffle(two_paths)
        colls.append(PathCollection(g.n, tuple(two_paths)))
    dropped = 0
    for coll in colls:
        for r in (2, 3, 5):
            got = []
            for rule in (MASKS, DICTS):
                with mask_rule(rule):
                    got.append(greedy_path_collection_spanner(coll, r))
            assert got[0] == got[1]
            dropped += len(coll.paths) - len(got[0].paths)
    assert dropped


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


def replay_parallel_greedy(g, k, rounds):
    """The parallel greedy replayed round by round on the rank-compacted
    host: a Floyd-Warshall table over the edges kept before the round gives
    each edge's distance test and each endpoint's cluster level, the largest
    l <= k with |B(v, r)|**k >= n**r for every r <= l, where n is the host's
    vertex count. Returns the rounds' added edge ids and the orientation."""
    verts = g.vertices_with_edges()
    rank = {v: i for i, v in enumerate(verts)}
    edges = [(rank[u], rank[v]) for u, v in oracles.edges_of(g)]
    kept, added, orientation = [], [], {}

    def level(row):
        for r in range(1, k + 1):
            if sum(d <= r for d in row) ** k < g.n**r:
                return r - 1
        return k

    for matching in rounds:
        dist = oracles.fw_hop(len(verts), [edges[e] for e in kept])
        passing = tuple(e for e in sorted(matching) if dist[edges[e][0]][edges[e][1]] > 2 * k - 1)
        for e in passing:
            u, v = edges[e]
            orientation[e] = verts[u] if (level(dist[u]), u) <= (level(dist[v]), v) else verts[v]
        kept += passing
        added.append(passing)
    return added, orientation


@pytest.mark.parametrize("host", range(3), ids=["simple", "multigraph", "scattered"])
def test_parallel_greedy_matches_replay_on_midsize_hosts(host):
    g = midsize_hosts()[host]
    rounds = matching_rounds(g)
    for k in (1, 2, 3):
        added, orientation = replay_parallel_greedy(g, k, rounds)
        for rule in (MASKS, DICTS):
            with mask_rule(rule):
                got = parallel_greedy_spanner(g, k, rounds)
            assert got.edges == tuple(sorted(e for r in added for e in r))
            assert got.meta["rounds"] == added
            assert got.meta["orientation"] == orientation
        assert any(added)


def test_mask_rule_boundary(monkeypatch):
    """256 disjoint edges on 512 vertices sit at N * N == 1024 * m and run
    on masks; one more edge to a new vertex puts 513**2 one past 1024 * 257,
    and no mask table is built: a view of the spanner keeps none, and the
    host's is never taken. The parallel greedy calls ``hop_distance`` and
    ``cluster_level`` either way, so its kernels are counted in ``graphs``."""
    at = Multigraph(513, [(2 * i, 2 * i + 1) for i in range(256)])
    past = Multigraph(513, [(2 * i, 2 * i + 1) for i in range(256)] + [(511, 512)])
    assert graphs.MASK_RULE == 1024
    assert len(at.vertices_with_edges()) ** 2 == 1024 * at.m
    assert len(past.vertices_with_edges()) ** 2 == 1024 * past.m + 1
    assert at.view(set()).masks is not None and past.view(set()).masks is None
    names = ("neighbor_masks", "hop_layers", "mask_distance", "bfs_layers", "hop_distances", "hop_distance")
    log = counted_calls(monkeypatch, greedy, names)
    graph_log = counted_calls(monkeypatch, graphs, ("mask_distance", "_mask_layers", "_grow", "bfs_layers"))
    for g, kernels, graph_kernels in (
        (at, {"neighbor_masks", "hop_layers"}, {"mask_distance", "_mask_layers"}),
        (past, {"bfs_layers", "hop_distances"}, {"_grow", "bfs_layers"}),
    ):
        log.clear()
        dr = greedy_dr_spanner(g, 2, 2)
        assert [p.vertices for p in dr.paths] == ([(510, 511, 512)] if g is past else [])
        assert {name for name, _ in log} == kernels
        graph_log.clear()
        assert parallel_greedy_spanner(g, 2, matching_rounds(g)).edges == tuple(range(g.m))
        assert {name for name, _ in graph_log} == graph_kernels


def test_matching_rounds_recovers_hypercube_dimensions():
    # round d is the edges whose endpoints differ in bit d, in id order
    for k in range(1, 9):
        bundle = gen_hypercube(k)
        g = bundle.graph
        dims = [tuple(e for e in range(g.m) if g.endpoints(e)[0] ^ g.endpoints(e)[1] == 1 << d) for d in range(k)]
        assert matching_rounds(g) == dims, k
        assert bundle.matchings == tuple(dims), k


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


def test_matching_rounds_cost_follows_edges_not_vertices():
    # a one-edge host at the parser's 2**24 vertex cap needs no slot per vertex
    g = Multigraph(2**24, [(0, 1)])
    tracemalloc.start()
    try:
        rounds = matching_rounds(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rounds == [(0,)]
    assert peak < 2**20


def test_greedy_dr_searches_only_from_vertices_with_edges(monkeypatch):
    # an isolated vertex has no pair, so it must cost no search, and no
    # entry in a mask table
    g = Multigraph(2**20, [(0, 1), (1, 2)])
    log = counted_calls(monkeypatch, greedy, ("bfs_layers", "hop_layers"))
    result = greedy_dr_spanner(g, 2, 2)
    assert [p.vertices for p in result.paths] == [(0, 1, 2)]
    host = log[0][1][0]
    assert {name for name, _ in log} == {"hop_layers"}
    assert [(len(args[0]), args[1]) for _, args in log if args[0] is host] == [(3, 0), (3, 1), (3, 2)]
    log.clear()
    with mask_rule(DICTS):
        assert greedy_dr_spanner(g, 2, 2) == result
    assert [args[1] for name, args in log if name == "bfs_layers"] == [0, 1, 2]


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


def test_greedy_multiplicative_rejects_nan_stretch():
    # every t < 1 test fails for NaN, which kept all 3 triangle edges
    g = Multigraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], weighted=True)
    assert len(greedy_multiplicative_spanner(g, 2).edges) == 2
    for t in (float("nan"), 0.5):
        with pytest.raises(ValueError, match="stretch must be at least 1"):
            greedy_multiplicative_spanner(g, t)


def test_greedy_multiplicative_unweighted_fractional_stretch():
    # on unit weights only whole hop counts exist, so t = 2.5 acts as t = 2
    # and t = 3.0 as t = 3
    for seed in range(4):
        g = seeded_gnp(14, 0.35, 300 + seed)
        for frac, whole in ((2.5, 2), (3.0, 3)):
            a = greedy_multiplicative_spanner(g, frac)
            b = greedy_multiplicative_spanner(g, whole)
            assert (a.edges, a.paths) == (b.edges, b.paths)


def fresh_search_multiplicative(g, t):
    """The classic greedy with one fresh capped search per edge, from the
    edge's first endpoint, in ascending (weight, id) order."""
    view = g.view(set())
    kept = []
    for eid in sorted(range(g.m), key=lambda e: (g.weight(e), e)):
        u, v = g.endpoints(eid)
        # INF: v is not reached within the cap, which can overflow to inf
        if weighted_dist(view, u, v, cap=t * g.weight(eid)) == graphs.INF:
            view.add((eid,))
            kept.append(eid)
    return kept


def multiplicative_replay_hosts():
    hosts = [seeded_gnp(n, p, seed, weighted=True) for n, p in ((30, 0.3), (60, 0.12)) for seed in range(3)]
    for seed in range(3):
        # weights from {0.1, 0.2, 0.3}: many equal weights, and 0.1 + 0.2
        # exceeds 0.3 by an ulp
        base = seeded_gnp(40, 0.15, 20 + seed)
        hosts.append(
            Multigraph(
                base.n,
                [(e.u, e.v, (0.1, 0.2, 0.3)[(e.u * 7 + e.v) % 3]) for e in base.edges()],
                weighted=True,
            )
        )
    # isolated vertices, and a sparse host with several components
    iso = seeded_gnp(25, 0.3, 7, weighted=True)
    shifted = [(e.u + 15, e.v + 15, e.weight) for e in iso.edges()]
    hosts.append(Multigraph(iso.n + 15, shifted, weighted=True))
    hosts.append(seeded_gnp(80, 0.03, 8, weighted=True))
    hosts += [seeded_gnp(n, p, 40 + seed) for n, p in ((20, 0.4), (50, 0.1)) for seed in range(2)]
    hosts += [cycle_graph(9), gen_hypercube(4).graph, Multigraph(6)]
    base = seeded_gnp(15, 0.3, 9)
    hosts.append(Multigraph(base.n, [(e.u, e.v) for e in base.edges() for _ in range(2)]))
    return hosts + overflow_hosts()


def overflow_hosts():
    """The path 0-1-2 and the triangle with a light edge 0-2, where every
    cap t * w of a heavy edge overflows to inf."""
    heavy = [(0, 1, 1e308), (1, 2, 1e308)]
    return [Multigraph(3, heavy, weighted=True), Multigraph(3, heavy + [(0, 2, 1.0)], weighted=True)]


def test_greedy_multiplicative_keeps_bridges_under_overflowing_caps():
    # an unreached endpoint never passes the distance test, also when t * w
    # is inf in floats
    path, triangle = overflow_hosts()
    for t in (1, 5):
        assert greedy_multiplicative_spanner(path, t).edges == (0, 1)
    assert greedy_multiplicative_spanner(triangle, 5).edges == (0, 2)


def test_greedy_multiplicative_replays_fresh_searches():
    for g in multiplicative_replay_hosts():
        for t in (1, 1.5, 3, 5):
            kept = fresh_search_multiplicative(g, t)
            result = greedy_multiplicative_spanner(g, t)
            assert [p.edge_ids for p in result.paths] == [(eid,) for eid in kept], (g, t)
            assert [p.vertices for p in result.paths] == [g.endpoints(eid) for eid in kept]
            assert result.edges == tuple(sorted(kept))


def test_greedy_multiplicative_memory_follows_edges():
    # one weighted host of the size_trends family at n = 400: keeping a whole
    # search map per vertex would take about 10 MiB
    g = seeded_gnp(400, 15 / 400, 0, weighted=True)
    tracemalloc.start()
    try:
        result = greedy_multiplicative_spanner(g, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.edges) < g.m
    assert peak < 2 * 2**20


def test_greedy_multiplicative_reuses_searches(monkeypatch):
    # phase 1 of the weighted spanner on the seed-0 host of the weighted
    # benchmark: one search per vertex and per stale map, not one per edge
    g = gen_random(90, 0.1685, 0, weighted=True).graph
    calls = []
    real = greedy.weighted_distances

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(greedy, "weighted_distances", counted)
    result = greedy_multiplicative_spanner(g, 5)
    assert (g.m, len(result.edges), len(calls)) == (685, 92, 183)
    assert set(calls) == {g.endpoints(eid)[0] for eid in range(g.m)}


def test_two_to_2k_size_trend_small():
    for k, n in ((2, 60), (2, 150), (3, 60), (3, 150)):
        for seed in (0, 1):
            g = seeded_gnp(n, 8 / n, seed)
            result = greedy_dr_spanner(g, 2, 2 * k)
            assert len(result.paths) <= 8 * n ** (1 + 1 / k)
