from __future__ import annotations

import pytest

import oracles
from conftest import seeded_gnp
from spannerlab import (
    Multigraph,
    PathSeq,
    SpannerParams,
    build_weighted_spanner,
    greedy_clustering,
    has_cluster,
    verify_weighted_bound,
    w_half,
    weighted_dist,
)
from spannerlab.generators import cycle_graph, gen_weighted_lower_bound
from spannerlab.weighted import P3_CONTAINED, P4_CLOSE, two_path_bound, _two_paths


def wpath(*weights):
    n = len(weights) + 1
    g = Multigraph(
        n, [(i, i + 1, w) for i, w in enumerate(weights)], weighted=True
    )
    return PathSeq.from_graph(g, range(n))


def test_w_half_examples():
    assert w_half(wpath(3, 1, 2)) == 5
    assert w_half(wpath(7)) == 7
    assert w_half(wpath(1, 1, 1, 1)) == 2


def test_w_half_empty_path():
    g = Multigraph(1)
    with pytest.raises(ValueError):
        w_half(PathSeq((0,), (), ()))


def test_build_rejects_bad_inputs():
    multi = Multigraph(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        build_weighted_spanner(multi, 2)
    simple = Multigraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        build_weighted_spanner(simple, 1)


def exhaustive_two_path_check(g, edge_ids, k):
    kept = [
        (g.endpoints(e)[0], g.endpoints(e)[1], g.weight(e)) for e in edge_ids
    ]
    dist = oracles.fw_weighted(g.n, kept)
    for x, _mid, y, e1, e2 in _two_paths(g):
        bound = two_path_bound(g.weight(e1), g.weight(e2), k)
        assert dist[x][y] <= bound * (1 + 1e-9)


def test_unit_weights_k2_bound():
    g = seeded_gnp(18, 0.25, 2)
    weighted = Multigraph(g.n, [(e.u, e.v, 1.0) for e in g.edges()], weighted=True)
    result = build_weighted_spanner(weighted, 2)
    exhaustive_two_path_check(weighted, result.edges, 2)


def test_lower_bound_instance_keeps_everything():
    bundle = gen_weighted_lower_bound(cycle_graph(5), 0.5, 2)
    result = build_weighted_spanner(bundle.graph, 2)
    assert set(result.edges) == set(range(bundle.graph.m))


def test_random_weighted_k3_two_paths():
    g = seeded_gnp(25, 0.3, 7, weighted=True)
    result = build_weighted_spanner(g, 3)
    exhaustive_two_path_check(g, result.edges, 3)


@pytest.mark.parametrize("k", [4, 5])
def test_higher_k_parities(k):
    # k = 4 and 5 exercise both parities of the growth radius bookkeeping
    for seed in (0, 1):
        g = seeded_gnp(30, 0.3, 7000 + seed, weighted=True)
        result = build_weighted_spanner(g, k)
        exhaustive_two_path_check(g, result.edges, k)


def test_unit_weight_host_without_weighted_flag():
    g = seeded_gnp(24, 0.3, 123)
    result = build_weighted_spanner(g, 2)
    report = verify_weighted_bound(g, result, 2, max_hops=4, sample=100)
    assert report.passed


def test_phase_sets_disjoint_and_cover():
    g = seeded_gnp(20, 0.3, 5, weighted=True)
    result = build_weighted_spanner(g, 2)
    phases = [result.phase1, result.phase2, result.phase3, result.phase4, result.phase5]
    flat = [e for phase in phases for e in phase]
    assert len(flat) == len(set(flat))
    assert set(result.edges) == set(flat)


def test_phase2_replays_through_greedy_clustering():
    # feeding the phase-2 additions, in order, to the clustering pass with
    # s = k must accept every one of them
    for seed in (0, 4, 9):
        g = seeded_gnp(22, 0.3, seed, weighted=True)
        k = 2
        result = build_weighted_spanner(g, k)
        trace = greedy_clustering(g, k, result.phase2, SpannerParams(n=g.n, k=k))
        assert trace.added == result.phase2


def test_saturated_edges_have_clustered_endpoints():
    for seed in (1, 6):
        g = seeded_gnp(22, 0.35, seed, weighted=True)
        k = 2
        result = build_weighted_spanner(g, k)
        params = SpannerParams(n=g.n, k=k)
        thresholds = result.saturation.thresholds
        hview_ids = result.edge_set
        for eid in result.saturation.saturated:
            u, v = g.endpoints(eid)
            w = g.weight(eid)
            assert u in thresholds and thresholds[u] <= w
            assert v in thresholds and thresholds[v] <= w
            tview = g.view(hview_ids, max_weight=w)
            assert has_cluster(tview, u, params.R, params)
            assert has_cluster(tview, v, params.R, params)


def test_phase3_per_vertex_budget():
    for seed in (0, 3):
        g = seeded_gnp(24, 0.35, seed, weighted=True)
        k = 2
        result = build_weighted_spanner(g, k)
        per_vertex: dict[int, int] = {}
        for dec in result.phase3_log:
            if dec.verdict == "added":
                per_vertex[dec.vertex] = per_vertex.get(dec.vertex, 0) + 1
        assert all(c <= 10 * g.n ** (1 / k) + 1 for c in per_vertex.values())


def test_key_lemma_spot_check():
    # a 2-path whose inner edge has roughly-close clusters and whose outer
    # edge was roughly contained is already served before the repair phase
    for seed in range(8):
        g = seeded_gnp(20, 0.35, seed, weighted=True)
        k = 2
        result = build_weighted_spanner(g, k)
        close = {eid for eid, verdict in result.phase4_log if verdict == P4_CLOSE}
        contained = {
            (dec.vertex, dec.edge_id)
            for dec in result.phase3_log
            if dec.verdict == P3_CONTAINED
        }
        before_repair = frozenset(
            set(result.phase1)
            | set(result.phase2)
            | set(result.phase3)
            | set(result.phase4)
        )
        pre_view = g.view(before_repair)
        for x, mid, y, e1, e2 in _two_paths(g):
            for sat, lat, far in ((e1, e2, y), (e2, e1, x)):
                if sat in close and (far, lat) in contained:
                    bound = two_path_bound(g.weight(e1), g.weight(e2), k)
                    assert weighted_dist(pre_view, x, y, cap=bound * (1 + 1e-9)) <= bound * (
                        1 + 1e-9
                    )


def phase5_gadget(t: int = 20, n: int = 400):
    """Instance that defeats phases 1-4 for the 2-path (x, m, y).

    Heavy unit-weight webs make x, m, y fully clustered; the g/s chains keep
    m's star 2-hop-close to x (so the global-reduction count stays at 2,
    which n = 400 tolerates), while the only x-y route runs through all of
    it at weight 5 against a bound of 4.
    """
    x, m, y, c = 0, 1, 2, 3
    s = [4 + i for i in range(t)]
    g = [4 + t + i for i in range(t)]
    rr = [4 + 2 * t + i for i in range(t)]
    edges: list[tuple[int, int, float]] = []
    edges += [(m, s[i], 1.0) for i in range(t)]
    edges += [(s[i], g[i], 1.0) for i in range(t)]
    edges += [(g[i], x, 1.0) for i in range(t)]
    edges += [(m, c, 1.0), (c, y, 1.0)]
    edges += [(y, rr[i], 1.0) for i in range(t)]
    e1 = len(edges)
    edges.append((x, m, 1.0))
    e2 = len(edges)
    edges.append((m, y, 1.0))
    return Multigraph(n, edges, weighted=True), e1, e2


def test_phase5_fires_on_adversarial_gadget():
    g, e1, e2 = phase5_gadget()
    result = build_weighted_spanner(g, 2)
    assert len(result.phase5_paths) == 1
    add = result.phase5_paths[0]
    assert add.path.vertices == (0, 1, 2)
    assert add.sat_edge == e1 and add.lat_edge == e2
    assert add.sat_edge in result.saturation.saturated
    assert add.key == pytest.approx(2 * g.weight(e2) + g.weight(e1))
    assert set(result.phase5) == {e1, e2}
    exhaustive_two_path_check(g, result.edges, 2)


def test_phase5_records_on_random_instances():
    for seed in range(25):
        g = seeded_gnp(16, 0.3, seed + 50, weighted=True)
        result = build_weighted_spanner(g, 2)
        for add in result.phase5_paths:
            assert add.sat_edge in result.saturation.saturated
            assert add.key == pytest.approx(
                2 * g.weight(add.lat_edge) + (2 - 1) * g.weight(add.sat_edge)
            )


def test_total_size_bound():
    for seed in (0, 1, 2):
        g = seeded_gnp(30, 0.4, seed, weighted=True)
        for k in (2, 3):
            result = build_weighted_spanner(g, k)
            assert len(result.edges) <= 40 * g.n ** (1 + 1 / k)


def test_verify_weighted_bound_whole_graph():
    g = seeded_gnp(15, 0.3, 8, weighted=True)
    report = verify_weighted_bound(g, range(g.m), 2, max_hops=4, sample=50)
    assert report.passed
    assert report.worst_ratio <= 1 + 1e-9


def test_verify_weighted_bound_detects_violation():
    # a star with the hub edges dropped cannot serve its 2-paths
    g = Multigraph(3, [(0, 1, 1.0), (1, 2, 1.0)], weighted=True)
    report = verify_weighted_bound(g, (), 2)
    assert not report.passed
    assert report.worst_ratio == oracles.INF


def test_verify_weighted_bound_single_edges_served():
    g = seeded_gnp(18, 0.3, 12, weighted=True)
    k = 2
    result = build_weighted_spanner(g, k)
    ids = result.edge_set
    kept = [(g.endpoints(e)[0], g.endpoints(e)[1], g.weight(e)) for e in ids]
    dist = oracles.fw_weighted(g.n, kept)
    for e in g.edges():
        assert dist[e.u][e.v] <= (2 * k - 1) * e.weight * (1 + 1e-9)


def test_verify_weighted_bound_rejects_multigraphs():
    g = Multigraph(3, [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0)], weighted=True)
    with pytest.raises(ValueError):
        verify_weighted_bound(g, range(g.m), 2)


def test_verify_weighted_bound_rejects_foreign_subgraphs():
    g = seeded_gnp(10, 0.4, 3, weighted=True)
    other = seeded_gnp(10, 0.4, 4, weighted=True)
    for h in (g, other.view()):
        with pytest.raises(ValueError):
            verify_weighted_bound(g, h, 2)


def test_verify_weighted_bound_deterministic_sampling():
    g = seeded_gnp(20, 0.3, 13, weighted=True)
    result = build_weighted_spanner(g, 2)
    a = verify_weighted_bound(g, result, 2, max_hops=4, sample=100, seed=5)
    b = verify_weighted_bound(g, result, 2, max_hops=4, sample=100, seed=5)
    assert a == b
