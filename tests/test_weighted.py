from __future__ import annotations

from dataclasses import astuple

import pytest

import oracles
from conftest import seeded_gnp
from spannerlab import (
    BudgetExceededError,
    Multigraph,
    PathSeq,
    build_weighted_spanner,
    greedy_clustering,
    has_cluster,
    hop_distance,
    verify_weighted_bound,
    weighted_ball,
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
    assert wpath(3, 1, 2).w_half == 5
    assert wpath(7).w_half == 7
    assert wpath(1, 1, 1, 1).w_half == 2


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
        trace = greedy_clustering(g, k, result.phase2, k)
        assert trace.added == result.phase2


def test_saturated_edges_have_clustered_endpoints():
    for seed in (1, 6):
        g = seeded_gnp(22, 0.35, seed, weighted=True)
        k = 2
        result = build_weighted_spanner(g, k)
        thresholds = result.saturation.thresholds
        ids = result.edge_set
        for eid in result.saturation.saturated:
            u, v = g.endpoints(eid)
            w = g.weight(eid)
            assert u in thresholds and thresholds[u] <= w
            assert v in thresholds and thresholds[v] <= w
            tview = g.view({e for e in ids if g.weight(e) <= w})
            assert has_cluster(tview, u, (k + 1) // 2, k)
            assert has_cluster(tview, v, (k + 1) // 2, k)


def test_phase4_offers_edges_far_in_thresholded_spanner():
    # phase 4 logs an edge iff its endpoints are more than k hops apart in
    # the spanner so far, restricted to edges no heavier than it
    for seed in (0, 2, 5):
        g = seeded_gnp(24, 0.3, seed, weighted=True)
        for k in (2, 3):
            result = build_weighted_spanner(g, k)
            logged = dict(result.phase4_log)
            spanner = set(result.phase1) | set(result.phase2) | set(result.phase3)
            for eid in sorted(range(g.m), key=lambda e: (g.weight(e), e)):
                w = g.weight(eid)
                light = g.view({e for e in spanner if g.weight(e) <= w})
                assert (hop_distance(light, *g.endpoints(eid), k) > k) == (eid in logged)
                if logged.get(eid) == "added":
                    spanner.add(eid)
            assert spanner == result.edge_set - set(result.phase5)


def test_phase2_matches_full_rescan():
    # phase 2 replayed with a fresh cluster test of every unclustered vertex
    # after each weight group, in a light view rebuilt from phase 1 and the
    # phase-2 additions so far
    for seed, n, p in ((0, 30, 0.3), (3, 40, 0.25), (5, 40, 0.4)):
        g = seeded_gnp(n, p, seed, weighted=True)
        for k in (2, 3, 4):
            R = (k + 1) // 2
            result = build_weighted_spanner(g, k)
            phase2: list[int] = []
            saturated: set[int] = set()
            thresholds: dict[int, float] = {}
            for w in sorted({g.weight(e) for e in range(g.m)}):
                light = {e for e in result.phase1 if g.weight(e) <= w} | set(phase2)
                view = g.view(light)
                for eid in sorted(e for e in range(g.m) if g.weight(e) == w):
                    u, v = g.endpoints(eid)
                    if hop_distance(view, u, v, k) <= k:
                        continue
                    if has_cluster(view, u, R, k) and has_cluster(view, v, R, k):
                        saturated.add(eid)
                    else:
                        phase2.append(eid)
                        view.add((eid,))
                for x in range(g.n):
                    if x not in thresholds and has_cluster(view, x, R, k):
                        thresholds[x] = w
            assert result.phase2 == tuple(phase2)
            assert result.saturation.saturated == saturated
            assert result.saturation.thresholds == thresholds


def test_phase3_matches_fresh_balls():
    # phase 3 replayed with a fresh weighted ball per candidate in the
    # spanner of phases 1-2 plus the phase-3 additions so far
    added = 0
    for seed, n, p, k in ((3, 30, 0.3, 2), (5, 30, 0.3, 4), (0, 40, 0.25, 2), (1, 40, 0.4, 2)):
        g = seeded_gnp(n, p, seed, weighted=True)
        R = (k + 1) // 2
        result = build_weighted_spanner(g, k)
        first = result.saturation.thresholds
        spanner = set(result.phase1) | set(result.phase2)
        view = g.view(spanner)
        phase3: list[int] = []
        log: list[tuple[int, int, int, float, str]] = []
        for v in range(g.n):
            cands = sorted(
                ((R - 1) * first[u] + g.weight(eid), u, eid)
                for u, eid in g.adj(v)
                if u in first
            )
            for key, u, eid in cands:
                ball_v = weighted_ball(view, v, key)
                if len(ball_v) ** k >= g.n**R:
                    log.append((v, u, eid, key, "saturated-candidate"))
                    continue
                ball_u = weighted_ball(view, u, (R - 1) * first[u])
                if (10 * len(ball_u - ball_v)) ** k > g.n ** (R - 1):
                    view.add((eid,))
                    phase3.append(eid)
                    log.append((v, u, eid, key, "added"))
                else:
                    log.append((v, u, eid, key, "roughly-contained"))
        assert result.phase3 == tuple(phase3)
        assert [astuple(d) for d in result.phase3_log] == log
        added += len(phase3)
    assert added >= 8


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


def test_verify_weighted_bound_budget():
    g = seeded_gnp(15, 0.3, 8, weighted=True)
    required = len(_two_paths(g)) + 50 * 2
    assert verify_weighted_bound(g, range(g.m), 2, max_hops=4, sample=50, budget=required).passed
    with pytest.raises(BudgetExceededError) as err:
        verify_weighted_bound(g, range(g.m), 2, max_hops=4, sample=50, budget=required - 1)
    assert err.value.required == required


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


def naive_two_paths(g):
    """(x, mid, y, e_xm, e_my) for every pair of edges sharing mid, x < y,
    ordered by (mid, x, y); built from the edge list alone."""
    ends = [(e.u, e.v, e.id) for e in g.edges()] + [(e.v, e.u, e.id) for e in g.edges()]
    out = [
        (x, mid, y, e1, e2)
        for x, mid, e1 in ends
        for mid2, y, e2 in ends
        if mid2 == mid and x < y
    ]
    return sorted(out, key=lambda t: (t[1], t[0], t[2]))


def test_two_paths_match_naive_enumeration():
    for seed in range(6):
        g = seeded_gnp(9 + seed, 0.4, 500 + seed, weighted=True)
        assert _two_paths(g) == naive_two_paths(g)
