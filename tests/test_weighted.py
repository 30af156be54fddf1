from __future__ import annotations

from dataclasses import astuple

import pytest

import oracles
from conftest import DICTS, MASKS, mask_rule, seeded_gnp
from spannerlab import (
    INF,
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
from spannerlab import weighted
from spannerlab.generators import cycle_graph, gen_random, gen_weighted_lower_bound
from spannerlab.fault_tolerant import _d_paths
from spannerlab.graphs import two_paths
from spannerlab.weighted import P3_CONTAINED, P4_CLOSE, two_path_bound


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
    for x, _mid, y, e1, e2 in two_paths(g):
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


@pytest.mark.parametrize("seed", range(6))
def test_same_spanner_on_masks_and_dicts(seed):
    # the benchmark's weighted host: phases 2 and 4 run their hop and
    # cluster tests on the growing views' masks unless the dicts are forced
    g = gen_random(90, 0.1685, seed, True).graph
    reprs = []
    for rule in (MASKS, DICTS):
        with mask_rule(rule):
            reprs.append(repr(build_weighted_spanner(g, 3)))
    assert reprs[0] == reprs[1]


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


def far_in_thresholded_spanner(g, kept, added, k):
    """The edges, in (weight, id) order, whose endpoints are more than k hops
    apart in the edges of ``kept`` no heavier than them plus the edges of
    ``added`` before them in that order."""
    far = []
    earlier: set[int] = set()
    for eid in sorted(range(g.m), key=lambda e: (g.weight(e), e)):
        light = g.view({e for e in kept if g.weight(e) <= g.weight(eid)} | earlier)
        if hop_distance(light, *g.endpoints(eid), k) > k:
            far.append(eid)
        if eid in added:
            earlier.add(eid)
    return far


@pytest.mark.parametrize("seed", range(4))
def test_phase2_tests_ties_after_all_phase1_edges_of_their_weight(seed):
    # on a unit-weight host every edge ties: phase 2 adds or records as
    # saturated exactly the edges more than k hops apart in all of phase 1
    # plus the phase-2 additions before them
    g = seeded_gnp(30, 0.3, seed)
    result = build_weighted_spanner(g, 3)
    tested = sorted(set(result.phase2) | result.saturation.saturated)
    assert far_in_thresholded_spanner(g, result.phase1, result.phase2, 3) == tested


@pytest.mark.parametrize("seed", range(4))
def test_phase4_tests_ties_after_all_earlier_edges_of_their_weight(seed):
    # on a unit-weight host every edge ties: phase 4 logs exactly the edges
    # more than k hops apart in all of phases 1-3 plus the phase-4 additions
    # before them
    g = seeded_gnp(30, 0.3, seed)
    result = build_weighted_spanner(g, 3)
    kept = result.phase1 + result.phase2 + result.phase3
    logged = [eid for eid, _ in result.phase4_log]
    assert far_in_thresholded_spanner(g, kept, result.phase4, 3) == logged


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


def test_phase3_searches_stop_at_saturation_size(monkeypatch):
    # each phase-3 search settles at most T vertices, the least T with
    # T**k >= n**R: a ball of T vertices already saturates a candidate
    real = weighted.weighted_distances
    limited: list[tuple[int, int]] = []

    def recording(*args, **kwargs):
        dist = real(*args, **kwargs)
        if "limit" in kwargs:
            limited.append((kwargs["limit"], len(dist)))
        return dist

    monkeypatch.setattr(weighted, "weighted_distances", recording)
    hosts = [(gen_random(90, 0.1685, 0, weighted=True).graph, 3)]
    for n, p, seed, k in ((30, 0.3, 3, 2), (40, 0.25, 0, 4), (60, 0.2, 1, 5)):
        hosts.append((seeded_gnp(n, p, seed, weighted=True), k))
    sizes = []
    for g, k in hosts:
        R = (k + 1) // 2
        size = next(s for s in range(g.n + 1) if s**k >= g.n**R)
        sizes.append(size)
        limited.clear()
        build_weighted_spanner(g, k)
        assert limited
        assert all(limit == size and settled <= size for limit, settled in limited)
        assert any(settled == size for _, settled in limited)
    assert sizes[0] == 21


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
        for x, mid, y, e1, e2 in two_paths(g):
            for sat, lat, far in ((e1, e2, y), (e2, e1, x)):
                if sat in close and (far, lat) in contained:
                    bound = two_path_bound(g.weight(e1), g.weight(e2), k)
                    assert weighted_dist(pre_view, x, y, cap=bound * (1 + 1e-9)) <= bound * (
                        1 + 1e-9
                    )


def phase5_gadget(t: int = 20, n: int = 400, twin: bool = False):
    """Instance that defeats phases 1-4 for the 2-path (x, m, y).

    Heavy unit-weight webs make x, m, y fully clustered; the g/s chains keep
    m's star 2-hop-close to x (so the global-reduction count stays at 2,
    which n = 400 tolerates), while the only x-y route runs through all of
    it at weight 5 against a bound of 4.

    With ``twin`` a second mid m2 = 4 + 3t, built like m with a star s2 of
    its own into the same g chains and c, gives a second such 2-path
    (x, m2, y), whose edges come after e1 and e2.
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
    m2 = 4 + 3 * t
    if twin:
        s2 = [m2 + 1 + i for i in range(t)]
        edges += [(m2, s2[i], 1.0) for i in range(t)]
        edges += [(s2[i], g[i], 1.0) for i in range(t)]
        edges.append((m2, c, 1.0))
    e1 = len(edges)
    edges.append((x, m, 1.0))
    e2 = len(edges)
    edges.append((m, y, 1.0))
    if twin:
        edges += [(x, m2, 1.0), (m2, y, 1.0)]
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


def test_phase5_skips_a_two_path_an_earlier_addition_repaired():
    # (x, m, y) and (x, m2, y) both miss their bound 4 after phase 4; the
    # first addition, x-m-y, brings y within 2 of x, so the re-check at
    # processing time skips (x, m2, y)
    g, e1, e2 = phase5_gadget(twin=True)
    result = build_weighted_spanner(g, 2)
    pre = pre_phase5_edges(result)
    opened = weighted._open_two_paths(g, pre, result.saturation.saturated, 2)
    assert opened[0] == [(1, 2, e1, e2, 4.0), (64, 2, e2 + 1, e2 + 2, 4.0)]
    assert weighted_dist(g.view(pre), 0, 2) > 4
    assert [add.path.vertices for add in result.phase5_paths] == [(0, 1, 2)]
    assert set(result.phase5) == {e1, e2}
    exhaustive_two_path_check(g, result.edges, 2)


def pre_phase5_edges(result) -> set[int]:
    return set(result.phase1) | set(result.phase2) | set(result.phase3) | set(result.phase4)


def two_path_hosts():
    hosts = [(gen_random(90, 0.1685, 0, weighted=True).graph, 3), (phase5_gadget()[0], 2)]
    hosts += [(seeded_gnp(n, p, seed, weighted=True), k) for n, p, seed, k in ((40, 0.25, 1, 2), (50, 0.2, 2, 4))]
    # vertices 0-14 isolated
    base = seeded_gnp(45, 0.2, 3, weighted=True)
    hosts.append((Multigraph(60, [(e.u + 15, e.v + 15, e.weight) for e in base.edges()], weighted=True), 5))
    return hosts


def test_skipped_two_paths_meet_their_bound_before_phase5():
    # phase 5 searches only the open 2-paths: no edge in the spanner of
    # phases 1-4 and a saturated edge. Every other 2-path must meet its
    # bound in that spanner already, by Floyd-Warshall over its vertices
    # with an edge
    for g, k in two_path_hosts():
        result = build_weighted_spanner(g, k)
        pre = pre_phase5_edges(result)
        sat = result.saturation.saturated
        tested = {
            (x, mid, y, e1, e2)
            for x, paths in weighted._open_two_paths(g, pre, sat, k).items()
            for mid, y, e1, e2, _ in paths
        }
        rank = {v: i for i, v in enumerate(g.vertices_with_edges())}
        kept = [(rank[e.u], rank[e.v], e.weight) for e in g.edges() if e.id in pre]
        dist = oracles.fw_weighted(len(rank), kept)
        skipped = [path for path in two_paths(g) if path not in tested]
        for x, mid, y, e1, e2 in skipped:
            assert (e1 in pre or e2 in pre) or not (e1 in sat or e2 in sat)
            bound = two_path_bound(g.weight(e1), g.weight(e2), k)
            assert dist[rank[x]][rank[y]] <= bound * (1 + 1e-9), (g, k, x, mid, y)
        assert len(skipped) > len(tested)
        for x, mid, y, e1, e2 in tested:
            assert e1 not in pre and e2 not in pre and (e1 in sat or e2 in sat)
    g, e1, e2 = phase5_gadget()
    result = build_weighted_spanner(g, 2)
    opened = weighted._open_two_paths(g, pre_phase5_edges(result), result.saturation.saturated, 2)
    assert (1, 2, e1, e2, 4.0) in opened[0]


def test_phase5_searches_once_per_open_source(monkeypatch):
    # one search per source of an open 2-path, cut at its largest slack
    # bound and stopped at the far ends of its 2-paths
    real = weighted.weighted_distances
    searches = []

    def recording(view, source, **kwargs):
        dist = real(view, source, **kwargs)
        if "targets" in kwargs:
            searches.append((source, kwargs["cap"], set(kwargs["targets"]), dist))
        return dist

    monkeypatch.setattr(weighted, "weighted_distances", recording)
    for g, k in two_path_hosts():
        searches.clear()
        result = build_weighted_spanner(g, k)
        opened = weighted._open_two_paths(g, pre_phase5_edges(result), result.saturation.saturated, k)
        assert [x for x, *_ in searches] == list(opened)
        for x, cap, targets, dist in searches:
            paths = opened[x]
            assert targets == {y for _, y, *_ in paths}
            assert cap == max(bound for *_, bound in paths) * (1 + weighted._REL_EPS)
            assert max(dist.values()) <= cap
    # the seed-0 host of the weighted benchmark: 285 of its 10,384 2-paths
    # are open, from 71 of the 89 sources an uncut scan would search
    g = gen_random(90, 0.1685, 0, weighted=True).graph
    searches.clear()
    result = build_weighted_spanner(g, 3)
    opened = weighted._open_two_paths(g, pre_phase5_edges(result), result.saturation.saturated, 3)
    assert (len(searches), sum(map(len, opened.values())), len(two_paths(g))) == (71, 285, 10384)


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


def test_overflowing_bounds_keep_bridges_and_fail_unreached_pairs():
    # weights of 1e308 make every bound on the path 0-1-2 inf in floats; an
    # unreached pair still fails it, with ratio INF
    path = Multigraph(3, [(0, 1, 1e308), (1, 2, 1e308)], weighted=True)
    report = verify_weighted_bound(path, [0], 2)
    assert (report.passed, report.worst_ratio, report.worst_case) == (False, INF, (0, 1, 2))
    triangle = Multigraph(3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1.0)], weighted=True)
    assert not verify_weighted_bound(triangle, [2], 2).passed
    for g, kept in ((path, (0, 1)), (triangle, (0, 2))):
        for k in (2, 3):
            result = build_weighted_spanner(g, k)
            assert result.edges == result.phase1 == kept
            assert verify_weighted_bound(g, result, k, max_hops=3, sample=5).passed


def test_verify_weighted_bound_budget():
    g = seeded_gnp(15, 0.3, 8, weighted=True)
    required = len(two_paths(g)) + 50 * 2
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


def test_verify_weighted_bound_samples_past_isolated_vertices():
    # a 4-edge path under a header of 2**16 vertices: sampled paths start at
    # a vertex with an edge, so the isolated ones cost no failed draw
    g = Multigraph(2**16, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (3, 4, 1.0)], weighted=True)
    report = verify_weighted_bound(g, range(g.m), 2, max_hops=4, sample=200)
    assert report.passed and report.two_paths_checked == 3
    assert report.sampled_checked > 0


def naive_two_paths(g):
    """(x, mid, y, e_xm, e_my) for every pair of edges sharing mid, x < y,
    ordered by (mid, x, e_xm, y, e_my); built from the edge list alone."""
    ends = [(e.u, e.v, e.id) for e in g.edges()] + [(e.v, e.u, e.id) for e in g.edges()]
    out = [
        (x, mid, y, e1, e2)
        for x, mid, e1 in ends
        for mid2, y, e2 in ends
        if mid2 == mid and x < y
    ]
    return sorted(out, key=lambda t: (t[1], t[0], t[3], t[2], t[4]))


def test_two_paths_match_naive_enumeration():
    # doubled hosts have two edges to each neighbor, which form no 2-path;
    # the EFT candidates are the same 2-paths in (x, mid, y, ids) order
    for seed in range(6):
        g = seeded_gnp(9 + seed, 0.4, 500 + seed, weighted=True)
        doubled = Multigraph(g.n, [(e.u, e.v) for e in g.edges() for _ in range(2)])
        for host in (g, doubled):
            naive = naive_two_paths(host)
            assert two_paths(host) == naive
            assert [(*p.vertices, *p.edge_ids) for p in _d_paths(host, 2)] == sorted(naive)
