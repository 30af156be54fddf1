from __future__ import annotations

import random
import time

import pytest
from hypothesis import example, given, strategies as st

import oracles
from conftest import DICTS, MASKS, mask_rule, seeded_gnp, small_graphs
from spannerlab import (
    Multigraph,
    cluster_level,
    girth,
    greedy_clustering,
    has_cluster,
    hop_distance,
    hop_distances,
    matching_rounds,
    parallel_greedy_spanner,
)
from spannerlab import clustering, graphs, greedy
from spannerlab.cli import MAX_K
from spannerlab.clustering import ACCEPTED, REJECTED_CLOSE, REJECTED_CLUSTERED, least_ball_sizes
from spannerlab.generators import complete_graph, gen_random, path_graph, star_graph


def test_cluster_level_star():
    g = star_graph(10)
    assert cluster_level(g.view(), 0, 2) == 2
    for leaf in range(1, 10):
        assert cluster_level(g.view(), leaf, 2) == 0


def test_cluster_level_complete_graph_caps_at_k():
    for k in (1, 2, 3):
        g = complete_graph(6)
        for v in range(6):
            assert cluster_level(g.view(), v, k) == k


def test_cluster_level_empty_graph():
    g = Multigraph(5)
    assert cluster_level(g.view(), 3, 2) == 0


def test_is_fully_clustered_examples():
    # fully clustered at stretch s means a ceil(s/2)-cluster: 2 for s=3, 1 for s=2
    kn = complete_graph(8)
    for v in range(8):
        assert has_cluster(kn.view(), v, 2, 3)

    lonely = Multigraph(4, [(1, 2)])
    assert not has_cluster(lonely.view(), 0, 1, 2)

    # endpoint of P_5 with n=5, k=2, s=2: ball of radius 1 has 2 vertices and
    # 2**2 < 5**1, so the needed 1-cluster (ceil(s/2) = 1) is missing
    p5 = path_graph(5)
    assert not has_cluster(p5.view(), 0, 1, 2)


def test_cluster_level_tests_radii_past_the_last_layer():
    # the ball around the centre stops growing after one layer; the radii
    # past it are still tested, with the ball's final size of 4
    edges = [(0, 1), (0, 2), (0, 3)]
    star = Multigraph(4, edges).view()
    assert cluster_level(star, 0, 2) == 2  # 4**2 >= 4**2 at r = 2: equality passes
    assert cluster_level(star, 0, 3) == 3
    wide = Multigraph(8, edges).view()
    assert cluster_level(wide, 0, 2) == 1  # 4**2 < 8**2 at r = 2
    assert has_cluster(wide, 0, 1, 2) and not has_cluster(wide, 0, 2, 2)
    assert cluster_level(wide, 0, 4) == 2  # 4**4 >= 8**2 but 4**4 < 8**3


def test_cluster_searches_stop_at_the_first_thin_layer(monkeypatch):
    """On a host where every cluster level of the parallel greedy is 0, each
    cluster search settles exactly the radius-1 ball and no more: counted in
    the mask layers ``graphs`` takes on the spanner's masks, and in the
    ``bfs_layers`` it takes with the dict searches forced."""
    g = seeded_gnp(150, 0.08, 0)
    settled, balls, levels = [], [], []
    real_level = greedy.cluster_level

    def recorded_level(view, v, k):
        balls.append(len(hop_distances(view, v, 1)))
        levels.append(real_level(view, v, k))
        return levels[-1]

    def count_layers(name, size):
        real = getattr(graphs, name)

        def counted(*args, **kwargs):
            settled.append(1)
            for layer in real(*args, **kwargs):
                settled[-1] += size(layer)
                yield layer

        monkeypatch.setattr(graphs, name, counted)

    monkeypatch.setattr(greedy, "cluster_level", recorded_level)
    count_layers("_mask_layers", int.bit_count)
    count_layers("bfs_layers", len)
    results = []
    for rule in (MASKS, DICTS):
        del settled[:], balls[:], levels[:]
        with mask_rule(rule):
            results.append(parallel_greedy_spanner(g, 2, matching_rounds(g)))
        assert levels and set(levels) == {0}
        assert len(settled) == len(levels)
        assert settled == balls
    assert results[0] == results[1]


def test_cluster_tests_reject_bad_parameters():
    g = star_graph(4)
    for call in (
        lambda: has_cluster(g.view(), 0, -1, 2),
        lambda: has_cluster(g.view(), 0, 1, 0),
        lambda: cluster_level(g.view(), 0, 0),
        lambda: cluster_level(g.view(), 4, 2),
        lambda: has_cluster(g.view(), -1, 0, 2),
        lambda: cluster_level(g.view(range(g.m)), 4, 2),
        lambda: has_cluster(g.view(range(g.m)), -1, 0, 2),
        lambda: greedy_clustering(g, 2, (), 0),
    ):
        with pytest.raises(ValueError):
            call()


def test_exact_threshold_comparison_is_integer_exact():
    # 2-clustered at n=16, k=4 needs |B(v,2)|**4 >= 16**2, i.e. |B| >= 2
    g = path_graph(16)
    assert has_cluster(g.view(), 8, 2, 4)


def test_greedy_clustering_path_accepts_all():
    g = path_graph(5)
    trace = greedy_clustering(g, 2, range(g.m), 2)
    assert trace.added == (0, 1, 2, 3)
    assert all(verdict == ACCEPTED for _, verdict in trace.decisions)


def test_greedy_clustering_triangle_rejects_closing_edge():
    g = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    trace = greedy_clustering(g, 2, range(3), 2)
    assert trace.added == (0, 1)
    assert trace.decisions[2] == (2, REJECTED_CLOSE)


def test_greedy_clustering_empty_order():
    g = path_graph(4)
    trace = greedy_clustering(g, 3, (), 2)
    assert trace.added == ()
    assert trace.decisions == ()


def test_greedy_clustering_rejects_foreign_ids():
    g = path_graph(4)
    with pytest.raises(ValueError):
        greedy_clustering(g, 2, (0, 12), 2)


def test_greedy_clustering_records_clustered_rejections():
    # dense graph, tiny threshold: once every vertex is fully clustered the
    # remaining far pairs are rejected for clustering, not distance
    g = complete_graph(6)
    trace = greedy_clustering(g, 1, range(g.m), 6)
    reasons = {verdict for _, verdict in trace.decisions}
    assert ACCEPTED in reasons
    assert REJECTED_CLUSTERED in reasons


def test_greedy_clustering_girth_exceeds_s_plus_one():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randrange(6, 14)
        g = seeded_gnp(n, 0.4, seed + 100)
        s = rng.choice((2, 3, 4))
        k = rng.choice((2, 3))
        trace = greedy_clustering(g, s, range(g.m), k)
        kept = [(g.endpoints(e)) for e in trace.added]
        assert oracles.brute_girth(n, kept) > s + 1
        assert girth(g.view(frozenset(trace.added))) > s + 1


def test_greedy_clustering_same_trace_on_masks_and_dicts():
    # edge orders shuffled, so that far pairs and clustered rejections mix
    for seed in range(6):
        rng = random.Random(seed)
        g = seeded_gnp(rng.randrange(30, 70), rng.choice((0.1, 0.25)), seed + 200)
        order = list(range(g.m))
        rng.shuffle(order)
        s, k = rng.choice((2, 3, 4)), rng.choice((2, 3))
        traces = []
        for rule in (MASKS, DICTS):
            with mask_rule(rule):
                traces.append(greedy_clustering(g, s, order, k))
        assert traces[0] == traces[1]
        assert {verdict for _, verdict in traces[0].decisions} >= {ACCEPTED, REJECTED_CLOSE}


def test_greedy_clustering_size_bound():
    for seed in range(10):
        n = 40
        k = 2
        g = seeded_gnp(n, 0.3, seed)
        trace = greedy_clustering(g, k, range(g.m), k)
        assert len(trace.added) <= 4 * n ** (1 + 1 / k)


def test_k_clustered_vertex_sees_everything():
    # whenever the level reaches k, every vertex is within k hops
    for seed in range(20):
        g = seeded_gnp(9, 0.5, seed)
        view = g.view()
        for v in range(g.n):
            if cluster_level(view, v, 2) == 2:
                assert len(oracles.ball(g.n, oracles.edges_of(g), v, 2)) == g.n


@given(small_graphs(min_n=3, max_n=8), st.data())
def test_cluster_level_monotone_under_insertion(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    w = data.draw(st.integers(0, g.n - 1).filter(lambda z: z != u))
    bigger = Multigraph(g.n, [(e.u, e.v) for e in g.edges()] + [(u, w)])
    k = data.draw(st.integers(1, 4))
    v = data.draw(st.integers(0, g.n - 1))
    assert cluster_level(bigger.view(), v, k) >= cluster_level(g.view(), v, k)


@given(small_graphs(max_n=8, multigraph=True), st.data())
def test_cluster_tests_match_ball_oracle(g, data):
    mask = data.draw(st.none() | st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    included = None if mask is None else frozenset(e for e in range(g.m) if mask[e])
    kept = [(e.u, e.v) for e in g.edges() if included is None or e.id in included]
    view = g.view(included)
    k = data.draw(st.integers(1, 4))
    ell = data.draw(st.integers(0, k + 1))
    v = data.draw(st.integers(0, g.n - 1))

    def clustered(level):
        return all(
            len(oracles.ball(g.n, kept, v, r)) ** k >= g.n**r for r in range(1, level + 1)
        )

    assert has_cluster(view, v, ell, k) == clustered(ell)
    assert cluster_level(view, v, k) == max(
        level for level in range(k + 1) if clustered(level)
    )


@given(small_graphs(min_n=4, max_n=9, max_m=18), st.data())
def test_neighborhood_exchange(g, data):
    s = data.draw(st.integers(2, 5))
    view = g.view()
    far = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if hop_distance(view, u, v, s) > s
    ]
    if not far:
        return
    u, v = data.draw(st.sampled_from(far))
    ell = data.draw(st.integers(0, (s + 1) // 2 - 1))
    edges = oracles.edges_of(g)
    assert not (oracles.ball(g.n, edges, u, ell) & oracles.ball(g.n, edges, v, ell + 1))
    joined = edges + [(u, v)]
    assert oracles.ball(g.n, joined, u, ell) <= oracles.ball(g.n, joined, v, ell + 1)


@given(st.integers(0, 60), st.integers(1, 8), st.integers(0, 10))
@example(4, 2, 1)  # 2**2 == 4**1: the least size is 2, not 3
@example(2, 1, 3)  # 2**r > 2 for r >= 2: no ball of 2 vertices reaches it
def test_least_ball_sizes_match_a_scan(n, k, radius):
    radius = min(radius, k + 2)
    scan = tuple(min((s for s in range(n + 1) if s**k >= n**r), default=n + 1) for r in range(radius + 1))
    assert least_ball_sizes(n, k, radius) == scan


@given(small_graphs(max_n=10, max_m=20, multigraph=True), st.integers(1, 12), st.integers(0, 14), st.integers(0, 9))
@example(Multigraph(4, [(0, 1), (0, 2), (0, 3)]), 2, 2, 0)  # 4**2 == 4**2 past the last layer
@example(Multigraph(8, [(0, 1), (0, 2), (0, 3)]), 2, 4, 0)  # passes r = 2, fails r = 3
def test_level_matches_a_per_radius_scan(g, k, radius, v):
    """``_level`` against a scan that tests |B(v, r)|**k >= n**r at every
    radius in turn, with ball sizes from Floyd-Warshall. A small graph runs
    out of layers early, so radii up to k + 2 are mostly answered by the
    bisection of ``least_ball_sizes``."""
    radius, v = min(radius, k + 2), v % g.n
    dist = oracles.fw_hop(g.n, oracles.edges_of(g))[v]
    level = radius
    for r in range(1, radius + 1):
        if sum(d <= r for d in dist) ** k < g.n**r:
            level = r - 1
            break
    assert clustering._level(g.view(), v, k, radius) == level
    assert clustering._level(g.view(range(g.m)), v, k, radius) == level


def test_parallel_greedy_at_the_k_cap_is_fast():
    # cluster tests at every radius up to k compare ball sizes with one
    # cached table, not |B|**k with n**r, which took 7.5 s on a 2-vCPU host
    g = gen_random(1000, 0.01, 0).graph
    start = time.perf_counter()
    parallel_greedy_spanner(g, MAX_K, matching_rounds(g))
    assert time.perf_counter() - start < 3.0
