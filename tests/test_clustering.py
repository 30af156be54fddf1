from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import seeded_gnp, small_graphs
from spannerlab import (
    Multigraph,
    cluster_level,
    girth,
    greedy_clustering,
    has_cluster,
    hop_distance,
)
from spannerlab.clustering import ACCEPTED, REJECTED_CLOSE, REJECTED_CLUSTERED
from spannerlab.generators import complete_graph, path_graph, star_graph


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


def test_cluster_tests_reject_bad_parameters():
    g = star_graph(4)
    for call in (
        lambda: has_cluster(g.view(), 0, -1, 2),
        lambda: has_cluster(g.view(), 0, 1, 0),
        lambda: cluster_level(g.view(), 0, 0),
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
