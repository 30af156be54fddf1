from __future__ import annotations

import random
import time
import tracemalloc
from math import comb

import pytest
from hypothesis import assume, given, strategies as st

from conftest import seeded_gnp, small_graphs
from oracles import edges_of, first_violation, weighted_edges_of
from spannerlab import (
    INF,
    BudgetExceededError,
    Multigraph,
    eft_greedy_exact,
    greedy_dr_spanner,
    hop_distance,
    size_report,
    union_hybrid_spanner,
    verify_alpha_beta,
    verify_dr,
    verify_eft,
    verify_weighted_bound,
)
from spannerlab import verify
from spannerlab.graphs import SOURCE_BLOCK
from spannerlab.generators import complete_graph, cycle_graph, gen_eft_lower_bound, gen_random, path_graph


def test_verify_dr_full_graph_passes():
    g = cycle_graph(6)
    for d, r in ((1, 1), (2, 3), (3, 3)):
        assert verify_dr(g, range(g.m), d, r).passed


def test_verify_dr_detects_missing_edge():
    g = cycle_graph(6)
    h = set(range(g.m)) - {2}
    report = verify_dr(g, h, 1, 3)
    assert not report.passed
    ce = report.counterexample
    assert {ce.x, ce.y} == set(g.endpoints(2))
    assert ce.distance == 5 and ce.faults == ()


def test_verify_dr_accepts_greedy_outputs():
    for seed in range(10):
        g = seeded_gnp(20, 0.25, seed)
        result = greedy_dr_spanner(g, 2, 4)
        assert verify_dr(g, result.edges, 2, 4).passed


def test_verify_dr_rejects_foreign_ids():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        verify_dr(g, {99}, 1, 1)


def test_verify_eft_f0_matches_dr():
    g = seeded_gnp(12, 0.3, 3)
    h = greedy_dr_spanner(g, 2, 4).edges
    a = verify_dr(g, h, 2, 4)
    b = verify_eft(g, h, 2, 4, 0)
    assert a.passed == b.passed


def test_verify_eft_finds_fault_witness():
    bundle = gen_eft_lower_bound(cycle_graph(6), 2)
    g = bundle.graph
    # dropping any one parallel copy breaks tolerance at f = 2
    h = set(range(g.m)) - {0}
    report = verify_eft(g, h, 2, 4, 2)
    assert not report.passed
    ce = report.counterexample
    assert len(ce.faults) <= 2
    # the witness replays: distance really exceeds the bound under the faults
    hview = g.view(frozenset(h))
    assert hop_distance(hview, ce.x, ce.y, 10, excluded=ce.faults) > 4
    gview = g.view()
    assert hop_distance(gview, ce.x, ce.y, 10, excluded=ce.faults) == 2


def test_verify_eft_budget():
    g = seeded_gnp(20, 0.4, 1)
    with pytest.raises(BudgetExceededError) as err:
        verify_eft(g, range(g.m), 2, 4, 2, budget=100)
    assert err.value.required > 100


def _timed(call):
    start = time.perf_counter()
    result = call()
    assert time.perf_counter() - start < 1.0
    return result


def test_fault_budget_past_the_edge_count_is_clamped():
    # no fault set has more than m edges, so f beyond m names the same sets
    g = path_graph(4)
    report = _timed(lambda: verify_eft(g, range(g.m), 2, 4, 10**7))
    assert report == verify_eft(g, range(g.m), 2, 4, g.m)
    assert report.fault_sets_checked == 8
    host = seeded_gnp(30, 0.2, 0)
    errors = []
    for f in (10**8, host.m):
        with pytest.raises(BudgetExceededError) as err:
            _timed(lambda: verify_alpha_beta(host, range(host.m), 2, 1, f))
        errors.append(err.value.required)
    assert errors[0] == errors[1] == (2**host.m) * comb(len(host.vertices_with_edges()), 2)


def test_weighted_check_walks_only_lengths_that_draw():
    # no draw finds a simple path of more than N - 1 hops for the N vertices
    # with an edge, and with no samples no length draws at all
    g = Multigraph(6, [(i, i + 1, 1.0 + i) for i in range(5)], weighted=True)
    h = range(g.m)
    report = _timed(lambda: verify_weighted_bound(g, h, 2, max_hops=10**9, sample=0))
    assert report == verify_weighted_bound(g, h, 2, max_hops=2, sample=0)
    report = _timed(lambda: verify_weighted_bound(g, h, 2, max_hops=3000, sample=3))
    assert report == verify_weighted_bound(g, h, 2, max_hops=5, sample=3)
    assert report.sampled_checked == 3 * 3  # at lengths 3, 4 and 5


@pytest.mark.parametrize(
    "oracle, args",
    [
        (verify_dr, (0, 2)),
        (verify_dr, (2, -1)),
        (verify_eft, (0, 4, 1)),
        (verify_eft, (2, -1, 1)),
        (verify_eft, (2, 4, -1)),
        (verify_alpha_beta, (2, 1, -1)),
        (verify_alpha_beta, (-1, 1, 0)),
        (verify_alpha_beta, (2, -0.5, 0)),
        (verify_alpha_beta, (float("nan"), 1, 0)),
        (verify_alpha_beta, (2, INF, 0)),
        (verify_weighted_bound, (2, 1, 0)),
        (verify_weighted_bound, (2, -1, 0)),
        (verify_weighted_bound, (2, 4, -1)),
        (verify_weighted_bound, (0,)),
        (verify_weighted_bound, (-1,)),
        (verify_weighted_bound, (float("nan"),)),
    ],
)
def test_oracles_reject_bad_parameters(oracle, args):
    # the parameters are checked first: with budget 0 a valid call raises
    # BudgetExceededError instead
    g = cycle_graph(6)
    with pytest.raises(ValueError):
        oracle(g, range(g.m), *args, budget=0)


@pytest.mark.parametrize(
    "oracle, args",
    [
        (verify_dr, (2, 4)),
        (verify_eft, (2, 4, 1)),
        (verify_alpha_beta, (2, 1)),
        (verify_weighted_bound, (2,)),
    ],
)
def test_oracles_reject_what_is_not_an_edge_subset(oracle, args):
    # a graph, a view and a result are not iterables of ids: the oracle
    # raises from the TypeError of the id conversion, and tests no type
    g = cycle_graph(6)
    for h, message in (
        (g, "pass an iterable of host edge ids: 'Multigraph' object is not iterable"),
        (g.view({0}), "pass an iterable of host edge ids: 'SubgraphView' object is not iterable"),
        (greedy_dr_spanner(g, 2, 4), "pass an iterable of host edge ids: 'SpannerResult' object is not iterable"),
        ([0, 99], "edge id 99 is not an edge of the host graph"),
        ([-1], "edge id -1 is not an edge of the host graph"),
    ):
        with pytest.raises(ValueError, match=message) as err:
            oracle(g, h, *args)
        assert isinstance(err.value.__cause__, TypeError) == message.startswith("pass")


@pytest.mark.parametrize(
    "oracle, args",
    [
        (verify_dr, (2, 3)),
        (verify_eft, (2, 3, 1)),
        (verify_alpha_beta, (1, 1)),
        (verify_weighted_bound, (2,)),
    ],
)
def test_oracles_read_a_view_over_the_host_as_its_ids(oracle, args):
    # a caller holding a view passes its edge_ids(), a one-pass iterator
    g = seeded_gnp(9, 0.5, 4)
    for ids in (set(), {0, 2, 3, 5}, set(range(1, g.m)), set(range(g.m))):
        assert oracle(g, g.view(ids).edge_ids(), *args) == oracle(g, ids, *args)
    assert oracle(g, g.view().edge_ids(), *args) == oracle(g, range(g.m), *args)


def test_verify_alpha_beta_union_contract():
    g = seeded_gnp(16, 0.3, 5)
    k = 2
    h = union_hybrid_spanner(g, k).edges
    assert verify_alpha_beta(g, h, k, k - 1, f=0).passed


def test_verify_alpha_beta_spanning_tree_fails_exact():
    g = complete_graph(4)
    tree = {e for e in range(g.m) if 0 in g.endpoints(e)}
    report = verify_alpha_beta(g, tree, 1, 0)
    assert not report.passed
    assert report.counterexample.distance == 2
    assert report.counterexample.bound == 1


@pytest.mark.parametrize("f", [0, 1])
def test_verify_alpha_beta_bound_overflowing_to_inf_passes(f):
    # alpha * dist + beta is inf in floats: every pair is within it
    g = path_graph(4)
    assert verify_alpha_beta(g, range(g.m), 1e308, 1e308, f).passed


@pytest.mark.parametrize("f", [0, 1])
def test_verify_alpha_beta_unreached_pair_fails_an_overflowing_bound(f):
    # 0-1 weighs 1e308, so alpha * dist + beta is inf; H = {0-2} leaves
    # vertex 1 unreached, and that fails against any bound
    g = Multigraph(3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1.0)], weighted=True)
    report = verify_alpha_beta(g, {2}, 2, 1, f)
    assert not report.passed
    assert report.counterexample == verify.Counterexample(0, 1, (), INF, INF)
    # with one fault, 1-2 is needed once 0-1 fails
    assert verify_alpha_beta(g, {0, 2} if f == 0 else {0, 1, 2}, 2, 1, f).passed


def test_verify_alpha_beta_weighted_graphs():
    g = Multigraph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)], weighted=True)
    assert verify_alpha_beta(g, {0, 1}, 1, 0).passed  # 0-2 via 1 costs 3 < 4
    assert not verify_alpha_beta(g, {0, 2}, 1, 0).passed


def test_size_report_cases():
    assert size_report(0, 10, 2).ratio == 0
    kn = complete_graph(8)
    rep = size_report(kn.m, 8, None)
    assert rep.ratio == pytest.approx(kn.m / 8)
    rep2 = size_report(kn.m, 8, 2)
    assert rep2.ratio == pytest.approx(28 / 8**1.5)
    assert size_report(0, 0, 2).ratio == 0


def test_size_report_rejects_k_not_positive():
    for k in (0, -1, -0.5, float("nan")):
        with pytest.raises(ValueError, match="need k > 0 or None"):
            size_report(5, 10, k)
    assert size_report(5, 10, INF).ratio == size_report(5, 10, None).ratio == 0.5


def test_weighted_bound_rejects_k_below_one():
    # at k = 1 the bound is w(P): H = {0-1, 0-3, 3-2} takes 0-3-2 (21.0)
    # for the 2-path 0-1-2 (3.0); at k = 0 every bound was negative and
    # the check passed with worst_ratio 0.0
    g = Multigraph(4, [(0, 1, 1.0), (1, 2, 2.0), (0, 3, 10.0), (3, 2, 11.0)], weighted=True)
    report = verify_weighted_bound(g, [0, 2, 3], 1)
    assert not report.passed and report.worst_ratio == 7.0
    assert report.worst_case == (0, 1, 2)
    for k in (0, 0.5, -2):
        with pytest.raises(ValueError, match="need k >= 1"):
            verify_weighted_bound(g, [0, 2, 3], k)
    # equal weights made the bound 0 at k = 0, a division by zero
    with pytest.raises(ValueError, match="need k >= 1"):
        verify_weighted_bound(path_graph(3), [0], 0)


def test_weighted_bound_worst_case_can_be_a_sampled_path():
    # every 2-path is within 1.5 of its bound, but the sampled 3-path
    # 2-1-0-4 (weight 3) has its ends 5 apart in H, which lacks 0-4 and 1-2
    g = Multigraph(
        5,
        [(0, 1, 1.0), (0, 3, 2.0), (0, 4, 1.0), (1, 2, 1.0), (1, 3, 1.0),
         (1, 4, 3.0), (2, 3, 1.0), (2, 4, 5.0), (3, 4, 5.0)],
        weighted=True,
    )
    h = [0, 1, 4, 5, 6, 7, 8]
    two = verify_weighted_bound(g, h, 1)
    assert (two.worst_ratio, two.worst_case) == (1.5, (1, 0, 4))
    report = verify_weighted_bound(g, h, 1, max_hops=3, sample=10, seed=0)
    assert report.sampled_checked == 10
    assert report.worst_case == (2, 1, 0, 4)
    assert report.worst_ratio == pytest.approx(5 / 3)
    assert not report.passed


def test_size_report_on_midsize_greedy_run():
    g = seeded_gnp(200, 0.1, 77)
    k = 2
    result = greedy_dr_spanner(g, 2, 2 * k)
    rep = size_report(len(result.edges), g.n, k)
    assert rep.edges == len(result.edges)
    assert rep.ratio <= 8


def test_counterexample_replay_property():
    # every reported violation re-checks with a fresh distance query
    for seed in range(6):
        g = seeded_gnp(12, 0.35, seed)
        if g.m < 5:
            continue
        h = set(range(g.m)) - {0, 1}
        report = verify_eft(g, h, 2, 4, 1)
        if report.passed:
            continue
        ce = report.counterexample
        hview = g.view(frozenset(h))
        gview = g.view()
        assert hop_distance(gview, ce.x, ce.y, g.n, excluded=ce.faults) == 2
        assert hop_distance(hview, ce.x, ce.y, g.n, excluded=ce.faults) == ce.distance
        assert ce.distance > 4 or ce.distance == INF


def test_verify_eft_skips_fault_sets_off_the_fault_free_trees(monkeypatch):
    # the eft benchmark instance: a doubled G(20, .4) and its eft-exact spanner
    simple = gen_random(20, 0.4, 0).graph
    g = Multigraph(simple.n, [(e.u, e.v) for e in simple.edges() for _ in range(2)])
    h = eft_greedy_exact(g, 2, 4, 2)[0].edges
    counts = {"hop_distances": 0, "tree_edges": 0, "rank_neighbors": 0, "block_layers": 0, "tables": 0}

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted

    def counting_tables(*args, real=verify.block_layers):
        counts["block_layers"] += 1
        for tables in real(*args):
            counts["tables"] += 1
            yield tables

    for name in ("hop_distances", "tree_edges", "rank_neighbors"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    monkeypatch.setattr(verify, "block_layers", counting_tables)
    # f = 0 builds no trees and runs no dict search: one block of the 20
    # source ranks on each side, G's tables taken to hop 2 and H's to
    # radius 4 (3 + 5 tables, 6 steps)
    assert verify_dr(g, h, 2, 4) == verify.VerificationReport(True, None, 107, 1)
    assert counts == {"hop_distances": 0, "tree_edges": 0, "rank_neighbors": 2, "block_layers": 2, "tables": 8}
    # 5,291 searches without the skip; the report is the same, and f = 1
    # keeps the dict searches
    assert verify_eft(g, h, 2, 4, 1) == verify.VerificationReport(True, None, 15301, 143)
    assert counts["hop_distances"] == 990
    # one G tree and one H tree per source of the fault-free pass
    assert counts["tree_edges"] == 2 * 20
    assert (counts["rank_neighbors"], counts["block_layers"], counts["tables"]) == (2, 2, 8)


def test_verify_skip_keeps_tree_acyclic_under_absorbed_weights():
    # 2**53 + 1 == 2**53, so 1 and 2 look like each other's parents over
    # edge 4; a tree of that edge alone would skip F = {1, 3}, which cuts
    # both off from 0
    big = 2.0**53
    g = Multigraph(5, [(0, 3, 1.0), (3, 1, big), (0, 4, 1.0), (4, 2, big), (1, 2, 1.0)], weighted=True)
    expected = first_violation(g.n, weighted_edges_of(g), range(g.m), 2, lambda dist: dist, True)
    _matches(verify_alpha_beta(g, range(g.m), 1, 0, 2), expected)


def _spread_host(n_edged, p, seed, header, weighted=False, doubled=False, piece=None):
    """A seeded G(n_edged, p) plus a path through all its vertices, placed on
    ascending random ids under a larger header, so isolated vertices sit
    between the ones with an edge. With ``piece``, edges join only vertices
    in the same run of ``piece`` consecutive ones, so the host falls apart
    into components. Returns the host and its compact form (vertex ids
    replaced by their ranks) as the oracle's edge list."""
    piece = piece or n_edged
    rng = random.Random(seed)
    ids = sorted(rng.sample(range(header), n_edged))
    pairs = {(u, v) for u in range(n_edged) for v in range(u + 1, n_edged) if u // piece == v // piece and rng.random() < p}
    pairs |= {(u, u + 1) for u in range(n_edged - 1) if (u + 1) % piece}
    compact = sorted(pairs) + (sorted(rng.sample(sorted(pairs), len(pairs) // 4)) if doubled else [])
    edges = [(ids[u], ids[v], 1.0 - rng.random() if weighted else 1.0) for u, v in compact]
    g = Multigraph(header, edges, weighted=weighted)
    assert g.vertices_with_edges() == ids
    return g, compact


@pytest.mark.parametrize(
    "seed, n_edged, p, header, weighted, doubled, piece",
    [
        (11, 70, 0.07, 5_000, False, False, None),
        (12, 80, 0.12, 100_000, False, True, None),
        (13, 72, 0.06, 2**20, True, False, None),
        # more ranks than a block, in components of 10 so that the oracle's
        # Floyd-Warshall stays cheap; the one of ranks 250-259 spans the edge
        (14, SOURCE_BLOCK + 44, 0.3, 50_000, False, True, 10),
    ],
    ids=[
        "11-70-0.07-5000-False-False",
        "12-80-0.12-100000-False-True",
        "13-72-0.06-1048576-True-False",
        "14-300-0.3-50000-False-True-10",
    ],
)
def test_mask_pass_matches_oracle_on_midsize_hosts(seed, n_edged, p, header, weighted, doubled, piece):
    # the hypothesis tests stop at 7 vertices, so their masks fit in a byte;
    # here masks span more than 64 ranks, and a rank is not a vertex id
    g, compact = _spread_host(n_edged, p, seed, header, weighted, doubled, piece)
    ids = g.vertices_with_edges()
    rng = random.Random(seed)
    plain = Multigraph(g.n, [(e.u, e.v) for e in g.edges()])  # same edge ids
    # the last drops about a third of the edges among the upper ranks, so
    # every failure lies there: on the host of components, in those past
    # the block edge, so the first failure is in the second block
    upper = -(-SOURCE_BLOCK // piece) * piece if piece else n_edged // 2
    candidates = [
        range(g.m),
        frozenset(greedy_dr_spanner(plain, 2, 4).edges),
        {e for e in range(g.m) if rng.random() < 0.6},
        {e for e, (u, v) in enumerate(compact) if min(u, v) < upper or rng.random() < 0.7},
    ]
    checks = [(verify_dr, (d, 2 * d - 1), lambda dist, d=d: 2 * d - 1 if dist == d else None) for d in (1, 2, 3)]
    if not weighted:
        # alpha = 0 makes every bound beta, and 1e308 makes them overflow to
        # inf, which only an unreached pair fails
        checks += [
            (verify_alpha_beta, (a, b), lambda dist, a=a, b=b: a * dist + b)
            for a, b in ((1, 0), (1.5, 0.5), (2, 1), (0, 3), (0, 1.5), (1e308, 1e308))
        ]
    outcomes = set()
    whole_passes = set()  # the checks that pass on the whole host
    upper_sources = set()
    for kept in candidates:
        for check, (oracle, args, bound_of) in enumerate(checks):
            violation, pairs, fault_sets, _ = first_violation(len(ids), compact, kept, 0, bound_of)
            if violation is not None:
                x, y, faults, distance, bound = violation
                violation = verify.Counterexample(ids[x], ids[y], faults, distance, bound)
            expected = verify.VerificationReport(violation is None, violation, pairs, fault_sets)
            report = oracle(g, kept, *args)
            assert report == expected, (oracle.__name__, args)
            if oracle is verify_dr:
                assert verify_eft(g, kept, *args, 0) == report
            outcomes.add(report.passed)
            if report.passed and kept is candidates[0]:
                whole_passes.add(check)
            if not report.passed and kept is candidates[-1] and check in whole_passes:
                upper_sources.add(ids.index(report.counterexample.x) >= upper)
    assert outcomes == {True, False}
    if piece:
        assert upper_sources == {True}


def test_mask_pass_memory_follows_vertices_with_edges():
    # a star on N = 2,000 vertices spread under a 2**24 header, its centre
    # the highest rank: every neighbor mask is N bits wide, so the G and H
    # tables take N**2 / 4 bytes in all
    n_edged = 2000
    ids = sorted(random.Random(5).sample(range(2**24), n_edged))
    g = Multigraph(2**24, [(v, ids[-1]) for v in ids[:-1]])
    tracemalloc.start()
    try:
        report = verify_dr(g, range(g.m), 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == verify.VerificationReport(True, None, comb(n_edged - 1, 2), 1)
    # slack, 1.25 MB: the candidate's edge-id set and view (0.7 MB), a
    # 28-byte header per mask, and the rank map; masks indexed by vertex id
    # would be 2 MB each, and a table over the header 134 MB
    assert peak < n_edged**2 / 4 + 1_250_000, peak


def test_mask_pass_memory_is_linear_in_vertices_with_edges():
    # the star of the test above on N = 6,000 vertices, where a table of
    # N-bit masks per side would take N**2 / 4 bytes. The pass holds four
    # tables of N ints of at most SOURCE_BLOCK bits (the layer and ball of G
    # and of H, 72 bytes an entry at 256), next to about 420 bytes a vertex
    # here for the two neighbor-rank tables and the candidate's edge-id set:
    # O(m + N * SOURCE_BLOCK), which is below N**2 / 8 at this size
    n_edged = 6000
    ids = sorted(random.Random(5).sample(range(2**24), n_edged))
    g = Multigraph(2**24, [(v, ids[-1]) for v in ids[:-1]])
    tracemalloc.start()
    try:
        report = verify_dr(g, range(g.m), 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == verify.VerificationReport(True, None, comb(n_edged - 1, 2), 1)
    bound = n_edged * (4 * (SOURCE_BLOCK // 8 + 40) + 420)
    assert bound < n_edged**2 / 8
    assert peak < bound, peak


def _kept_ids(draw, g):
    return {e for e, keep in enumerate(draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))) if keep}


def _matches(report, expected, exact=True):
    violation, pairs, fault_sets, _ = expected
    assert (report.pairs_checked, report.fault_sets_checked) == (pairs, fault_sets)
    assert report.passed == (violation is None)
    if violation is not None:
        ce = report.counterexample
        x, y, faults, distance, bound = violation
        assert (ce.x, ce.y, ce.faults) == (x, y, faults)
        if exact:
            assert (ce.distance, ce.bound) == (distance, bound)
        else:
            assert ce.distance == pytest.approx(distance) and ce.bound == pytest.approx(bound)


@given(
    st.data(),
    small_graphs(max_n=7, max_m=12, multigraph=True),
    st.integers(1, 3),
    st.integers(0, 6),
    st.integers(0, 2),
)
def test_verify_eft_matches_oracle(data, g, d, r, f):
    kept = _kept_ids(data.draw, g)
    expected = first_violation(g.n, edges_of(g), kept, f, lambda dist: r if dist == d else None)
    _matches(verify_eft(g, kept, d, r, f), expected)
    if f == 0:
        _matches(verify_dr(g, kept, d, r), expected)


@given(
    st.data(),
    st.booleans(),
    st.sampled_from([(1, 1), (1.5, 0.5), (2, 1), (3, 2)]),
    st.integers(0, 2),
)
def test_verify_alpha_beta_matches_oracle(data, weighted, alpha_beta, f):
    g = data.draw(small_graphs(max_n=7, max_m=12, multigraph=not weighted, weighted=weighted))
    if not weighted:
        alpha_beta = data.draw(st.sampled_from([(1, 0), alpha_beta]))
    kept = _kept_ids(data.draw, g)
    alpha, beta = alpha_beta
    edge_list = weighted_edges_of(g) if weighted else edges_of(g)
    expected = first_violation(g.n, edge_list, kept, f, lambda dist: alpha * dist + beta, weighted)
    if weighted:
        # Floyd-Warshall and Dijkstra may sum a path in different orders
        assume(expected[3] > 1e-9)
    _matches(verify_alpha_beta(g, kept, alpha, beta, f), expected, exact=not weighted)
