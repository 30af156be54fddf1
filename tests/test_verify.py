from __future__ import annotations

import pytest
from hypothesis import assume, given, strategies as st

from conftest import seeded_gnp, small_graphs
from oracles import edges_of, first_violation, weighted_edges_of
from spannerlab import (
    INF,
    BudgetExceededError,
    Multigraph,
    greedy_dr_spanner,
    hop_distance,
    size_report,
    union_hybrid_spanner,
    verify_alpha_beta,
    verify_dr,
    verify_eft,
    verify_weighted_bound,
)
from spannerlab.generators import complete_graph, cycle_graph, gen_eft_lower_bound


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
        assert verify_dr(g, result, 2, 4).passed


def test_verify_dr_rejects_foreign_ids():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        verify_dr(g, {99}, 1, 1)


def test_verify_eft_f0_matches_dr():
    g = seeded_gnp(12, 0.3, 3)
    h = greedy_dr_spanner(g, 2, 4)
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
    ],
)
def test_oracles_reject_bad_parameters(oracle, args):
    # the parameters are checked first: with budget 0 a valid call raises
    # BudgetExceededError instead
    g = cycle_graph(6)
    with pytest.raises(ValueError):
        oracle(g, range(g.m), *args, budget=0)


def test_verify_alpha_beta_union_contract():
    g = seeded_gnp(16, 0.3, 5)
    k = 2
    h = union_hybrid_spanner(g, k)
    assert verify_alpha_beta(g, h, k, k - 1, f=0).passed


def test_verify_alpha_beta_spanning_tree_fails_exact():
    g = complete_graph(4)
    tree = {e for e in range(g.m) if 0 in g.endpoints(e)}
    report = verify_alpha_beta(g, tree, 1, 0)
    assert not report.passed
    assert report.counterexample.distance == 2
    assert report.counterexample.bound == 1


def test_verify_alpha_beta_weighted_graphs():
    g = Multigraph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)], weighted=True)
    assert verify_alpha_beta(g, {0, 1}, 1, 0).passed  # 0-2 via 1 costs 3 < 4
    assert not verify_alpha_beta(g, {0, 2}, 1, 0).passed


def test_size_report_cases():
    assert size_report((), 10, 2).ratio == 0
    kn = complete_graph(8)
    rep = size_report(kn, 8, None)
    assert rep.ratio == pytest.approx(kn.m / 8)
    rep2 = size_report(range(kn.m), 8, 2)
    assert rep2.ratio == pytest.approx(28 / 8**1.5)
    assert size_report((), 0, 2).ratio == 0


def test_size_report_on_midsize_greedy_run():
    g = seeded_gnp(200, 0.1, 77)
    k = 2
    result = greedy_dr_spanner(g, 2, 2 * k)
    rep = size_report(result, g.n, k)
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
    st.integers(0, 1),
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
    st.integers(0, 1),
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
