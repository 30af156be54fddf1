from __future__ import annotations

import itertools
import random
from math import comb

import pytest

from conftest import seeded_gnp
from spannerlab import (
    BlockingRecord,
    BudgetExceededError,
    Multigraph,
    PathSeq,
    eft_edge_greedy_2k1,
    eft_greedy_exact,
    eft_modified_greedy,
    eft_union_spanner,
    find_fault_set,
    greedy_multiplicative_spanner,
    hop_distance,
    union_hybrid_spanner,
    verify_alpha_beta,
    verify_blocking_set,
    verify_eft,
)
from spannerlab import fault_tolerant
from spannerlab.fault_tolerant import _d_paths
from spannerlab.generators import cycle_graph, gen_eft_lower_bound, path_graph


def two_path_graph():
    # x=0, y=1 joined through mids 2, 3, 4 by vertex-disjoint 2-paths
    return Multigraph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])


def test_find_fault_set_empty_view():
    g = two_path_graph()
    view = g.view(frozenset())
    p = PathSeq.from_graph(g, (0, 2, 1))
    fs = find_fault_set(view, p, 4, 2)
    assert fs == frozenset()


def test_find_fault_set_two_disjoint_routes_is_none():
    g = two_path_graph()
    view = g.view({0, 1, 2, 3})  # 2-paths via 2 and via 3
    p = PathSeq.from_graph(g, (0, 4, 1))
    assert find_fault_set(view, p, 4, 1) is None


def test_find_fault_set_single_route_returns_first_edge():
    g = two_path_graph()
    view = g.view({0, 1})  # only the route through vertex 2
    p = PathSeq.from_graph(g, (0, 4, 1))
    fs = find_fault_set(view, p, 4, 1)
    assert fs == frozenset({0})


def test_find_fault_set_excludes_own_edges():
    g = Multigraph(3, [(0, 1), (1, 2), (0, 1), (1, 2)])
    view = g.view({0, 1})
    p = PathSeq.from_graph(g, (0, 1, 2), (0, 1))
    # the only route uses p's own ids, which cannot be faulted
    assert find_fault_set(view, p, 4, 2) is None


def test_find_fault_set_budget_error():
    # cycle plus a chord: only two disjoint routes, so the peel cannot
    # certify f = 2 and the subset enumeration must run
    rows = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]
    g = Multigraph(6, rows)
    view = g.view(set(range(6)))
    p = PathSeq.from_graph(g, (0, 3), (6,))
    with pytest.raises(BudgetExceededError) as err:
        find_fault_set(view, p, 6, 2, budget=5)
    assert err.value.required > 5


def test_eft_exact_disjoint_two_paths():
    g = two_path_graph()
    result, record = eft_greedy_exact(g, 2, 4, 1)
    kept = [p.vertices for p in result.paths]
    assert (0, 2, 1) in kept and (0, 3, 1) in kept
    assert (0, 4, 1) not in kept
    assert verify_blocking_set(result.paths, record, 4, 1)


def test_eft_exact_f0_equals_plain_greedy_over_paths():
    g = seeded_gnp(14, 0.3, 4)
    r = 4
    result, record = eft_greedy_exact(g, 2, r, 0)
    assert all(fs == frozenset() for fs in record.fault_sets)
    view = g.view(set())
    expected = []
    for p in _d_paths(g, 2):
        if hop_distance(view, p.x, p.y, r) > r:
            view.add(p.edge_ids)
            expected.append(p.vertices)
    assert [p.vertices for p in result.paths] == expected


def test_eft_exact_contract_small_instances():
    for seed in (0, 1, 2):
        g = seeded_gnp(10, 0.35, seed)
        for f in (1, 2):
            result, record = eft_greedy_exact(g, 2, 4, f)
            assert verify_eft(g, result, 2, 4, f).passed
            assert verify_blocking_set(result.paths, record, 4, f)


def test_eft_exact_lower_bound_keeps_all_edges():
    bundle = gen_eft_lower_bound(cycle_graph(6), 1)
    g = bundle.graph
    result, record = eft_greedy_exact(g, 2, 4, 1)
    assert set(result.edges) == set(range(g.m))
    assert verify_blocking_set(result.paths, record, 4, 1)


def test_eft_modified_rejects_when_parallel_edges_cover():
    # x, y already joined by f+1 = 2 parallel edges; any 2-path is redundant
    g = Multigraph(3, [(0, 1), (0, 1), (0, 2), (2, 1)])
    result, record = eft_modified_greedy(g, 2, 1)
    kept = [p.vertices for p in result.paths]
    assert (0, 2, 1) not in kept
    assert verify_blocking_set(result.paths, record, 4, 4)


def test_eft_modified_first_path_added():
    g = Multigraph(3, [(0, 1), (1, 2)])
    result, record = eft_modified_greedy(g, 2, 2)
    assert [p.vertices for p in result.paths] == [(0, 1, 2)]
    assert record.fault_sets == (frozenset(),)


def test_eft_modified_two_disjoint_then_reject():
    g = two_path_graph()
    result, record = eft_modified_greedy(g, 2, 1)
    kept = [p.vertices for p in result.paths]
    assert (0, 2, 1) in kept and (0, 3, 1) in kept
    assert (0, 4, 1) not in kept
    assert verify_eft(g, result, 2, 4, 1).passed


def test_eft_f3_dense_multigraphs():
    k = 2
    for seed in (0, 1):
        base = seeded_gnp(6, 0.7, 400 + seed)
        g = Multigraph(6, [(e.u, e.v) for e in base.edges() for _ in range(2)])
        for f in (2, 3):
            exact, rec = eft_greedy_exact(g, 2, 2 * k, f)
            assert verify_eft(g, exact, 2, 2 * k, f).passed
            assert verify_blocking_set(exact.paths, rec, 2 * k, f)
            fast, recf = eft_modified_greedy(g, k, f)
            assert verify_eft(g, fast, 2, 2 * k, f).passed
            assert verify_blocking_set(fast.paths, recf, 2 * k, 2 * k * f)


def test_eft_modified_witness_size_and_disjointness():
    k = 2
    for seed in (3, 5, 8):
        g = seeded_gnp(12, 0.35, seed)
        for f in (1, 2):
            result, record = eft_modified_greedy(g, k, f)
            assert verify_blocking_set(result.paths, record, 2 * k, 2 * k * f)
            for fs in record.fault_sets:
                assert len(fs) <= 2 * k * f
            assert verify_eft(g, result, 2, 2 * k, f).passed


def test_eft_edge_greedy_parallel_copies():
    f = 2
    g = Multigraph(2, [(0, 1)] * 5)
    result = eft_edge_greedy_2k1(g, 2, f)
    assert result.edges == (0, 1, 2)  # first f+1 copies


def test_eft_edge_greedy_f0_is_classic_greedy():
    g = seeded_gnp(15, 0.3, 9)
    k = 2
    ours = eft_edge_greedy_2k1(g, k, 0)
    classic = greedy_multiplicative_spanner(g, 2 * k - 1)
    assert ours.edges == classic.edges


def test_eft_edge_greedy_tree_keeps_all():
    g = path_graph(8)
    for f in (0, 1, 3):
        assert eft_edge_greedy_2k1(g, 2, f).edges == tuple(range(g.m))


def test_eft_union_tree_identity_and_faults():
    g = path_graph(6)
    result = eft_union_spanner(g, 2, 2)
    assert set(result.edges) == set(range(g.m))
    assert verify_eft(g, result, 1, 3, 2).passed


def test_eft_union_doubled_cycle():
    base = cycle_graph(6)
    g = Multigraph(6, [(e.u, e.v) for e in base.edges() for _ in range(2)])
    result = eft_union_spanner(g, 2, 1)
    assert verify_alpha_beta(g, result, 2, 1, f=1).passed


def test_eft_union_f0_matches_hybrid_contract():
    g = seeded_gnp(14, 0.3, 6)
    k = 2
    ft = eft_union_spanner(g, k, 0)
    plain = union_hybrid_spanner(g, k)
    assert verify_alpha_beta(g, ft, k, k - 1, f=0).passed
    assert verify_alpha_beta(g, plain, k, k - 1, f=0).passed


def test_eft_union_fast_mode():
    g = seeded_gnp(12, 0.35, 2)
    result = eft_union_spanner(g, 2, 1, fast=True)
    assert verify_eft(g, result, 2, 4, 1).passed
    assert verify_eft(g, result, 1, 3, 1).passed


def test_verify_blocking_set_rejects_bad_records():
    g = two_path_graph()
    result, record = eft_greedy_exact(g, 2, 4, 1)
    assert verify_blocking_set(result.paths, record, 4, 1)

    # witness touching its own path
    tainted = BlockingRecord(
        tuple(
            frozenset(p.edge_ids[:1]) if i == 1 else fs
            for i, (p, fs) in enumerate(zip(result.paths, record.fault_sets))
        )
    )
    assert not verify_blocking_set(result.paths, tainted, 4, 1)

    # witness over the size bound
    oversized = BlockingRecord(
        tuple(
            frozenset({0, 1}) if i == 1 else fs
            for i, fs in enumerate(record.fault_sets)
        )
    )
    assert not verify_blocking_set(result.paths, oversized, 4, 1)

    with pytest.raises(ValueError):
        verify_blocking_set(result.paths, BlockingRecord(record.fault_sets[:-1]), 4, 1)


def test_blocking_prefix_condition_detected():
    # a zero-size witness cannot block once the prefix already connects the pair
    g = Multigraph(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
    p1 = PathSeq.from_graph(g, (0, 1, 2))
    p2 = PathSeq.from_graph(g, (0, 3, 2))
    record = BlockingRecord((frozenset(), frozenset()))
    assert not verify_blocking_set((p1, p2), record, 4, 1)
    fixed = BlockingRecord((frozenset(), frozenset({0})))
    assert verify_blocking_set((p1, p2), fixed, 4, 1)


def test_eft_modified_covers_routes_through_present_edges():
    # the 2-path (1,2,6) is considered while {1,2} is already in the spanner
    # and 2-3-4-6 connects its far side: peeling only full 1-6 routes would
    # record an empty witness that the prefix route 1-2-3-4-6 refutes, so the
    # complementary leg must be peeled into the witness instead
    g = Multigraph(7, [(0, 3), (0, 4), (1, 2), (2, 3), (2, 6), (3, 4), (4, 6)])
    result, record = eft_modified_greedy(g, 2, 1)
    by_vertices = {p.vertices: fs for p, fs in zip(result.paths, record.fault_sets)}
    assert by_vertices[(1, 2, 6)] == frozenset({3, 5, 6})
    assert verify_blocking_set(result.paths, record, 4, 4)
    assert verify_eft(g, result, 2, 4, 1).passed


def test_eft_exact_multigraph_fault_semantics():
    # two parallel copies of one cycle edge survive a single fault together
    base = cycle_graph(4)
    rows = [(e.u, e.v) for e in base.edges()] + [(0, 1)]
    g = Multigraph(4, rows)
    result, _ = eft_greedy_exact(g, 1, 3, 1)
    assert verify_eft(g, result, 1, 3, 1).passed


def brute_fault_set(g, view_ids, p, r, f):
    """Exhaustive reference: first subset of the view (size-then-lex, over
    ALL view edges) separating p's endpoints beyond r."""
    candidates = sorted(set(view_ids) - set(p.edge_ids))
    view = g.view(frozenset(view_ids))
    for size in range(f + 1):
        for combo in itertools.combinations(candidates, size):
            if hop_distance(view, p.x, p.y, r, excluded=frozenset(combo)) > r:
                return frozenset(combo)
    return None


def test_find_fault_set_matches_exhaustive_reference():
    # the lens restriction, the disjoint-path peel and the route branching
    # must never change the outcome relative to plain subset enumeration: for
    # f = 0 to 3 and r up to 6, for single-edge and 2-path candidates, on
    # simple and doubled hosts, and when the query path partially overlaps
    # the view
    rng = random.Random(99)
    agree = 0
    sizes = [0] * 4
    for trial in range(4000):
        r = rng.randrange(1, 7)
        f = rng.randrange(4)
        g = seeded_gnp(rng.randrange(5, 9), rng.choice((0.3, 0.5, 0.7)), trial)
        if rng.random() < 0.5:
            g = Multigraph(g.n, [(e.u, e.v) for e in g.edges()] * 2)
        if g.m < 3:
            continue
        # at f = 3, at most 18 view edges keep the reference's C(18, 3)
        # subsets cheap
        most = min(g.m, 18) if f == 3 else g.m
        ids = frozenset(rng.sample(range(g.m), rng.randrange(1, most + 1)))
        view = g.view(ids)
        if rng.random() < 0.3:
            eid = rng.randrange(g.m)
            p = PathSeq.from_graph(g, g.endpoints(eid), (eid,))
        else:
            mids = [v for v in range(g.n) if len({u for u, _ in g.adj(v)}) >= 2]
            if not mids:
                continue
            mid = rng.choice(mids)
            x, y = sorted(rng.sample(sorted({u for u, _ in g.adj(mid)}), 2))
            e1 = rng.choice(g.edge_ids_between(x, mid))
            e2 = rng.choice(g.edge_ids_between(mid, y))
            p = PathSeq.from_graph(g, (x, mid, y), (e1, e2))
        got = find_fault_set(view, p, r, f)
        want = brute_fault_set(g, ids, p, r, f)
        if want is None:
            assert got is None
        else:
            assert got == want
            sizes[len(want)] += 1
        agree += 1
    assert agree >= 3500 and sizes[2] >= 100 and sizes[3] >= 30


def test_find_fault_set_searches_stay_within_route_branching_bound(monkeypatch):
    # the single-edge candidate (0, 8) on this view has no separating set of
    # at most 3 edges: the subsets of its lens edges number far more than the
    # peel (at most f + 1 searches) plus the branching (at most r**s searches
    # at level s) may run
    g = seeded_gnp(10, 0.5, 71)
    ids = [0, 1, 2, 4, 6, 8, 10, 16, 18, 19, 21, 23, 25, 27]
    view = g.view(ids)
    p = PathSeq.from_graph(g, (0, 8), (3,))
    r, f = 4, 3
    searches = []

    def counted(kernel):
        def search(*args, **kwargs):
            searches.append(args)
            return kernel(*args, **kwargs)

        return search

    for name in ("hop_distance", "shortest_path"):
        monkeypatch.setattr(fault_tolerant, name, counted(getattr(fault_tolerant, name)))
    assert find_fault_set(view, p, r, f) is None
    bound = (f + 1) + sum(r**s for s in range(1, f + 1))
    lens = fault_tolerant._lens_candidates(view, 0, 8, r, frozenset({3}))
    assert 0 < len(searches) <= bound < sum(comb(len(lens), s) for s in range(1, f + 1))
    assert find_fault_set(view, p, r, f) == brute_fault_set(g, ids, p, r, f)


def replay_guard(g, candidates, r, f):
    """Guarded greedy that asks find_fault_set about every candidate."""
    view = g.view(set())
    paths, witnesses = [], []
    for p in candidates:
        fs = find_fault_set(view, p, r, f)
        if fs is not None:
            view.add(p.edge_ids)
            paths.append(p)
            witnesses.append(fs)
    return paths, witnesses


def test_guard_certificates_match_search_on_every_candidate():
    # a candidate answered from the routes kept for its endpoint pair must get
    # the answer a fresh search would give, on simple and doubled hosts,
    # where repeat pairs differ in their own edge ids
    hosts = []
    for seed in range(4):
        base = seeded_gnp(9, 0.45, 300 + seed)
        hosts.append(base)
        hosts.append(Multigraph(base.n, [(e.u, e.v) for e in base.edges() for _ in range(2)]))
    for g in hosts:
        for f in (1, 2):
            for d in (1, 2):
                result, record = eft_greedy_exact(g, d, 2 * d, f)
                paths, witnesses = replay_guard(g, _d_paths(g, d), 2 * d, f)
                assert list(result.paths) == paths
                assert list(record.fault_sets) == witnesses
            union = eft_union_spanner(g, 2, f)
            edges = (PathSeq.from_graph(g, g.endpoints(e), (e,)) for e in range(g.m))
            one, _ = replay_guard(g, edges, 3, f)
            two, _ = replay_guard(g, _d_paths(g, 2), 4, f)
            assert list(union.paths) == one + two


def test_d_paths_equal_paths_built_through_the_host():
    # the 2-paths skip from_graph's id check; on a weighted doubled host the
    # weights must still follow each edge id
    base = seeded_gnp(8, 0.5, 21, weighted=True)
    doubled = Multigraph(
        base.n,
        [(e.u, e.v, e.weight * c) for e in base.edges() for c in (1, 2)],
        weighted=True,
    )
    for g in (seeded_gnp(9, 0.4, 5), base, doubled):
        for d in (1, 2):
            paths = list(_d_paths(g, d))
            assert paths
            assert paths == [PathSeq.from_graph(g, p.vertices, p.edge_ids) for p in paths]
