"""Acceptance suite: one test per headline guarantee, at its stated bound.

Each test prints a single PASS line (visible with ``pytest -s`` or ``-rA``)
so the suite doubles as a checklist.
"""

from __future__ import annotations

import random
from itertools import combinations

import oracles
from conftest import seeded_gnp
from spannerlab import (
    eft_greedy_exact,
    eft_modified_greedy,
    eft_union_spanner,
    girth,
    greedy_clustering,
    greedy_dr_spanner,
    greedy_path_collection_spanner,
    hop_distance,
    matching_rounds,
    parallel_greedy_spanner,
    sqrt_k_spanner,
    union_hybrid_spanner,
    verify_alpha_beta,
    verify_dr,
    verify_eft,
    verify_weighted_bound,
)
from spannerlab.generators import (
    complete_graph,
    cycle_graph,
    gen_big_clique,
    gen_eft_lower_bound,
    gen_hypercube,
    gen_weighted_lower_bound,
)
from spannerlab.greedy import sqrt_k_stretch
from spannerlab.weighted import build_weighted_spanner, two_path_bound
from spannerlab import Multigraph


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def test_c01_big_clique_reproduction():
    k = 2
    for t in (4, 6, 8):
        bundle = gen_big_clique(t)
        result = greedy_path_collection_spanner(bundle.paths, 2 * k)
        kept = {tuple(sorted(bundle.graph.endpoints(e))) for e in result.edges}
        clique = {(i, j) for i in range(t) for j in range(i + 1, t)}
        assert clique <= kept, f"t={t}: clique edge missing from output"
    report(1, "greedy keeps all t(t-1)/2 clique edges for t in {4,6,8}")


def test_c02_hypercube_reproduction():
    for k in range(2, 7):
        bundle = gen_hypercube(k)
        result = parallel_greedy_spanner(bundle.graph, k, bundle.matchings)
        assert len(result.edges) == k * 2 ** (k - 1), f"k={k}"
    report(2, "parallel greedy adds exactly k*2^(k-1) hypercube edges, k=2..6")


def test_c03_two_to_2k_correctness():
    for i in range(100):
        k = 2 if i % 2 == 0 else 3
        n = 25 + (i * 7) % 176
        p = (3 / n, 6 / n, 10 / n)[i % 3]
        g = seeded_gnp(n, p, 1000 + i)
        result = greedy_dr_spanner(g, 2, 2 * k)
        assert verify_dr(g, result.edges, 2, 2 * k).passed, f"instance {i} (n={n}, k={k})"
    report(3, "greedy 2->2k verified on 100 seeded G(n,p) instances, n<=200")


def test_c04_two_to_2k_size_trend():
    k = 2
    ratios = []
    for n in (100, 200, 400):
        total = 0
        for seed in range(20):
            g = seeded_gnp(n, 8 / n, 4000 + seed)
            total += len(greedy_dr_spanner(g, 2, 2 * k).paths)
        ratios.append(total / 20 / n ** (1 + 1 / k))
    assert all(r <= 8 for r in ratios), ratios
    assert ratios[1] <= ratios[0] * 1.2 and ratios[2] <= ratios[1] * 1.2, ratios
    report(4, f"path-count ratios {['%.3f' % r for r in ratios]} <= 8 and nonincreasing")


def test_c05_parallel_greedy_bounds():
    cases = []
    for k in range(2, 7):
        bundle = gen_hypercube(k)
        cases.append((bundle.graph, k, bundle.matchings))
    for seed in range(10):
        g = seeded_gnp(80, 0.12, 5000 + seed)
        k = 2 + seed % 3
        cases.append((g, k, matching_rounds(g)))
    for g, k, rounds in cases:
        result = parallel_greedy_spanner(g, k, rounds)
        n = g.n
        assert len(result.edges) <= 4 * k * n ** (1 + 1 / k)
        indeg: dict[int, int] = {}
        for head in result.meta["orientation"].values():
            indeg[head] = indeg.get(head, 0) + 1
        assert all(c <= 4 * k * n ** (1 / k) for c in indeg.values())
    report(5, "parallel greedy size <= 4k*n^(1+1/k), in-degree <= 4k*n^(1/k)")


def test_c06_greedy_clustering_girth():
    rng = random.Random(606)
    for trial in range(200):
        n = rng.randrange(8, 18)
        p = rng.choice((0.2, 0.35, 0.5))
        g = seeded_gnp(n, p, 6000 + trial)
        s = rng.choice((2, 3, 4, 5))
        k = rng.choice((2, 3, 4))
        trace = greedy_clustering(g, s, range(g.m), k)
        assert girth(g.view(frozenset(trace.added))) > s + 1
    report(6, "greedy clustering output girth > s+1 in 200 randomized trials")


def test_c07_neighborhood_exchange_suite():
    rng = random.Random(707)
    checked = 0
    while checked < 1000:
        n = rng.randrange(6, 15)
        g = seeded_gnp(n, rng.choice((0.15, 0.25, 0.35)), rng.randrange(1 << 30))
        s = rng.choice((2, 3, 4, 5))
        view = g.view()
        far = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if hop_distance(view, u, v, s) > s
        ]
        if not far:
            continue
        u, v = far[rng.randrange(len(far))]
        ell = rng.randrange((s + 1) // 2)
        edges = oracles.edges_of(g)
        assert not (oracles.ball(n, edges, u, ell) & oracles.ball(n, edges, v, ell + 1))
        joined = edges + [(u, v)]
        assert oracles.ball(n, joined, u, ell) <= oracles.ball(n, joined, v, ell + 1)
        checked += 1
    report(7, "neighborhood-exchange lemma verified on 1000 randomized cases")


def test_c08_weighted_optimal_instance():
    k = 2
    bundle = gen_weighted_lower_bound(cycle_graph(5), 0.5, k)
    g = bundle.graph
    result = build_weighted_spanner(g, k)
    assert set(result.edges) == set(range(g.m))

    # independent brute force: every proper subgraph leaves some 2-path
    # beyond its bound
    rows = oracles.weighted_edges_of(g)
    two_paths = []
    for mid in range(g.n):
        nbrs = sorted({u for u, _ in g.adj(mid)})
        for i, x in enumerate(nbrs):
            for y in nbrs[i + 1 :]:
                e1 = g.edge_ids_between(x, mid)[0]
                e2 = g.edge_ids_between(mid, y)[0]
                two_paths.append((x, y, two_path_bound(g.weight(e1), g.weight(e2), k)))
    for size in range(g.m):
        for subset in combinations(range(g.m), size):
            dist = oracles.fw_weighted(g.n, [rows[e] for e in subset])
            assert any(dist[x][y] > bound + 1e-9 for x, y, bound in two_paths), (
                f"proper subgraph {subset} meets every 2-path bound"
            )
    report(8, "weighted construction keeps all 10 edges; no proper subgraph suffices")


def test_c09_weighted_stretch_contract():
    for i in range(50):
        k = 2 if i % 2 == 0 else 3
        n = 20 + (i * 5) % 41
        g = seeded_gnp(n, 0.3, 9000 + i, weighted=True)
        result = build_weighted_spanner(g, k)
        rep = verify_weighted_bound(g, result.edges, k, max_hops=6, sample=125, seed=i)
        assert rep.passed, f"instance {i}: worst ratio {rep.worst_ratio}"
    report(9, "weighted stretch bound holds on 50 seeded instances, k in {2,3}")


def _eft_suite_instances():
    cases = [gen_eft_lower_bound(cycle_graph(6), 2).graph]
    for seed in (1, 2, 3):
        g = seeded_gnp(11, 0.32, 10_000 + seed)
        if g.m <= 40:
            cases.append(g)
    base = cycle_graph(5)
    doubled = Multigraph(5, [(e.u, e.v) for e in base.edges() for _ in range(2)])
    cases.append(doubled)
    return cases


def test_c10_eft_exhaustive_contract():
    k = 2
    for g in _eft_suite_instances():
        assert g.m <= 40
        for f in (1, 2):
            exact, _ = eft_greedy_exact(g, 2, 2 * k, f)
            assert verify_eft(g, exact.edges, 2, 2 * k, f).passed
            fast, _ = eft_modified_greedy(g, k, f)
            assert verify_eft(g, fast.edges, 2, 2 * k, f).passed
    report(10, "exact and polynomial EFT outputs verified under full fault enumeration")


def test_c11_eft_lower_bound_reproduction():
    k, f = 2, 2
    g = gen_eft_lower_bound(cycle_graph(6), f).graph
    result, _ = eft_greedy_exact(g, 2, 2 * k, f)
    assert set(result.edges) == set(range(g.m))
    for drop in range(g.m):
        thinned = set(range(g.m)) - {drop}
        assert not verify_eft(g, thinned, 2, 2 * k, f).passed, f"edge {drop} redundant"
    report(11, "EFT lower-bound instance is kept whole and is edge-minimal")


def test_c12_linear_in_f_size_trend():
    n, k = 150, 2
    base = seeded_gnp(n, 4.5 / n, 12_000)
    g = Multigraph(n, [(e.u, e.v) for e in base.edges() for _ in range(2)])
    constants = []
    for f in (1, 2, 3):
        result, _ = eft_greedy_exact(g, 2, 2 * k, f)
        constants.append(len(result.edges) / (f * n ** (1 + 1 / k)))
    assert max(constants) <= 8, constants
    report(12, f"EFT size constants per f: {['%.3f' % c for c in constants]} (<= 8)")


def test_c13_union_contracts():
    k = 2
    for seed in (0, 1):
        g = seeded_gnp(18, 0.3, 13_000 + seed)
        assert verify_alpha_beta(g, union_hybrid_spanner(g, k).edges, k, k - 1, f=0).passed
    assert verify_alpha_beta(
        complete_graph(5), union_hybrid_spanner(complete_graph(5), k).edges, k, k - 1
    ).passed
    base = cycle_graph(6)
    doubled = Multigraph(6, [(e.u, e.v) for e in base.edges() for _ in range(2)])
    assert verify_alpha_beta(doubled, eft_union_spanner(doubled, k, 1).edges, k, k - 1, f=1).passed
    g = seeded_gnp(10, 0.4, 13_100)
    assert verify_alpha_beta(g, eft_union_spanner(g, k, 1).edges, k, k - 1, f=1).passed
    report(13, "(k, k-1) contracts hold for the hybrid union (f=0) and EFT union (f=1)")


def test_c14_blocking_set_audit():
    from spannerlab import verify_blocking_set

    k = 2
    for g in _eft_suite_instances():
        for f in (1, 2):
            exact, record = eft_greedy_exact(g, 2, 2 * k, f)
            assert all(len(fs) <= f for fs in record.fault_sets)
            assert verify_blocking_set(exact.paths, record, 2 * k, f)
            fast, record_fast = eft_modified_greedy(g, k, f)
            assert all(len(fs) <= 2 * k * f for fs in record_fast.fault_sets)
            assert verify_blocking_set(fast.paths, record_fast, 2 * k, 2 * k * f)
    report(14, "all emitted fault witnesses replay (|F| <= f exact, <= 2kf fast)")


def test_c15_sqrt_k_contract():
    for k in (4, 9):
        d, r = sqrt_k_stretch(k)
        for seed in range(20):
            g = seeded_gnp(40, 0.12, 15_000 + seed)
            result = sqrt_k_spanner(g, k)
            assert verify_dr(g, result.edges, d, r).passed, f"k={k} seed={seed}"
    report(15, "sqrt-k greedy verified as a d->r spanner for k in {4, 9}")
