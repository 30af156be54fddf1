from __future__ import annotations

import pytest

import oracles
from spannerlab import generators, girth, greedy_path_collection_spanner, parallel_greedy_spanner
from spannerlab.generators import (
    cycle_graph,
    gen_big_clique,
    gen_eft_lower_bound,
    gen_hypercube,
    gen_random,
    gen_weighted_lower_bound,
    heawood_graph,
    named_graph,
    petersen_graph,
)


def test_big_clique_t2_shape():
    bundle = gen_big_clique(2)
    assert bundle.graph.n == 4
    assert bundle.graph.m == 1 + 2  # K_2 plus one leaf per clique vertex
    assert len(bundle.paths.paths) == 2


def test_big_clique_t4_fresh_leaves():
    bundle = gen_big_clique(4)
    assert bundle.graph.n == 16
    assert len(bundle.paths.paths) == 12
    seen_leaves = set()
    for p in bundle.paths.paths:
        leaf = p.vertices[-1]
        assert leaf >= 4 and leaf not in seen_leaves
        seen_leaves.add(leaf)


@pytest.mark.parametrize("t", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("k", [2, 3])
def test_big_clique_greedy_keeps_clique(t, k):
    bundle = gen_big_clique(t)
    result = greedy_path_collection_spanner(bundle.paths, 2 * k)
    kept = {tuple(sorted(bundle.graph.endpoints(e))) for e in result.edges}
    assert {(i, j) for i in range(t) for j in range(i + 1, t)} <= kept


def test_hypercube_shapes():
    assert gen_hypercube(1).graph.m == 1
    q3 = gen_hypercube(3)
    assert q3.graph.n == 8 and q3.graph.m == 12
    assert len(q3.matchings) == 3
    assert all(len(m) == 4 for m in q3.matchings)
    with pytest.raises(ValueError):
        gen_hypercube(0)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_hypercube_parallel_greedy_adds_all(k):
    bundle = gen_hypercube(k)
    result = parallel_greedy_spanner(bundle.graph, k, bundle.matchings)
    assert len(result.edges) == k * 2 ** (k - 1)


def test_weighted_lower_bound_shape():
    bundle = gen_weighted_lower_bound(cycle_graph(5), 0.5, 2)
    g = bundle.graph
    assert g.n == 10 and g.m == 10
    weights = sorted({e.weight for e in g.edges()})
    assert weights == [0.5, 1.0]


def test_weighted_lower_bound_girth_precondition():
    with pytest.raises(ValueError, match="girth 5"):
        gen_weighted_lower_bound(petersen_graph(), 0.5, 3)
    # heawood has girth 6 > 5, so k = 3 is fine
    bundle = gen_weighted_lower_bound(heawood_graph(), 0.25, 3)
    assert bundle.graph.n == 28


def test_weighted_lower_bound_input_validation():
    with pytest.raises(ValueError):
        gen_weighted_lower_bound(cycle_graph(5), 1.5, 2)
    disconnected = gen_random(6, 0.0, seed=0).graph
    with pytest.raises(ValueError, match="connected"):
        gen_weighted_lower_bound(disconnected, 0.5, 2)


def test_eft_lower_bound_shapes():
    from spannerlab import Multigraph

    k2 = Multigraph(2, [(0, 1)])
    bundle = gen_eft_lower_bound(k2, 3)
    assert bundle.graph.n == 4 and bundle.graph.m == 5

    c6 = gen_eft_lower_bound(cycle_graph(6), 2)
    assert c6.graph.n == 12 and c6.graph.m == 12 + 6


def test_gen_random_extremes_and_determinism():
    assert gen_random(12, 0.0, seed=1).graph.m == 0
    assert gen_random(12, 1.0, seed=1).graph.m == 66
    a = gen_random(30, 0.3, seed=42).graph
    b = gen_random(30, 0.3, seed=42).graph
    assert [(e.u, e.v, e.weight) for e in a.edges()] == [
        (e.u, e.v, e.weight) for e in b.edges()
    ]
    w1 = gen_random(30, 0.3, seed=42, weighted=True).graph
    assert [(e.u, e.v) for e in w1.edges()] == [(e.u, e.v) for e in a.edges()]
    assert all(0 < e.weight <= 1 for e in w1.edges())


def test_catalog_graphs():
    assert girth(petersen_graph().view()) == 5
    hg = heawood_graph()
    assert hg.n == 14 and hg.m == 21
    assert oracles.brute_girth(hg.n, oracles.edges_of(hg)) == 6
    assert girth(hg.view()) == 6
    assert named_graph("cycle:7").n == 7
    assert named_graph("petersen").m == 15
    with pytest.raises(ValueError):
        named_graph("mystery:3")


@pytest.mark.parametrize(
    "spec",
    ["petersen", "heawood", "cycle:3", "cycle:9", "path:0", "path:1", "path:6",
     "complete:0", "complete:1", "complete:7", "star:0", "star:1", "star:5"],
)
def test_spec_counts_match_the_built_graph(spec):
    # the CLI caps gen by these counts before anything is built
    _, n, m = generators.catalog_entry(spec)
    g = named_graph(spec)
    assert (n, m) == (g.n, g.m)
