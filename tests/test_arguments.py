"""Argument checks of the constructions, generators and graph types: each
bad call raises a ValueError with its own message."""

from __future__ import annotations

import pytest

from spannerlab import (
    Multigraph,
    PathCollection,
    PathSeq,
    eft_greedy_exact,
    eft_modified_greedy,
    greedy_dr_spanner,
    greedy_multiplicative_spanner,
    greedy_path_collection_spanner,
    parallel_greedy_spanner,
    sqrt_k_spanner,
    union_hybrid_spanner,
)
from spannerlab.generators import (
    cycle_graph,
    gen_big_clique,
    gen_eft_lower_bound,
    gen_random,
    gen_weighted_lower_bound,
    path_graph,
)

P4 = path_graph(4)
WEIGHTED = Multigraph(3, [(0, 1, 1.0), (1, 2, 2.0)], weighted=True)
DOUBLED = Multigraph(2, [(0, 1), (0, 1)])
TWO_PATH = PathSeq.from_graph(P4, (0, 1, 2))

CASES = {
    "greedy_dr_d_below_1": (lambda: greedy_dr_spanner(P4, 0, 2), "need d >= 1 and r >= d"),
    "greedy_dr_r_below_d": (lambda: greedy_dr_spanner(P4, 2, 1), "need d >= 1 and r >= d"),
    "path_collection_negative_r": (
        lambda: greedy_path_collection_spanner(PathCollection(4, (TWO_PATH,)), -1),
        "r must be nonnegative",
    ),
    "parallel_k_below_1": (lambda: parallel_greedy_spanner(P4, 0, [[0]]), "k must be at least 1"),
    "parallel_id_outside_host": (
        lambda: parallel_greedy_spanner(P4, 1, [[99]]),
        "edge id 99 not in graph",
    ),
    "sqrt_k_below_1": (lambda: sqrt_k_spanner(P4, 0), "k must be at least 1"),
    "union_hybrid_k_below_1": (lambda: union_hybrid_spanner(P4, 0), "k must be at least 1"),
    "multiplicative_t_below_1": (
        lambda: greedy_multiplicative_spanner(WEIGHTED, 0.99),
        "stretch must be at least 1",
    ),
    "eft_exact_d_3": (lambda: eft_greedy_exact(P4, 3, 6, 1), "only path lengths 1 and 2 are supported"),
    "eft_exact_weighted": (
        lambda: eft_greedy_exact(WEIGHTED, 1, 2, 1),
        "fault-tolerant constructions expect unweighted graphs",
    ),
    "eft_exact_r_below_d": (lambda: eft_greedy_exact(P4, 2, 1, 1), "r must be at least d"),
    "eft_modified_weighted": (
        lambda: eft_modified_greedy(WEIGHTED, 2, 1),
        "fault-tolerant constructions expect unweighted graphs",
    ),
    "cycle_below_3": (lambda: cycle_graph(2), "cycle needs at least 3 vertices"),
    "big_clique_t_below_2": (lambda: gen_big_clique(1), "t must be at least 2"),
    "weighted_lower_bound_weighted_base": (
        lambda: gen_weighted_lower_bound(WEIGHTED, 0.1, 2),
        "base graph must be unweighted",
    ),
    "eft_lower_bound_weighted_base": (
        lambda: gen_eft_lower_bound(WEIGHTED, 1),
        "base graph must be unweighted",
    ),
    "eft_lower_bound_multigraph_base": (
        lambda: gen_eft_lower_bound(DOUBLED, 1),
        "base graph must be simple",
    ),
    "eft_lower_bound_f_below_1": (lambda: gen_eft_lower_bound(P4, 0), "f must be at least 1"),
    "random_p_above_1": (lambda: gen_random(5, 1.5, 0), "p must be a probability"),
    "random_p_nan": (lambda: gen_random(5, float("nan"), 0), "p must be a probability"),
    "multigraph_negative_n": (lambda: Multigraph(-1), "vertex count must be nonnegative"),
    "pathseq_vertex_count": (
        lambda: PathSeq((0, 1), (), ()),
        "path needs exactly one more vertex than edge",
    ),
    "pathseq_weight_count": (lambda: PathSeq((0, 1), (0,), ()), "one weight per edge required"),
    "path_collection_repeated_vertex": (
        lambda: PathCollection(4, (TWO_PATH, PathSeq((0, 1, 0), (0, 0), (1.0, 1.0)))),
        "path vertices must be pairwise distinct",
    ),
    "path_collection_vertex_outside": (
        lambda: PathCollection(2, (TWO_PATH,)),
        "path vertex outside collection range",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_argument_check_raises_its_own_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
