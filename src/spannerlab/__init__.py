"""Graph spanners: greedy, parallel, weighted, and edge-fault-tolerant
constructions with brute-force verification oracles and instance generators.
"""

from .clustering import ClusteringTrace, cluster_level, greedy_clustering, has_cluster
from .fault_tolerant import (
    BlockingRecord,
    eft_edge_greedy_2k1,
    eft_greedy_exact,
    eft_modified_greedy,
    eft_union_spanner,
    find_fault_set,
    verify_blocking_set,
)
from .generators import (
    InstanceBundle,
    gen_big_clique,
    gen_eft_lower_bound,
    gen_hypercube,
    gen_random,
    gen_weighted_lower_bound,
)
from .graphs import (
    INF,
    BudgetExceededError,
    Multigraph,
    PathSeq,
    SubgraphView,
    girth,
    hop_distance,
    hop_distances,
    hop_layers,
    neighbor_masks,
    weighted_ball,
    weighted_dist,
    weighted_distances,
)
from .greedy import (
    PathCollection,
    SpannerResult,
    greedy_dr_spanner,
    greedy_multiplicative_spanner,
    greedy_path_collection_spanner,
    matching_rounds,
    parallel_greedy_spanner,
    sqrt_k_spanner,
    union_hybrid_spanner,
)
from .verify import (
    Counterexample,
    SizeReport,
    VerificationReport,
    WeightedBoundReport,
    size_report,
    verify_alpha_beta,
    verify_dr,
    verify_eft,
    verify_weighted_bound,
)
from .weighted import (
    SaturationRecord,
    WeightedSpannerResult,
    build_weighted_spanner,
)

__all__ = [name for name in dir() if not name.startswith("_")]
