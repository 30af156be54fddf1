#!/usr/bin/env python3
"""Walk the adversarial instance families and show what each one forces.

Three stories, each printed with the measured evidence:

1. the big-clique path order makes the 2->2k greedy keep a clique of size
   sqrt(n), so its output is nothing like a high-girth graph;
2. the hypercube's dimension matchings make the parallel greedy keep every
   edge, witnessing the extra factor k in its size bound;
3. the lower-bound instances are edge-minimal: the constructions keep them
   whole, and deleting any single edge breaks the contract.

Run from the repository root: python scripts/adversarial_demo.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spannerlab import (  # noqa: E402
    build_weighted_spanner,
    eft_greedy_exact,
    girth,
    greedy_path_collection_spanner,
    parallel_greedy_spanner,
    verify_eft,
)
from spannerlab.generators import (  # noqa: E402
    cycle_graph,
    gen_big_clique,
    gen_eft_lower_bound,
    gen_hypercube,
    gen_weighted_lower_bound,
)


def big_clique_story(t: int = 6, k: int = 2) -> None:
    bundle = gen_big_clique(t)
    result = greedy_path_collection_spanner(bundle.paths, 2 * k)
    kept_pairs = {tuple(sorted(bundle.graph.endpoints(e))) for e in result.edges}
    clique = {(i, j) for i in range(t) for j in range(i + 1, t)}
    g = girth(bundle.graph.view(result.edges))
    print(f"[big-clique t={t}] n={bundle.graph.n}, offered {len(bundle.paths.paths)} "
          f"2-paths, kept {len(result.paths)}")
    print(f"  clique edges in output: {len(clique & kept_pairs)}/{len(clique)}; "
          f"output girth = {g} (triangles, not high girth)")


def hypercube_story(k: int = 5) -> None:
    bundle = gen_hypercube(k)
    result = parallel_greedy_spanner(bundle.graph, k, bundle.matchings)
    m = bundle.graph.m
    print(f"[hypercube k={k}] n={bundle.graph.n}: parallel greedy kept "
          f"{len(result.edges)}/{m} edges across {len(bundle.matchings)} rounds")


def weighted_lb_story(k: int = 2, eps: float = 0.5) -> None:
    bundle = gen_weighted_lower_bound(cycle_graph(5), eps, k)
    result = build_weighted_spanner(bundle.graph, k)
    sizes = {f"phase{i}": len(getattr(result, f"phase{i}")) for i in range(1, 6)}
    print(f"[weighted lower bound, k={k}] kept {len(result.edges)}/"
          f"{bundle.graph.m} edges; phase sizes {sizes}")


def eft_lb_story(f: int = 2, k: int = 2) -> None:
    bundle = gen_eft_lower_bound(cycle_graph(6), f)
    g = bundle.graph
    result, _ = eft_greedy_exact(g, 2, 2 * k, f)
    kept = len(result.edges)
    broken = sum(
        1
        for drop in range(g.m)
        if not verify_eft(g, set(range(g.m)) - {drop}, 2, 2 * k, f).passed
    )
    print(f"[EFT lower bound, f={f}] kept {kept}/{g.m} edges; "
          f"{broken}/{g.m} single-edge deletions break the contract")


def main() -> int:
    big_clique_story()
    hypercube_story()
    weighted_lb_story()
    eft_lb_story()
    return 0


if __name__ == "__main__":
    sys.exit(main())
