#!/usr/bin/env python3
"""Empirical size-scaling study for the spanner constructions.

Reports, per construction family, how the output size compares against the
n**(1 + 1/k) yardstick as n, k, and the fault budget vary. Useful for eyeball
checks that the constants stay flat; the test suite pins the hard bounds.

Run from the repository root:

    python scripts/size_trends.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spannerlab import (  # noqa: E402
    Multigraph,
    build_weighted_spanner,
    eft_greedy_exact,
    greedy_dr_spanner,
    matching_rounds,
    parallel_greedy_spanner,
)
from spannerlab.generators import gen_hypercube, gen_random  # noqa: E402


def row(label: str, n: int, k: int, edges: int, yardstick: float, secs: float):
    print(f"{label:<26} n={n:<5} k={k}  edges={edges:<6} ratio={edges / yardstick:<8.4f} [{secs:.2f}s]")


def two_path_greedy_trend(schedule, k=2):
    print(f"\n== greedy 2->{2 * k} path counts vs n^(1+1/{k}) ==")
    for n, seeds in schedule:
        t0 = time.time()
        total = 0
        for seed in range(seeds):
            g = gen_random(n, 8 / n, 4000 + seed).graph
            total += len(greedy_dr_spanner(g, 2, 2 * k).paths)
        row("greedy 2-paths (avg)", n, k, total // seeds, n ** (1 + 1 / k), time.time() - t0)


def parallel_trend(dims):
    print("\n== parallel greedy on hypercubes (worst case: keeps everything) ==")
    for k in dims:
        bundle = gen_hypercube(k)
        t0 = time.time()
        result = parallel_greedy_spanner(bundle.graph, k, bundle.matchings)
        n = bundle.graph.n
        row("parallel on Q_k", n, k, len(result.edges), k * n ** (1 + 1 / k), time.time() - t0)
    print("\n== parallel greedy on G(n, p) with scanned matchings ==")
    for seed in range(3):
        g = gen_random(120, 0.1, 7000 + seed).graph
        k = 2
        t0 = time.time()
        result = parallel_greedy_spanner(g, k, matching_rounds(g))
        row("parallel on gnp", g.n, k, len(result.edges), k * g.n ** (1 + 1 / k), time.time() - t0)


def eft_trend(n, fault_budgets, k=2):
    print(f"\n== exact EFT 2->{2 * k} greedy: size vs f * n^(1+1/{k}) ==")
    base = gen_random(n, 4.5 / n, 12_000).graph
    doubled = Multigraph(n, [(e.u, e.v) for e in base.edges() for _ in range(2)])
    for f in fault_budgets:
        t0 = time.time()
        result, _ = eft_greedy_exact(doubled, 2, 2 * k, f)
        row(f"eft exact (f={f})", n, k, len(result.edges), f * n ** (1 + 1 / k), time.time() - t0)


def weighted_trend(sizes, k=3):
    print(f"\n== weighted spanner on G(n, 15/n): size vs n^(1+1/{k}) ==")
    for n in sizes:
        g = gen_random(n, 15 / n, 13_000 + n, True).graph
        t0 = time.time()
        result = build_weighted_spanner(g, k)
        row("weighted", n, k, len(result.edges), n ** (1 + 1 / k), time.time() - t0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller instance schedule")
    args = parser.parse_args()
    if args.quick:
        two_path_greedy_trend(((100, 5), (200, 5)))
        parallel_trend((2, 3, 4))
        eft_trend(100, (1, 2))
        weighted_trend((60, 120))
    else:
        two_path_greedy_trend(((100, 20), (200, 20), (400, 20), (800, 5), (1600, 5)))
        parallel_trend((2, 3, 4, 5, 6))
        eft_trend(150, (1, 2, 3))
        weighted_trend((125, 250, 500, 1000))
    return 0


if __name__ == "__main__":
    sys.exit(main())
