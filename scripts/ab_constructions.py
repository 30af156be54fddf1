#!/usr/bin/env python3
"""Paired in-process timing of the constructions of two checkouts.

Copies the ``src/spannerlab`` package of each checkout under a package name
of its own, so both load into one interpreter, and builds the seed-0 hosts
of the four benchmark workloads (the ``full`` sizes of
``perfbench/workloads.py``, or its ``smoke`` sizes with ``--quick``) and a
unit-weight twin of the weighted host. Each construction must give equal
result reprs from both checkouts; then every pair of runs times it once per
checkout, the order alternating from pair to pair so that drift of the
machine falls on both sides. Per construction it prints the median of each
side, the median of the paired ratios change/parent, and the pairs the
change won.

Run from the repository root, with two checkouts (such as one made by
``git archive``) or the repository against itself:

    python scripts/ab_constructions.py PARENT CHANGE [--pairs N] [--quick]

Only the standard library is needed.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# workload -> ((n, p) full, (n, p) smoke, weighted, doubled), as in
# perfbench/workloads.py; "weighted-unit" is the weighted host's twin with
# every weight 1 (the weights come from a stream of their own), on which
# ties decide the weighted construction
HOSTS = {
    "gnp-sparse": ((300, 0.06), (60, 0.1), False, False),
    "gnp-dense": ((160, 0.3), (40, 0.4), False, False),
    "weighted": ((90, 0.1685), (30, 0.25), True, False),
    "weighted-unit": ((90, 0.1685), (30, 0.25), False, False),
    "eft": ((20, 0.4), (12, 0.4), False, True),
}

# construction -> (its run on one package over the hosts, the hosts it runs
# on), with the arguments the benchmark jobs pass
CONSTRUCTIONS = {
    "greedy-dr": (lambda lib, g: lib.greedy_dr_spanner(g, 2, 4), ("gnp-sparse", "gnp-dense")),
    "union": (lambda lib, g: lib.union_hybrid_spanner(g, 2), ("gnp-dense",)),
    "parallel": (
        lambda lib, g: lib.parallel_greedy_spanner(g, 2, lib.matching_rounds(g)),
        ("gnp-sparse", "gnp-dense"),
    ),
    "weighted": (lambda lib, g: lib.build_weighted_spanner(g, 3), ("weighted", "weighted-unit")),
    "eft-exact": (lambda lib, g: lib.eft_greedy_exact(g, 2, 4, 2), ("eft",)),
}


def load(checkout: Path, name: str, into: Path):
    """The ``spannerlab`` package of ``checkout``, imported as ``name``. The
    package imports itself only relatively, so a copy under another name is
    self-contained."""
    shutil.copytree(checkout / "src" / "spannerlab", into / name)
    return importlib.import_module(name)


def host(lib, workload: str, quick: bool):
    full, smoke, weighted, doubled = HOSTS[workload]
    n, p = smoke if quick else full
    g = lib.generators.gen_random(n, p, 0, weighted).graph
    if doubled:
        g = lib.Multigraph(g.n, [(e.u, e.v) for e in g.edges() for _ in range(2)])
    return g


def timed(run, lib, graphs) -> float:
    start = perf_counter()
    for g in graphs:
        run(lib, g)
    return perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout timed as the parent")
    parser.add_argument("change", type=Path, help="checkout timed as the change")
    parser.add_argument("--pairs", type=int, default=10, help="timed pairs per construction")
    parser.add_argument("--quick", action="store_true", help="smoke-size hosts and 3 pairs")
    args = parser.parse_args(argv)
    pairs = 3 if args.quick else args.pairs
    if pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        libs = [
            load(args.parent.resolve(), "ab_parent", Path(tmp)),
            load(args.change.resolve(), "ab_change", Path(tmp)),
        ]
        hosts = [{w: host(lib, w, args.quick) for w in HOSTS} for lib in libs]
        for w in HOSTS:
            a, b = ([(e.u, e.v, e.weight) for e in h[w].edges()] for h in hosts)
            if a != b:
                raise SystemExit(f"the checkouts build different {w} hosts")
        print(f"{'construction':<12} {'parent_s':>9} {'change_s':>9} {'ratio':>7} {'wins':>6}")
        for label, (run, workloads) in CONSTRUCTIONS.items():
            graphs = [[h[w] for w in workloads] for h in hosts]
            results = [[repr(run(lib, g)) for g in gs] for lib, gs in zip(libs, graphs)]
            if results[0] != results[1]:
                raise SystemExit(f"{label}: the checkouts give different results")
            times: list[list[float]] = [[], []]
            for i in range(pairs):
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    times[side].append(timed(run, libs[side], graphs[side]))
            ratios = [b / a for a, b in zip(*times)]
            wins = sum(b < a for a, b in zip(*times))
            print(
                f"{label:<12} {statistics.median(times[0]):>9.4f} {statistics.median(times[1]):>9.4f}"
                f" {statistics.median(ratios):>7.3f} {wins:>3}/{pairs:<2}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
