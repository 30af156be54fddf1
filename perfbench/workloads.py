"""Benchmark workloads: a seeded instance plus a fixed job of CLI commands.

Every command of a job reads and writes files named relative to the job's
working directory; ``g.txt`` is always the host instance. Reasons for each
workload are recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

from spannerlab import generators
from spannerlab.graphs import Multigraph

HOST = "g.txt"


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict[str, tuple[int, float]]  # profile -> (n, p) of gen_random
    job: tuple[tuple[str, ...], ...]
    weighted: bool = False
    doubled: bool = False
    # Kernels whose call counts the growth mode reports, as tracer keys.
    growth_kernels: tuple[str, ...] = ()

    def instance(self, seed: int, n: int, p: float) -> Multigraph:
        g = generators.gen_random(n, p, seed, self.weighted).graph
        if self.doubled:
            g = Multigraph(g.n, [(e.u, e.v) for e in g.edges() for _ in range(2)])
        return g


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gnp-sparse",
            {"full": (300, 0.06), "smoke": (60, 0.1)},
            (
                ("span", "greedy-dr", "-d", "2", "-r", "4", "-i", HOST, "-o", "h1.txt", "--trace", "t1.jsonl"),
                ("verify", "dr", "-d", "2", "-r", "4", "-i", HOST, "-s", "h1.txt"),
                ("span", "parallel", "-k", "2", "-i", HOST, "-o", "h2.txt"),
                ("stats", "-k", "2", "-s", "h2.txt"),
            ),
            growth_kernels=("greedy.hop_distance", "greedy.hop_distances", "greedy.lex_shortest_path"),
        ),
        Workload(
            "gnp-dense",
            {"full": (160, 0.3), "smoke": (40, 0.4)},
            (
                ("span", "greedy-dr", "-d", "2", "-r", "4", "-i", HOST, "-o", "h1.txt"),
                ("span", "union", "-k", "2", "-i", HOST, "-o", "h2.txt"),
                ("span", "parallel", "-k", "2", "-i", HOST, "-o", "h3.txt"),
                ("verify", "dr", "-d", "2", "-r", "4", "-i", HOST, "-s", "h1.txt"),
                ("verify", "alpha-beta", "-k", "2", "-i", HOST, "-s", "h2.txt"),
            ),
        ),
        Workload(
            "weighted",
            {"full": (90, 0.1685), "smoke": (30, 0.25)},
            (
                ("span", "weighted", "-k", "3", "-i", HOST, "-o", "h1.txt", "--trace", "t1.jsonl"),
                ("verify", "weighted", "-k", "3", "--max-hops", "4", "--samples", "200", "-i", HOST, "-s", "h1.txt"),
            ),
            weighted=True,
            growth_kernels=(
                "weighted.has_cluster",
                "weighted.weighted_ball",
                "weighted.hop_distance",
                "weighted.weighted_dist",
                "greedy.weighted_dist",
            ),
        ),
        Workload(
            "eft",
            {"full": (20, 0.4), "smoke": (12, 0.4)},
            (
                ("span", "eft-exact", "-k", "2", "-f", "2", "-i", HOST, "-o", "h1.txt", "--trace", "t1.jsonl"),
                ("span", "eft-fast", "-k", "2", "-f", "1", "-i", HOST, "-o", "h2.txt"),
                ("span", "eft-union", "-k", "2", "-f", "1", "-i", HOST, "-o", "h3.txt"),
                ("verify", "eft", "-d", "2", "-r", "4", "-f", "1", "-i", HOST, "-s", "h1.txt"),
            ),
            doubled=True,
        ),
    )
}


def outputs(argv: tuple[str, ...]) -> list[str]:
    """Files a command writes: its ``-o`` and ``--trace`` arguments."""
    return [argv[i + 1] for i, tok in enumerate(argv[:-1]) if tok in ("-o", "--trace")]
