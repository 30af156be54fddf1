"""Command line front end: graph files, construction dispatch, verification.

File format (one graph per file)::

    # spanner-graph v1 n=<int> weighted=<0|1> multigraph=<0|1>
    u v [w]

Edge ids are assigned by position among edge lines (zero-based); blank lines
and further ``#`` comments are ignored and do not consume ids; numbers are
ASCII, without underscores; n may not exceed ``MAX_VERTICES`` (2**24),
checked before any allocation. Exit codes:
0 success, 2 verification counterexample, 3 budget exceeded, 64 usage error,
65 malformed input data, 74 a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from . import generators
from .fault_tolerant import (
    eft_greedy_exact,
    eft_modified_greedy,
    eft_union_spanner,
)
from .graphs import BudgetExceededError, Multigraph, girth
from .greedy import (
    greedy_dr_spanner,
    matching_rounds,
    parallel_greedy_spanner,
    sqrt_k_spanner,
    union_hybrid_spanner,
)
from .verify import (
    env_budget,
    size_report,
    verify_alpha_beta,
    verify_dr,
    verify_eft,
)
from .weighted import build_weighted_spanner, verify_weighted_bound

__all__ = ["main", "parse_graph", "parse_graph_text", "emit_graph", "format_graph"]

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74

HEADER_PREFIX = "# spanner-graph v1"
MAX_VERTICES = 2**24  # Multigraph holds an adjacency slot per vertex, edges or not


class GraphParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _number(kind, token: str):
    # int() and float() also take underscores and non-ASCII digits
    if "_" in token or not token.isascii():
        raise ValueError(f"invalid number {token!r}")
    return kind(token)


def parse_graph_text(text: str) -> Multigraph:
    lines = text.splitlines()
    header = None
    header_line = 0
    for i, raw in enumerate(lines, start=1):
        if raw.strip():
            header = raw.strip()
            header_line = i
            break
    if header is None or not header.startswith(HEADER_PREFIX):
        raise GraphParseError("missing '# spanner-graph v1' header", header_line or 1)
    fields = {}
    for token in header[len(HEADER_PREFIX) :].split():
        key, _, value = token.partition("=")
        if not value:
            raise GraphParseError(f"malformed header token {token!r}", header_line)
        fields[key] = value
    try:
        n = _number(int, fields["n"])
        weighted = fields["weighted"] == "1"
        multigraph = fields["multigraph"] == "1"
    except (KeyError, ValueError) as exc:
        raise GraphParseError(f"malformed header: {exc}", header_line) from exc
    if n < 0:
        raise GraphParseError(f"negative vertex count n={n}", header_line)
    if n > MAX_VERTICES:
        raise GraphParseError(f"vertex count n={n} exceeds the cap of {MAX_VERTICES}", header_line)
    if fields.get("weighted") not in ("0", "1") or fields.get("multigraph") not in ("0", "1"):
        raise GraphParseError("weighted and multigraph flags must be 0 or 1", header_line)

    edges: list[tuple[int, int, float]] = []
    pairs: set[tuple[int, int]] = set()
    for i, raw in enumerate(lines, start=1):
        if i <= header_line:
            continue
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if weighted:
            if len(parts) != 3:
                raise GraphParseError("expected 'u v w' on weighted edge line", i)
        elif len(parts) != 2:
            raise GraphParseError("expected 'u v' on unweighted edge line", i)
        try:
            u, v = _number(int, parts[0]), _number(int, parts[1])
            w = _number(float, parts[2]) if weighted else 1.0
        except ValueError as exc:
            raise GraphParseError(str(exc), i)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", i)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex id out of range for n={n}", i)
        if weighted and not (w > 0 and math.isfinite(w)):
            raise GraphParseError(f"nonpositive weight {w}", i)
        if not multigraph:
            pair = (min(u, v), max(u, v))
            if pair in pairs:
                raise GraphParseError("duplicate edge in a graph declared multigraph=0", i)
            pairs.add(pair)
        edges.append((u, v, w))
    return Multigraph(n, edges, weighted=weighted)


def parse_graph(path: str) -> Multigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def format_graph(g: Multigraph) -> str:
    multi = 0 if g.is_simple() else 1
    out = [f"{HEADER_PREFIX} n={g.n} weighted={1 if g.weighted else 0} multigraph={multi}"]
    for e in g.edges():
        if g.weighted:
            out.append(f"{e.u} {e.v} {e.weight!r}")
        else:
            out.append(f"{e.u} {e.v}")
    return "\n".join(out) + "\n"


def emit_graph(g: Multigraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))


def subgraph_of(g: Multigraph, edge_ids) -> Multigraph:
    """New graph over g's vertex range containing the given edges, id order."""
    rows = []
    for eid in sorted(edge_ids):
        u, v = g.endpoints(eid)
        rows.append((u, v, g.weight(eid)))
    return Multigraph(g.n, rows, weighted=g.weighted)


def match_subgraph(g: Multigraph, h: Multigraph) -> frozenset[int]:
    """Map the edges of a candidate file back onto host edge ids.

    Matching is by (endpoints, weight) multisets, smallest host ids first;
    fails if h is not a sub-multigraph of g.
    """
    if h.n != g.n:
        raise ValueError(f"vertex count mismatch: host n={g.n}, candidate n={h.n}")
    pool: dict[tuple[int, int, float], list[int]] = {}
    for e in g.edges():
        key = (min(e.u, e.v), max(e.u, e.v), e.weight)
        pool.setdefault(key, []).append(e.id)
    for ids in pool.values():
        ids.sort(reverse=True)
    chosen = []
    for e in h.edges():
        key = (min(e.u, e.v), max(e.u, e.v), e.weight)
        ids = pool.get(key)
        if not ids:
            raise ValueError(f"candidate edge ({e.u},{e.v},{e.weight}) not in host graph")
        chosen.append(ids.pop())
    return frozenset(chosen)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(kind, ok, wanted: str):
    """Argparse type for a ``kind`` value that satisfies ``ok``; text that
    does not parse is tested as NaN, which fails every comparison."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return parse


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f"int >= {low}")


_positive_int = _at_least(1)
_nonnegative_int = _at_least(0)
_nonnegative_float = _checked(float, lambda v: 0 <= v < math.inf, "finite float >= 0")
_unit_closed = _checked(float, lambda v: 0 <= v <= 1, "float in [0, 1]")
_unit_open = _checked(float, lambda v: 0 < v < 1, "float in (0, 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spanner", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance family")
    gen.add_argument("family", choices=["big-clique", "hypercube", "weighted-lb", "eft-lb", "gnp"])
    gen.add_argument("-t", type=_at_least(2), default=4, help="clique side for big-clique")
    gen.add_argument("-k", type=_positive_int, default=3, help="dimension / stretch parameter")
    gen.add_argument("-f", type=_positive_int, default=1, help="fault budget for eft-lb")
    gen.add_argument("-n", type=_nonnegative_int, default=20, help="vertex count for gnp")
    gen.add_argument("-p", type=_unit_closed, default=0.2, help="edge probability for gnp")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weighted", action="store_true")
    gen.add_argument("--eps", type=_unit_open, default=0.5, help="leaf weight for weighted-lb")
    gen.add_argument("--base", default="cycle:5", help="base graph spec for *-lb families")
    gen.add_argument("-o", "--output", required=True)

    span = sub.add_parser("span", help="run a spanner construction")
    span.add_argument(
        "algo",
        choices=[
            "greedy-dr",
            "parallel",
            "sqrt-k",
            "union",
            "weighted",
            "eft-exact",
            "eft-fast",
            "eft-union",
        ],
    )
    span.add_argument("-k", type=_positive_int, default=2)
    span.add_argument("-d", type=_positive_int, default=2)
    span.add_argument("-r", type=_nonnegative_int, default=None, help="default 2k")
    span.add_argument("-f", type=_nonnegative_int, default=1)
    span.add_argument("--fast", action="store_true", help="eft-union: use the polynomial 2-path pass")
    span.add_argument("-i", "--input", required=True)
    span.add_argument("-o", "--output", required=True)
    span.add_argument("--trace", default=None, help="write line-delimited provenance records")

    ver = sub.add_parser("verify", help="verify a spanner contract")
    ver.add_argument("contract", choices=["dr", "eft", "alpha-beta", "weighted"])
    ver.add_argument("-i", "--input", required=True, help="host graph file")
    ver.add_argument("-s", "--spanner", required=True, help="candidate subgraph file")
    ver.add_argument("-d", type=_positive_int, default=2)
    ver.add_argument("-r", type=_nonnegative_int, default=None, help="default 2k")
    ver.add_argument("-f", type=_nonnegative_int, default=0)
    ver.add_argument("-k", type=_positive_int, default=2)
    ver.add_argument("--alpha", type=_nonnegative_float, default=None)
    ver.add_argument("--beta", type=_nonnegative_float, default=None)
    ver.add_argument("--max-hops", type=_at_least(2), default=2)
    ver.add_argument("--samples", type=_nonnegative_int, default=200)
    ver.add_argument("--budget", type=_nonnegative_int, default=None)

    stats = sub.add_parser("stats", help="report size and girth of a graph file")
    stats.add_argument("-s", "--spanner", required=True)
    stats.add_argument("-k", type=_positive_int, required=True)
    return parser


def _trace_records(result) -> list[dict]:
    records: list[dict] = []
    if hasattr(result, "phase1"):
        records.append({"event": "phase", "phase": 1, "edges": sorted(result.phase1)})
        records.append({"event": "phase", "phase": 2, "edges": sorted(result.phase2)})
        records.append(
            {
                "event": "saturated",
                "edges": sorted(result.saturation.saturated),
                "thresholds": {str(v): w for v, w in result.saturation.thresholds.items()},
            }
        )
        for dec in result.phase3_log:
            records.append(
                {
                    "event": "phase3",
                    "vertex": dec.vertex,
                    "neighbor": dec.neighbor,
                    "edge": dec.edge_id,
                    "key": dec.key,
                    "verdict": dec.verdict,
                }
            )
        for eid, verdict in result.phase4_log:
            records.append({"event": "phase4", "edge": eid, "verdict": verdict})
        for add in result.phase5_paths:
            records.append(
                {
                    "event": "phase5",
                    "vertices": list(add.path.vertices),
                    "edges": list(add.path.edge_ids),
                    "sat_edge": add.sat_edge,
                    "lat_edge": add.lat_edge,
                    "key": add.key,
                }
            )
        return records
    for i, p in enumerate(result.paths):
        rec = {
            "event": "add",
            "index": i,
            "vertices": list(p.vertices),
            "edges": list(p.edge_ids),
        }
        records.append(rec)
    return records


def _cmd_gen(args) -> int:
    if args.family == "big-clique":
        bundle = generators.gen_big_clique(args.t)
    elif args.family == "hypercube":
        bundle = generators.gen_hypercube(args.k)
    elif args.family == "weighted-lb":
        base = generators.named_graph(args.base)
        bundle = generators.gen_weighted_lower_bound(base, args.eps, args.k)
    elif args.family == "eft-lb":
        base = generators.named_graph(args.base)
        bundle = generators.gen_eft_lower_bound(base, args.f)
    else:
        bundle = generators.gen_random(args.n, args.p, args.seed, args.weighted)
    emit_graph(bundle.graph, args.output)
    print(f"wrote {bundle.tag}: n={bundle.graph.n} m={bundle.graph.m} -> {args.output}")
    return EXIT_OK


def _cmd_span(args) -> int:
    g = parse_graph(args.input)
    k = args.k
    blocking = None
    if args.algo == "greedy-dr":
        result = greedy_dr_spanner(g, args.d, args.r)
    elif args.algo == "parallel":
        result = parallel_greedy_spanner(g, k, matching_rounds(g))
    elif args.algo == "sqrt-k":
        result = sqrt_k_spanner(g, k)
    elif args.algo == "union":
        result = union_hybrid_spanner(g, k)
    elif args.algo == "weighted":
        result = build_weighted_spanner(g, k)
    elif args.algo == "eft-exact":
        result, blocking = eft_greedy_exact(g, args.d, args.r, args.f)
    elif args.algo == "eft-fast":
        result, blocking = eft_modified_greedy(g, k, args.f)
    else:
        result = eft_union_spanner(g, k, args.f, fast=args.fast)
    edges = tuple(result.edges)
    emit_graph(subgraph_of(g, edges), args.output)
    if args.trace:
        records = _trace_records(result)
        if blocking is not None:
            for rec, faults in zip(records, blocking.fault_sets):
                rec["fault_set"] = sorted(faults)
        with open(args.trace, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"{args.algo}: kept {len(edges)} of {g.m} edges -> {args.output}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = parse_graph(args.input)
    h_graph = parse_graph(args.spanner)
    ids = match_subgraph(g, h_graph)
    budget = args.budget if args.budget is not None else env_budget()
    if args.contract == "weighted":
        report = verify_weighted_bound(
            g, ids, args.k, max_hops=args.max_hops, sample=args.samples, budget=budget
        )
        if report.passed:
            print(
                f"weighted contract holds: worst ratio {report.worst_ratio:.6f} "
                f"({report.two_paths_checked} 2-paths, {report.sampled_checked} sampled)"
            )
            return EXIT_OK
        print(f"VIOLATED: ratio {report.worst_ratio:.6f} on path {report.worst_case}")
        return EXIT_COUNTEREXAMPLE
    if args.contract == "dr":
        report = verify_dr(g, ids, args.d, args.r, budget)
    elif args.contract == "eft":
        report = verify_eft(g, ids, args.d, args.r, args.f, budget)
    else:
        alpha = args.k if args.alpha is None else args.alpha
        beta = (args.k - 1) if args.beta is None else args.beta
        report = verify_alpha_beta(g, ids, alpha, beta, args.f, budget)
    if report.passed:
        print(
            f"contract holds: {report.pairs_checked} pairs, "
            f"{report.fault_sets_checked} fault sets"
        )
        return EXIT_OK
    ce = report.counterexample
    print(
        f"VIOLATED: pair ({ce.x},{ce.y}) faults {list(ce.faults)} "
        f"distance {ce.distance} exceeds bound {ce.bound}"
    )
    return EXIT_COUNTEREXAMPLE


def _cmd_stats(args) -> int:
    h = parse_graph(args.spanner)
    rep = size_report(h, h.n, args.k)
    print(
        f"n={h.n} m={h.m} ratio={rep.ratio:.4f} girth={girth(h.view())}"
    )
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("span", "verify"):
        if args.r is None:
            args.r = 2 * args.k
        if args.r < args.d:
            parser.error(f"need r >= d, got d={args.d} and r={args.r} (r defaults to 2k)")
    if args.command == "span" and args.algo == "eft-exact" and args.d not in (1, 2):
        parser.error("span eft-exact supports only -d 1 or -d 2")
    if args.command == "gen" and args.family == "hypercube" and args.k > 16:
        parser.error(f"gen hypercube supports -k up to 16, got {args.k}")
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "span":
            return _cmd_span(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_stats(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename is not None else exc
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
