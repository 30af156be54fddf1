"""Command line front end: graph files, construction dispatch, verification.

File format (one graph per file)::

    # spanner-graph v1 n=<int> weighted=<0|1> multigraph=<0|1>
    u v [w]

Edge ids are assigned by position among edge lines (zero-based); blank lines
and further ``#`` comments are ignored and do not consume ids; numbers are
ASCII, without underscores; n may not exceed ``MAX_VERTICES`` (2**24),
checked before any allocation. The canonical form that ``format_graph``
writes (exactly that header, then ``u v`` or ``u v w`` lines of ASCII
digits, one space apart, each ending in a newline) is read in one pass;
every other accepted form (comments, blank lines, tabs, CRLF, signs, no
final newline) goes through a per-line loop and gives the same graph, and
any bad file gets the same error at the same line either way. Exit codes:
0 success, 2 verification counterexample, 3 budget exceeded, 64 usage error,
65 malformed input data, 74 a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from operator import eq
from typing import Iterable, Iterator, Sequence

from . import generators
from .generators import catalog_entry
from .fault_tolerant import eft_greedy_exact, eft_modified_greedy, eft_union_spanner
from .graphs import BudgetExceededError, Multigraph, girth
from .greedy import (
    greedy_dr_spanner,
    matching_rounds,
    parallel_greedy_spanner,
    sqrt_k_spanner,
    union_hybrid_spanner,
)
from .verify import (
    DEFAULT_CHECK_BUDGET,
    size_report,
    verify_alpha_beta,
    verify_dr,
    verify_eft,
    verify_weighted_bound,
)
from .weighted import build_weighted_spanner

__all__ = ["main", "parse_graph", "parse_graph_text", "emit_graph", "format_graph"]

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74

HEADER_PREFIX = "# spanner-graph v1"
# No command walks the isolated vertices of a file, but the cluster and
# saturation tests compare exact integer powers of n, so n still bounds work.
MAX_VERTICES = 2**24
# gen may ask for as much work as a file may have vertices: the edges it
# writes, or for gnp the vertex pairs it draws (see _FAMILIES). This stops a
# traceback, not a large job: building and writing took about 330 bytes of
# peak memory (ru_maxrss) and 2 us per edge (gen eft-lb -f 209715, 1,048,580
# edges, Python 3.11, 2 vCPUs), so about 5.6 GB at the cap; gnp -p 1 about 390
# (6.5 GB). big-clique is the exception: the 2-path collection it builds and
# never writes brings its peak to about 730 bytes per edge, 12 GB at t = 3344.
MAX_GEN_EDGES = 2**24
# -k of span, verify and stats. The cluster tests of span parallel and span
# weighted compare |B| at every radius r up to k with a table of least sizes,
# built once per run from exact powers of up to k·log2(n) bits. By subprocess
# on a 2-vCPU host: span parallel 0.2 s at k = 1024 and 0.4 s at 2048 on a
# 100-vertex, 511-edge gnp file, span weighted 0.2 s and 0.3 s on its weighted
# twin, and 0.4 s and 2.1-2.3 s at 1024 on G(1000, .01). verify and stats
# turn k into a float, which 10**400 overflows.
MAX_K = 1024
# Lines per write of emit_graph: tens of kB of text.
EMIT_CHUNK = 4096


class GraphParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _number(kind, token: str):
    # int() and float() also take underscores and non-ASCII digits
    if "_" in token or not token.isascii():
        raise ValueError(f"invalid number {token!r}")
    return kind(token)


# The text format_graph writes. [0-9] and not \d, which also matches the
# non-ASCII digits that int() and float() read and _number rejects.
_CANONICAL_HEADER = re.compile(r"# spanner-graph v1 n=([0-9]+) weighted=([01]) multigraph=([01])\n")
_CANONICAL_BODY = {
    False: re.compile(r"(?:[0-9]+ [0-9]+\n)*"),
    True: re.compile(r"(?:[0-9]+ [0-9]+ [0-9]+(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?\n)*"),
}


def parse_graph_text(text: str) -> Multigraph:
    """The graph of a file's text; ``GraphParseError`` names the first bad line.

    Text in the canonical form is read in one pass; all other text, and
    canonical text that fails a check, goes through the line loop, which
    gives the same graph or the error."""
    g = _read_canonical(text)
    return _read_lines(text) if g is None else g


def _read_canonical(text: str) -> Multigraph | None:
    """The graph of canonical text, or None; never raises.

    One regex match checks the shape of the whole body, so its tokens are
    ASCII numerals in ``u v [w]`` order: ids are nonnegative ints and no
    weight is NaN. The checks the line loop makes per line then run over
    whole lists, and the graph is built without checking them again; under
    ``multigraph=0`` it must then be simple.
    """
    head = _CANONICAL_HEADER.match(text)
    if head is None:
        return None
    weighted = head[2] == "1"
    if not _CANONICAL_BODY[weighted].fullmatch(text, head.end()):
        return None
    tokens = text[head.end() :].split()
    step = 3 if weighted else 2
    try:
        n = int(head[1])
        us = list(map(int, tokens[0::step]))
        vs = list(map(int, tokens[1::step]))
        ws = list(map(float, tokens[2::3])) if weighted else [1.0] * len(us)
    except ValueError:  # a numeral past int()'s digit limit
        return None
    if n > MAX_VERTICES or (us and max(max(us), max(vs)) >= n) or any(map(eq, us, vs)):
        return None
    if weighted and ws and not (min(ws) > 0 and math.isfinite(max(ws))):
        return None
    g = Multigraph._from_checked(n, us, vs, ws, weighted)
    return g if head[3] == "1" or g.is_simple() else None


def _read_lines(text: str) -> Multigraph:
    """The line loop: reads every accepted form, checks each line once, raises every error."""
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

    us, vs, ws = [], [], []
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
        us.append(u)
        vs.append(v)
        ws.append(w)
    return Multigraph._from_checked(n, us, vs, ws, weighted)


def parse_graph(path: str) -> Multigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def _graph_chunks(g: Multigraph, edge_ids: Iterable[int] | None) -> Iterator[str]:
    """``format_graph``'s header line, then its edge lines in chunks of ``EMIT_CHUNK``. The
    multigraph flag takes one pass that keeps only the endpoint pairs, as ints u * n + v, u < v."""
    ids = range(g.m) if edge_ids is None else sorted(edge_ids)
    n, ends, weight = g.n, g.endpoints, g.weight
    multi = 1 if len({u * n + v if u < v else v * n + u for u, v in map(ends, ids)}) < len(ids) else 0
    yield f"{HEADER_PREFIX} n={n} weighted={1 if g.weighted else 0} multigraph={multi}\n"
    for start in range(0, len(ids), EMIT_CHUNK):
        part = ids[start : start + EMIT_CHUNK]
        if g.weighted:
            yield "".join([f"{u} {v} {weight(eid)!r}\n" for eid, (u, v) in zip(part, map(ends, part))])
        else:
            yield "".join([f"{u} {v}\n" for u, v in map(ends, part)])


def format_graph(g: Multigraph, edge_ids: Iterable[int] | None = None) -> str:
    """File text of g, or of its subgraph on ``edge_ids`` in id order."""
    return "".join(_graph_chunks(g, edge_ids))


def emit_graph(g: Multigraph, path: str, edge_ids: Iterable[int] | None = None) -> None:
    """Write ``format_graph``'s text a chunk at a time, never all of it at once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_graph_chunks(g, edge_ids))


def match_subgraph(g: Multigraph, h: Multigraph) -> frozenset[int]:
    """Map the edges of a candidate file back onto host edge ids.

    Matching is by (endpoints, weight) multisets, smallest host ids first;
    fails if h is not a sub-multigraph of g.
    """
    if h.n != g.n:
        raise ValueError(f"vertex count mismatch: host n={g.n}, candidate n={h.n}")
    # Only the pairs that h names are pooled, each once: weight -> host ids,
    # largest first, so pop() gives the smallest.
    pools: dict[tuple[int, int], dict[float, list[int]]] = {}
    chosen = []
    for e in h.edges():
        pair = (min(e.u, e.v), max(e.u, e.v))
        if pair not in pools:
            pools[pair] = by_weight = {}
            for eid in reversed(g.edge_ids_between(*pair)):
                by_weight.setdefault(g.weight(eid), []).append(eid)
        ids = pools[pair].get(e.weight)
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
_stretch = _checked(int, lambda v: 1 <= v <= MAX_K, f"int in [1, {MAX_K}]")
_nonnegative_int = _at_least(0)
_nonnegative_float = _checked(float, lambda v: 0 <= v < math.inf, "finite float >= 0")
_unit_closed = _checked(float, lambda v: 0 <= v <= 1, "float in [0, 1]")
_unit_open = _checked(float, lambda v: 0 < v < 1, "float in (0, 1)")


# family -> (builder, work): work counts what the arguments ask for, and
# gen checks it against MAX_GEN_EDGES before any generator runs. It is the
# edges written, but for gnp the n(n - 1)/2 vertex pairs that gen_random
# draws whatever p is, which bounds the edges too. No vertex cap is needed
# besides: MAX_GEN_EDGES == MAX_VERTICES; a catalog base on N vertices has at
# least N - 1 edges, so an -lb family writes at least 2N - 1 edges on its 2N
# vertices; and n(n - 1)/2 <= 2**24 forces n <= 5793. The builder lambdas
# look each builder up in its module's namespace at call time, so a tracer
# that rebinds those names sees every call.
_FAMILIES = {
    # t(t - 1)/2 clique edges and t - 1 leaf edges per clique vertex
    "big-clique": (lambda a: generators.gen_big_clique(a.t), lambda a: 3 * a.t * (a.t - 1) // 2),
    # gen_hypercube takes only k <= 16, at most 524,288 edges
    "hypercube": (lambda a: generators.gen_hypercube(a.k), lambda a: 0),
    "weighted-lb": (
        lambda a: generators.gen_weighted_lower_bound(generators.named_graph(a.base), a.eps, a.k),
        lambda a: _lb_edges(a.base, 1),
    ),
    "eft-lb": (
        lambda a: generators.gen_eft_lower_bound(generators.named_graph(a.base), a.f),
        lambda a: _lb_edges(a.base, a.f),
    ),
    "gnp": (lambda a: generators.gen_random(a.n, a.p, a.seed, a.weighted), lambda a: a.n * (a.n - 1) // 2),
}


def _lb_edges(base: str, copies: int) -> int:
    """``copies`` of each base edge and a leaf edge per base vertex; 0 for an
    unknown spec, which the builder rejects."""
    _, n, m = catalog_entry(base) or (None, 0, 0)
    return m * copies + n


# algorithm -> (construction, rule). A construction adapts its algorithm's
# result by _paths or _phases to (edge ids, trace records); the records are a
# generator that only --trace reads. A rule gives the usage error for
# arguments its algorithm does not take, else a false value (the parser takes
# only d >= 1). As in _FAMILIES, the lambdas look names up at call time.
_SPANS = {
    "greedy-dr": (lambda g, a: _paths(greedy_dr_spanner(g, a.d, a.r)), None),
    "parallel": (lambda g, a: _paths(parallel_greedy_spanner(g, a.k, matching_rounds(g))), None),
    "sqrt-k": (lambda g, a: _paths(sqrt_k_spanner(g, a.k)), None),
    "union": (lambda g, a: _paths(union_hybrid_spanner(g, a.k)), None),
    "weighted": (lambda g, a: _phases(build_weighted_spanner(g, a.k)), lambda a: a.k < 2 and "needs -k 2 or more"),
    "eft-exact": (
        lambda g, a: _paths(*eft_greedy_exact(g, a.d, a.r, a.f)),
        lambda a: a.d > 2 and "takes -d 1 or 2 only",
    ),
    "eft-fast": (lambda g, a: _paths(*eft_modified_greedy(g, a.k, a.f)), None),
    "eft-union": (lambda g, a: _paths(eft_union_spanner(g, a.k, a.f, fast=a.fast)), None),
}


def _pairs_verdict(rep) -> str:
    if rep.passed:
        return f"contract holds: {rep.pairs_checked} pairs, {rep.fault_sets_checked} fault sets"
    ce = rep.counterexample
    return f"VIOLATED: pair ({ce.x},{ce.y}) faults {list(ce.faults)} distance {ce.distance} exceeds bound {ce.bound}"


def _weighted_verdict(rep) -> str:
    counts = f"{rep.two_paths_checked} 2-paths, {rep.sampled_checked} sampled"
    if rep.passed:
        return f"weighted contract holds: worst ratio {rep.worst_ratio:.6f} ({counts})"
    return f"VIOLATED: ratio {rep.worst_ratio:.6f} on path {rep.worst_case}"


# contract -> (check, verdict): check runs the oracle on the host and the candidate's
# edge ids, verdict gives its report's line. alpha-beta defaults to the ints k and k - 1.
_CONTRACTS = {
    "dr": (lambda g, h, a: verify_dr(g, h, a.d, a.r, a.budget), _pairs_verdict),
    "eft": (lambda g, h, a: verify_eft(g, h, a.d, a.r, a.f, a.budget), _pairs_verdict),
    "alpha-beta": (
        lambda g, h, a: verify_alpha_beta(
            g, h, a.k if a.alpha is None else a.alpha, a.k - 1 if a.beta is None else a.beta, a.f, a.budget
        ),
        _pairs_verdict,
    ),
    "weighted": (
        lambda g, h, a: verify_weighted_bound(g, h, a.k, a.max_hops, a.samples, budget=a.budget), _weighted_verdict
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spanner", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance family")
    gen.set_defaults(run=_cmd_gen)
    gen.add_argument("family", choices=_FAMILIES)
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
    span.set_defaults(run=_cmd_span)
    span.add_argument("algo", choices=_SPANS)
    span.add_argument("-k", type=_stretch, default=2)
    span.add_argument("-d", type=_positive_int, default=2)
    span.add_argument("-r", type=_nonnegative_int, default=None, help="default 2k")
    span.add_argument("-f", type=_nonnegative_int, default=1)
    span.add_argument("--fast", action="store_true", help="eft-union: use the polynomial 2-path pass")
    span.add_argument("-i", "--input", required=True)
    span.add_argument("-o", "--output", required=True)
    span.add_argument("--trace", default=None, help="write line-delimited provenance records")

    ver = sub.add_parser("verify", help="verify a spanner contract")
    ver.set_defaults(run=_cmd_verify)
    ver.add_argument("contract", choices=_CONTRACTS)
    ver.add_argument("-i", "--input", required=True, help="host graph file")
    ver.add_argument("-s", "--spanner", required=True, help="candidate subgraph file")
    ver.add_argument("-d", type=_positive_int, default=2)
    ver.add_argument("-r", type=_nonnegative_int, default=None, help="default 2k")
    ver.add_argument("-f", type=_nonnegative_int, default=0)
    ver.add_argument("-k", type=_stretch, default=2)
    ver.add_argument("--alpha", type=_nonnegative_float, default=None)
    ver.add_argument("--beta", type=_nonnegative_float, default=None)
    ver.add_argument("--max-hops", type=_at_least(2), default=2)
    ver.add_argument("--samples", type=_nonnegative_int, default=200)
    ver.add_argument("--budget", type=_nonnegative_int, default=DEFAULT_CHECK_BUDGET)

    stats = sub.add_parser("stats", help="report size and girth of a graph file")
    stats.set_defaults(run=_cmd_stats)
    stats.add_argument("-s", "--spanner", required=True)
    stats.add_argument("-k", type=_stretch, required=True)
    return parser


def _paths(result, blocking=None):
    """(edge ids, trace records) of a construction that adds paths: an "add"
    record per path, with the fault set of ``blocking`` where there is one."""
    records = (
        {"event": "add", "index": i, "vertices": list(p.vertices), "edges": list(p.edge_ids)}
        for i, p in enumerate(result.paths)
    )
    if blocking is not None:
        records = ({**rec, "fault_set": sorted(faults)} for rec, faults in zip(records, blocking.fault_sets))
    return result.edges, records


def _phases(result):
    """(edge ids, trace records) of the weighted spanner, phase by phase."""

    def records():
        yield {"event": "phase", "phase": 1, "edges": sorted(result.phase1)}
        yield {"event": "phase", "phase": 2, "edges": sorted(result.phase2)}
        sat = result.saturation
        thresholds = {str(v): w for v, w in sat.thresholds.items()}
        yield {"event": "saturated", "edges": sorted(sat.saturated), "thresholds": thresholds}
        for d in result.phase3_log:
            yield {"event": "phase3", "vertex": d.vertex, "neighbor": d.neighbor, "edge": d.edge_id, "key": d.key,
                   "verdict": d.verdict}
        yield from ({"event": "phase4", "edge": eid, "verdict": verdict} for eid, verdict in result.phase4_log)
        for a in result.phase5_paths:
            yield {"event": "phase5", "vertices": list(a.path.vertices), "edges": list(a.path.edge_ids),
                   "sat_edge": a.sat_edge, "lat_edge": a.lat_edge, "key": a.key}

    return result.edges, records()


def _cmd_gen(args) -> int:
    build, work = _FAMILIES[args.family]
    count = work(args)
    if count > MAX_GEN_EDGES:
        message = f"gen {args.family} asks for {count} edges or vertex pairs, more than the cap of {MAX_GEN_EDGES}"
        raise argparse.ArgumentError(None, message)
    bundle = build(args)
    emit_graph(bundle.graph, args.output)
    print(f"wrote {bundle.tag}: n={bundle.graph.n} m={bundle.graph.m} -> {args.output}")
    return EXIT_OK


def _cmd_span(args) -> int:
    run, rule = _SPANS[args.algo]
    problem = rule and rule(args)
    if problem:
        raise argparse.ArgumentError(None, f"span {args.algo} {problem}")
    g = parse_graph(args.input)
    edges, records = run(g, args)
    emit_graph(g, args.output, edges)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"{args.algo}: kept {len(edges)} of {g.m} edges -> {args.output}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    check, verdict = _CONTRACTS[args.contract]
    g = parse_graph(args.input)
    report = check(g, match_subgraph(g, parse_graph(args.spanner)), args)
    print(verdict(report))
    return EXIT_OK if report.passed else EXIT_COUNTEREXAMPLE


def _cmd_stats(args) -> int:
    h = parse_graph(args.spanner)
    rep = size_report(h.m, h.n, args.k)
    print(f"n={h.n} m={h.m} ratio={rep.ratio:.4f} girth={girth(h.view())}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("span", "verify"):
        if args.r is None:
            args.r = 2 * args.k
        if args.r < args.d:
            parser.error(f"need r >= d, got d={args.d} and r={args.r} (r defaults to 2k)")
    try:
        return args.run(args)
    except argparse.ArgumentError as exc:  # a value outside its table row's limit
        parser.error(str(exc))
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # gen reads no file, so its bad values all come from its arguments
        return EXIT_USAGE if args.command == "gen" else EXIT_DATA
    except OSError as exc:
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename is not None else exc
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
