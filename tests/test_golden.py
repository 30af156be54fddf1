"""Golden digests: the outputs of every construction stay byte-identical.

Each digest is a SHA-256 over outputs that refactors of the search kernels
must not change: the ``span`` output file, ``--trace`` records and stdout of
every CLI algorithm, the paths kept by the path-collection greedy, the
verdicts of blocking-set replay, and the reports of the exhaustive oracles. A mismatch means behaviour changed; re-pin
only when that change is intended.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from spannerlab import (
    Multigraph,
    PathSeq,
    eft_greedy_exact,
    eft_modified_greedy,
    gen_big_clique,
    gen_random,
    greedy_path_collection_spanner,
    verify_alpha_beta,
    verify_blocking_set,
    verify_dr,
    verify_eft,
)
from spannerlab.cli import emit_graph, main
from spannerlab.greedy import PathCollection

SEEDS = (1, 2)


def sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def doubled(g: Multigraph) -> Multigraph:
    return Multigraph(g.n, [(e.u, e.v) for e in g.edges() for _ in range(2)])


def instance(seed: int, n: int, p: float, weighted: bool = False, double: bool = False):
    g = gen_random(n, p, seed, weighted).graph
    return doubled(g) if double else g


# name -> (instance arguments, span arguments after the algorithm name)
CLI_CASES = {
    "greedy-dr": ((40, 0.12), ("greedy-dr", "-d", "2", "-r", "3")),
    "greedy-dr-d3": ((24, 0.15), ("greedy-dr", "-d", "3", "-r", "5")),
    "parallel": ((40, 0.15), ("parallel", "-k", "2")),
    "sqrt-k": ((24, 0.15), ("sqrt-k", "-k", "2")),
    "union": ((40, 0.15), ("union", "-k", "2")),
    "weighted": ((24, 0.25, True), ("weighted", "-k", "3")),
    "eft-exact": ((12, 0.4), ("eft-exact", "-k", "2", "-f", "1")),
    "eft-exact-multi": ((9, 0.4, False, True), ("eft-exact", "-d", "2", "-r", "3", "-f", "2")),
    "eft-fast": ((12, 0.4, False, True), ("eft-fast", "-k", "2", "-f", "1")),
    "eft-union": ((10, 0.4, False, True), ("eft-union", "-k", "2", "-f", "1")),
    "eft-union-fast": ((12, 0.4), ("eft-union", "-k", "2", "-f", "1", "--fast")),
}

GOLDEN_CLI = {
    "eft-exact:1": "3b2acb51e36796af879b14fff92bcc1d0fb2e12be787574a4b3d11f3c1332bc9",
    "eft-exact:2": "a435f82e342fdb22261965df7aa57b0ae210d97b281b58ab83ad1b4ea314e306",
    "eft-exact-multi:1": "1a19488961f93e87f046c709f0cd9b8ea181682b0321ceba068c5cb52754ca4c",
    "eft-exact-multi:2": "8c230ff821da8102f52a03bd946d62c15da06b16e4beb33293baf753c705a4aa",
    "eft-fast:1": "57c50ad65437a630b2a22ac95bcbc253c1f1a58e3e14bd5b7e1ec4229c9ccadf",
    "eft-fast:2": "64e02d8c6547025c7fa44267d36c9c9bd21c92a58d4d43eff17e66c6d5b076be",
    "eft-union:1": "0c0d5875659009a5998a9ff1e8a2e9efef7169c710b57a039c885bbf4b9d064b",
    "eft-union:2": "304c2f065585e26288ed3aabad10e287d72cb7296a2caa7e68fcce14c9f57311",
    "eft-union-fast:1": "3c5d4613c872d88154928cf5b256bca1a3e031fc2635d928ca599ca626375263",
    "eft-union-fast:2": "d07d64838e7fd623daaa985ba56ce4bffa49efd5a2e6b04d43c6c09cde7716a9",
    "greedy-dr:1": "5f639c70021b31f0264d565a2037aeac6ed44a618d04760306413db841062968",
    "greedy-dr:2": "6e3dc733100c17ac71974fe0c1d050dd83afd72ee2b633b4eeafb17015799a3b",
    "greedy-dr-d3:1": "5024badc793d238aac2acb9dceb214d3f595efe5b328ecb8001f58a57045145e",
    "greedy-dr-d3:2": "db479674806c91506932237f00287eedbdcde91b5fbbd287a57d2bf89f9a3bba",
    "parallel:1": "811f73cbd240ac0b30cf5fc5e64bc3e6a7865a569ad53c16e4e9ddca8672188c",
    "parallel:2": "b53ba7aaa5a78e676bf905960e888ba64a79d16f4eab55ffe3019d4b93c6d08e",
    "sqrt-k:1": "aef458b3edb4569049e907515db3a487b0ba437f2c2f665a486cd4b46936d1d1",
    "sqrt-k:2": "fbf8ffa66cd1342735cfdd45371f4f107cdc40ee98374e2cb9013753e180d50b",
    "union:1": "e16a35d9e21e10ce4937b5e58234909dc70130a54e6177696b55c3f70aa7ce40",
    "union:2": "158b36b1c7d7fa6a433e5f1be363288fd9cfe92788ce3bf28edfb7dc5aff30f8",
    "weighted:1": "84456354881c66a142285dc196c86cdf35ede7a1603a460aeebbcadb13dc48b1",
    "weighted:2": "465646cd1725546ffd3c5299ea7a5c6a308d615e8723b88962a6bd41e26880af",
}

GOLDEN_PATHS = "fd3ee4649b2031d6cb5003d745d1a5343299b7c9f9365560be45fcc13245bce3"

GOLDEN_BLOCKING = "3fb70e718dd160a0efe8b4cc0164cf1feb609a5631b420ad7c9179a5f5569456"

GOLDEN_ORACLE = "e199e17d39fe3287a1e642d5041a89440f5fc82df46960a8a7ca096df730e12d"


def cli_digest(tmp_path, capsys, name: str, seed: int) -> str:
    inst, span = CLI_CASES[name]
    host, out, trace = (tmp_path / f for f in ("g.txt", "h.txt", "t.jsonl"))
    emit_graph(instance(seed, *inst), str(host))
    argv = ["span", *span, "-i", str(host), "-o", str(out), "--trace", str(trace)]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    return sha(out.read_bytes(), trace.read_bytes(), stdout.encode())


def random_two_paths(g: Multigraph) -> PathCollection:
    """Every 2-path (x, mid, y), x < y, of a simple graph in lex order."""
    paths = []
    for x in range(g.n):
        for mid in sorted({u for u, _ in g.adj(x)}):
            for y in sorted({u for u, _ in g.adj(mid)}):
                if y > x:
                    paths.append(PathSeq.from_graph(g, (x, mid, y)))
    return PathCollection(g.n, tuple(paths))


def path_collection_digest() -> str:
    colls = [gen_big_clique(t).paths for t in range(3, 8)]
    colls += [random_two_paths(instance(seed, 14, 0.3)) for seed in SEEDS]
    rows = []
    for coll in colls:
        for r in (0, 1, 2, 3, 4, 6):
            res = greedy_path_collection_spanner(coll, r)
            rows.append([r, list(res.edges), [list(p.vertices) for p in res.paths]])
    return sha(json.dumps(rows).encode())


def blocking_digest() -> str:
    rows = []
    for seed in SEEDS:
        for double in (False, True):
            g = instance(seed, 10, 0.4, double=double)
            runs = [eft_greedy_exact(g, 2, 3, 1), eft_greedy_exact(g, 2, 4, 2)]
            runs += [eft_modified_greedy(g, 1, 1), eft_modified_greedy(g, 2, 1)]
            for res, rec in runs:
                for r in (-1, 2, 3, 4):
                    for f in (0, 1, 2, 4):
                        rows.append(verify_blocking_set(res.paths, rec, r, f))
    return sha(json.dumps(rows).encode())


def report_row(report) -> list:
    ce = report.counterexample
    if ce is not None:
        ce = [ce.x, ce.y, list(ce.faults), repr(ce.distance), repr(ce.bound)]
    return [report.passed, report.pairs_checked, report.fault_sets_checked, ce]


def oracle_digest() -> str:
    """Reports of the exhaustive oracles on candidates that drop about 30% of
    the host's edges, so that many of them fail."""
    rows = []
    for seed in SEEDS:
        hosts = [
            instance(seed, 12, 0.35),
            instance(seed, 8, 0.4, double=True),
            instance(seed, 10, 0.4, weighted=True),
        ]
        for g in hosts:
            rng = random.Random(seed)
            h = {e for e in range(g.m) if rng.random() >= 0.3}
            for d in (1, 2, 3):
                for r in (d, 2 * d):
                    rows.append(report_row(verify_dr(g, h, d, r)))
                    for f in (0, 1):
                        rows.append(report_row(verify_eft(g, h, d, r, f)))
            for alpha, beta in ((1, 0), (1.5, 0.5), (2, 1), (3, 2)):
                for f in (0, 1):
                    rows.append(report_row(verify_alpha_beta(g, h, alpha, beta, f)))
    return sha(json.dumps(rows).encode())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_span_golden(tmp_path, capsys, name, seed):
    assert cli_digest(tmp_path, capsys, name, seed) == GOLDEN_CLI[f"{name}:{seed}"]


def test_path_collection_golden():
    assert path_collection_digest() == GOLDEN_PATHS


def test_blocking_replay_golden():
    assert blocking_digest() == GOLDEN_BLOCKING


def test_oracle_golden():
    assert oracle_digest() == GOLDEN_ORACLE
