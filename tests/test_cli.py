from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import small_graphs
from spannerlab import Multigraph, cli, generators, graphs
from spannerlab.cli import (
    EXIT_BUDGET,
    EXIT_COUNTEREXAMPLE,
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    MAX_K,
    MAX_VERTICES,
    GraphParseError,
    emit_graph,
    format_graph,
    main,
    match_subgraph,
    parse_graph,
    parse_graph_text,
)


def test_parse_simple_path_graph():
    text = "# spanner-graph v1 n=3 weighted=0 multigraph=0\n0 1\n1 2\n"
    g = parse_graph_text(text)
    assert g.n == 3 and g.m == 2 and not g.weighted
    assert g.endpoints(0) == (0, 1)


def test_parse_skips_comments_without_consuming_ids():
    text = (
        "# spanner-graph v1 n=3 weighted=0 multigraph=0\n"
        "\n# a comment\n0 1\n\n# another\n1 2\n"
    )
    g = parse_graph_text(text)
    assert g.m == 2
    assert g.endpoints(1) == (1, 2)


def test_parse_rejects_self_loop_with_line_number():
    text = "# spanner-graph v1 n=2 weighted=0 multigraph=0\n0 1\n0 0\n"
    with pytest.raises(GraphParseError, match="line 3"):
        parse_graph_text(text)


def test_parse_rejects_weight_mismatch():
    with pytest.raises(GraphParseError):
        parse_graph_text("# spanner-graph v1 n=2 weighted=0 multigraph=0\n0 1 0.5\n")
    with pytest.raises(GraphParseError):
        parse_graph_text("# spanner-graph v1 n=2 weighted=1 multigraph=0\n0 1\n")
    with pytest.raises(GraphParseError, match="nonpositive"):
        parse_graph_text("# spanner-graph v1 n=2 weighted=1 multigraph=0\n0 1 -2\n")


def test_parse_rejects_bad_header_and_range():
    with pytest.raises(GraphParseError, match="header"):
        parse_graph_text("0 1\n")
    with pytest.raises(GraphParseError, match="out of range"):
        parse_graph_text("# spanner-graph v1 n=2 weighted=0 multigraph=0\n0 5\n")
    with pytest.raises(GraphParseError, match="multigraph=0"):
        parse_graph_text("# spanner-graph v1 n=2 weighted=0 multigraph=0\n0 1\n1 0\n")


def test_parse_duplicate_edge_names_its_line():
    text = "# spanner-graph v1 n=3 weighted=0 multigraph=0\n0 1\n1 2\n\n# c\n1 0\n"
    with pytest.raises(GraphParseError, match="line 6") as err:
        parse_graph_text(text)
    assert err.value.line == 6
    multi = parse_graph_text(text.replace("multigraph=0", "multigraph=1"))
    assert multi.m == 3


def test_parse_rejects_negative_vertex_count():
    with pytest.raises(GraphParseError, match="line 2") as err:
        parse_graph_text("\n# spanner-graph v1 n=-1 weighted=0 multigraph=0\n")
    assert err.value.line == 2


@given(small_graphs(max_n=7, max_m=10, multigraph=True, weighted=True) | small_graphs(max_n=7))
def test_format_then_parse_round_trips(g):
    back = parse_graph_text(format_graph(g))
    assert (back.n, back.weighted) == (g.n, g.weighted)
    assert [(e.u, e.v, e.weight) for e in back.edges()] == [
        (e.u, e.v, e.weight) for e in g.edges()
    ]


_HUGE = ["9" * 30, "-" + "9" * 30, str(2**63), "1e308", "-1e308"]
_TOKENS = [
    "0", "1", "2", "7", "11", "12", "-1", "0.5", "1e400", "-0", "nan", "inf", "x", "#", "1_0", "١",
] + _HUGE


@given(
    # n up to 12 puts the drawn vertex tokens both in and out of range; the
    # rest lie past the cap
    st.integers(-3, 12) | st.sampled_from([2**24 + 1, 2**63, 10**40]),
    st.sampled_from(["0", "1", "2", "9" * 30]),
    st.sampled_from(["0", "1", "x", "9" * 30]),
    st.lists(st.lists(st.sampled_from(_TOKENS), max_size=4), max_size=8),
)
def test_parse_either_parses_or_raises_parse_error(n, weighted, multigraph, rows):
    header = f"# spanner-graph v1 n={n} weighted={weighted} multigraph={multigraph}"
    lines = [header] + [" ".join(row) for row in rows]
    edge_tokens = [t for row in rows if row and row[0] != "#" for t in row]
    odd_number = any("_" in t or not t.isascii() for t in edge_tokens)
    try:
        g = parse_graph_text("\n".join(lines) + "\n")
    except GraphParseError as err:
        # the error names the first line at which a prefix of the text stops
        # parsing
        bad = err.line
        assert 1 <= bad <= len(lines)
        with pytest.raises(GraphParseError) as again:
            parse_graph_text("\n".join(lines[:bad]) + "\n")
        assert again.value.line == bad
        if bad > 1:
            parse_graph_text("\n".join(lines[: bad - 1]) + "\n")
        return
    assert not odd_number
    assert g.n == n


_ZEROS = ("\u0660", "\u0966", "\uff10")  # Arabic-Indic, Devanagari, fullwidth


@given(
    small_graphs(max_n=7, max_m=6, weighted=True) | small_graphs(max_n=12, max_m=6),
    st.data(),
)
def test_parse_rejects_odd_numeral_in_valid_text(g, data):
    # int() and float() read each variant as the same number, so only the
    # parser's own check can reject it
    lines = format_graph(g).splitlines()
    # the header's n=... token, then every token of every edge line
    fields = [(0, 3)] + [
        (i, j) for i in range(1, len(lines)) for j in range(len(lines[i].split()))
    ]
    i, j = data.draw(st.sampled_from(fields))
    tokens = lines[i].split()
    token = tokens[j]
    digits = [c for c, ch in enumerate(token) if ch.isdigit()]
    choices = [("digit", c) for c in digits] + [
        ("underscore", c) for c in digits if c + 1 in digits
    ]
    kind, c = data.draw(st.sampled_from(choices))
    if kind == "underscore":
        tokens[j] = token[: c + 1] + "_" + token[c + 1 :]
    else:
        zero = data.draw(st.sampled_from(_ZEROS))
        tokens[j] = token[:c] + chr(ord(zero) + int(token[c])) + token[c + 1 :]
    lines[i] = " ".join(tokens)
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("\n".join(lines) + "\n")
    assert err.value.line == i + 1


@pytest.mark.parametrize(
    "text, line",
    [
        ("# spanner-graph v1 n=1_2 weighted=0 multigraph=0\n", 1),
        ("# spanner-graph v1 n=\u0661\u0662 weighted=0 multigraph=0\n", 1),
        ("# spanner-graph v1 n=12 weighted=0 multigraph=0\n0 1\n0 1_1\n", 3),
        ("# spanner-graph v1 n=12 weighted=0 multigraph=0\n\u0660 1\n", 2),
        ("# spanner-graph v1 n=3 weighted=1 multigraph=0\n0 1 0.5\n1 2 1_0.5\n", 3),
        ("# spanner-graph v1 n=3 weighted=1 multigraph=0\n0 1 \u0662.5\n", 2),
    ],
)
def test_parse_rejects_underscores_and_non_ascii_digits(text, line):
    with pytest.raises(GraphParseError) as err:
        parse_graph_text(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text, where",
    [
        ("# spanner-graph v1 n=1_2 weighted=0 multigraph=0\n", "line 1:"),
        ("# spanner-graph v1 n=12 weighted=0 multigraph=0\n0 1_1\n", "line 2:"),
    ],
)
def test_cli_underscore_number_is_65(tmp_path, capsys, text, where):
    (tmp_path / "g").write_text(text)
    assert main(["stats", "-s", str(tmp_path / "g"), "-k", "2"]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {where} ")


_HEAD = "# spanner-graph v1 n={} weighted={} multigraph={}\n"


@pytest.mark.parametrize(
    "text, match, line",
    [
        (_HEAD.format(2, 0, 0) + "0 1\n1 2\n", "out of range", 3),
        (_HEAD.format(3, 0, 1) + "0 1\n2 2\n", "self-loop", 3),
        (_HEAD.format(3, 0, 0) + "0 1\n1 2\n1 0\n", "multigraph=0", 4),
        (_HEAD.format(3, 1, 0) + "0 1 0.5\n1 2 1e400\n", "nonpositive weight inf", 3),
        (_HEAD.format(3, 1, 1) + "0 1 0.0\n", "nonpositive weight 0.0", 2),
        (_HEAD.format(3, 1, 0) + "0 1 " + "9" * 5000 + "\n", "nonpositive weight inf", 2),
        (_HEAD.format(3, 0, 1) + "0 1\n2 " + "1" * 5000 + "\n", "4300", 3),
        (_HEAD.format("1" * 5000, 0, 0), "malformed header", 1),
    ],
)
def test_parse_canonical_text_failing_a_check_names_its_line(text, match, line):
    # the one-pass route declines and the line loop names the line
    assert cli._read_canonical(text) is None
    with pytest.raises(GraphParseError, match=match) as err:
        parse_graph_text(text)
    assert err.value.line == line


def _same_graph(g, h):
    assert (g.n, g.weighted, g.m) == (h.n, h.weighted, h.m)
    assert list(g.edges()) == list(h.edges())
    assert [g.adj(v) for v in range(g.n)] == [h.adj(v) for v in range(h.n)]
    assert [g.edge_ids_between(u, v) for u in range(g.n) for v in range(u + 1, g.n)] == [
        h.edge_ids_between(u, v) for u in range(h.n) for v in range(u + 1, h.n)
    ]


_BIG_NUMERAL = "1" + "0" * 4999  # past int()'s 4300-digit limit; float() reads inf
_MUTATIONS = (
    "range", "loop", "duplicate", "weight", "digits", "tab", "trailing-space",
    "no-final-newline", "plus", "non-ascii", "two-tokens",
)


def _mutate(g, kind, data) -> str:
    """format_graph(g) with one token or line changed, as ``kind`` says."""
    lines = format_graph(g).splitlines()
    edge_lines = list(range(1, len(lines)))

    def pick():
        return data.draw(st.sampled_from(edge_lines))

    def tokens(i):
        return lines[i].split()

    if kind == "range":
        i, j = pick(), data.draw(st.integers(0, 1))
        row = tokens(i)
        row[j] = str(data.draw(st.sampled_from([g.n, g.n + 1, 10**30])))
        lines[i] = " ".join(row)
    elif kind == "loop":
        i = pick()
        row = tokens(i)
        row[1] = row[0]
        lines[i] = " ".join(row)
    elif kind == "duplicate":
        i, j = pick(), pick()
        u, v = tokens(i)[:2]
        lines[j] = " ".join([*data.draw(st.sampled_from([[u, v], [v, u]])), *tokens(j)[2:]])
        lines[0] = lines[0].replace("multigraph=1", "multigraph=0")
    elif kind == "weight":
        i = pick()
        lines[i] = " ".join(tokens(i)[:2] + [data.draw(st.sampled_from(["1e400", "nan", "0", "0.0", "1e-400"]))])
    elif kind in ("digits", "plus", "non-ascii"):
        # the header's n=... token, or any token of an edge line
        i = data.draw(st.sampled_from([0, *edge_lines]))
        row = tokens(i)
        j = 3 if i == 0 else data.draw(st.integers(0, len(row) - 1))
        prefix, token = ("n=", row[j][2:]) if i == 0 else ("", row[j])
        if kind == "digits":
            token = _BIG_NUMERAL
        elif kind == "plus":
            token = "+" + token
        else:
            c = data.draw(st.sampled_from([c for c, ch in enumerate(token) if ch.isdigit()]))
            token = token[:c] + chr(ord(data.draw(st.sampled_from(_ZEROS))) + int(token[c])) + token[c + 1 :]
        row[j] = prefix + token
        lines[i] = " ".join(row)
    elif kind == "tab":
        i = data.draw(st.sampled_from([0, *edge_lines]))
        row = tokens(i)
        j = data.draw(st.integers(1, len(row) - 1))
        lines[i] = " ".join(row[:j]) + "\t" + " ".join(row[j:])
    elif kind == "trailing-space":
        i = data.draw(st.sampled_from([0, *edge_lines]))
        lines[i] += " "
    elif kind == "two-tokens":
        i = pick()
        lines[i] = " ".join(tokens(i)[:2])
    text = "\n".join(lines)
    return text if kind == "no-final-newline" else text + "\n"


@given(
    small_graphs(max_n=8, max_m=10, min_m=1)
    | small_graphs(max_n=8, max_m=10, min_m=1, multigraph=True)
    | small_graphs(max_n=8, max_m=10, min_m=1, weighted=True)
    | small_graphs(max_n=8, max_m=10, min_m=1, multigraph=True, weighted=True),
    st.sampled_from(_MUTATIONS),
    st.data(),
)
def test_one_pass_route_matches_the_line_loop(g, kind, data):
    # one changed token or line: both routes give the same graph, or the
    # same error at the same line
    text = _mutate(g, kind, data)
    fast = cli._read_canonical(text)
    try:
        slow = cli._read_lines(text)
    except GraphParseError as err:
        assert fast is None
        with pytest.raises(GraphParseError) as again:
            parse_graph_text(text)
        assert (str(again.value), again.value.line) == (str(err), err.line)
        return
    _same_graph(parse_graph_text(text), slow)
    if fast is not None:
        _same_graph(fast, slow)


def test_line_loop_checks_each_edge_once(monkeypatch):
    # the line loop checks range, self-loop and weight per line and builds
    # through Multigraph._from_checked, so __init__ never checks them again
    plain = "\n# spanner-graph v1 n=4 weighted=0 multigraph=1\n# ids skip this\n0 1\r\n\n+1\t2\n2 1\n2 3"
    weighted = "# spanner-graph v1 n=3 weighted=1 multigraph=0 \n0 1 +0.5\n\n1 2 1e-3\n"
    expected = [
        Multigraph(4, [(0, 1), (1, 2), (2, 1), (2, 3)]),
        Multigraph(3, [(0, 1, 0.5), (1, 2, 0.001)], weighted=True),
    ]

    def refuse(*_, **__):
        raise AssertionError("Multigraph.__init__ ran")

    monkeypatch.setattr(Multigraph, "__init__", refuse)
    for text, g in zip((plain, weighted), expected):
        assert cli._read_canonical(text) is None
        _same_graph(parse_graph_text(text), g)
    for text, error in (
        (plain + "\n2 2", "line 9: self-loop"),
        (plain + "\n0 4", "line 9: vertex id out of range"),
        (weighted.replace("1e-3", "-1"), "line 4: nonpositive weight"),
    ):
        with pytest.raises(GraphParseError, match=error):
            parse_graph_text(text)


_GEN_ARGS = {
    "big-clique": ["-t", "5"],
    "hypercube": ["-k", "5"],
    "weighted-lb": ["-k", "2", "--base", "petersen"],
    "eft-lb": ["-f", "3", "--base", "heawood"],
    "gnp": ["-n", "40", "-p", "0.3", "--seed", "4"],
}


def test_every_gen_family_is_read_in_one_pass(monkeypatch):
    # a change to format_graph or to the regexes that sends canonical files
    # back to the line loop fails here
    def refuse(text):
        raise AssertionError("canonical text reached the line loop")

    monkeypatch.setattr(cli, "_read_lines", refuse)
    assert set(_GEN_ARGS) == set(cli._FAMILIES)
    graphs = [
        cli._FAMILIES[family][0](cli._build_parser().parse_args(["gen", family, *args, "-o", "x"])).graph
        for family, args in _GEN_ARGS.items()
    ]
    graphs.append(generators.gen_random(40, 0.3, 4, weighted=True).graph)
    assert {g.weighted for g in graphs} == {False, True}
    for g in graphs:
        half = range(0, g.m, 2)
        sub = Multigraph(g.n, [(*g.endpoints(e), g.weight(e)) for e in half], weighted=g.weighted)
        _same_graph(parse_graph_text(format_graph(g)), g)
        _same_graph(parse_graph_text(format_graph(g, half)), sub)


@given(st.lists(st.floats(min_value=0, exclude_min=True, allow_infinity=False), min_size=1, max_size=12))
def test_weight_reprs_are_read_in_one_pass(weights):
    # reprs such as 5e-324, 1e-05, 2.5e+20 and 1.7976931348623157e+308
    g = Multigraph(len(weights) + 1, [(i, i + 1, w) for i, w in enumerate(weights)], weighted=True)
    text = format_graph(g)
    back = cli._read_canonical(text)
    assert back is not None, text
    _same_graph(back, g)


def test_round_trip_identity(tmp_path):
    g = Multigraph(
        4, [(0, 1, 0.25), (1, 2, 1.5), (1, 2, 0.1)], weighted=True
    )
    path = tmp_path / "g.txt"
    emit_graph(g, str(path))
    back = parse_graph(str(path))
    assert back.n == g.n and back.weighted
    assert [(e.u, e.v, e.weight) for e in back.edges()] == [
        (e.u, e.v, e.weight) for e in g.edges()
    ]
    assert format_graph(back) == format_graph(g)


def test_format_graph_subset():
    header = "# spanner-graph v1 n=4 weighted=1 multigraph={}\n"
    g = Multigraph(4, [(0, 1, 0.1), (2, 1, 1 / 3), (1, 0, 0.1), (2, 3, 2.5e-300)], weighted=True)
    whole = "0 1 0.1\n2 1 0.3333333333333333\n1 0 0.1\n2 3 2.5e-300\n"
    assert format_graph(g) == header.format(1) + whole
    assert format_graph(g, range(g.m)) == format_graph(g)
    assert format_graph(g, [2, 0]) == header.format(1) + "0 1 0.1\n1 0 0.1\n"
    assert format_graph(g, {3, 0, 1}) == header.format(0) + "0 1 0.1\n2 1 0.3333333333333333\n2 3 2.5e-300\n"
    assert format_graph(g, ()) == header.format(0)


def test_emit_graph_writes_the_text_of_format_graph_in_chunks(tmp_path, monkeypatch):
    # chunks of a few lines split the text at every place that chunks of
    # EMIT_CHUNK lines split a large graph's text
    header = "# spanner-graph v1 n=4 weighted=1 multigraph={}\n"
    g = Multigraph(4, [(0, 1, 0.1), (2, 1, 1 / 3), (1, 0, 0.1), (2, 3, 2.5e-300)], weighted=True)
    lines = ["0 1 0.1\n", "2 1 0.3333333333333333\n", "1 0 0.1\n", "2 3 2.5e-300\n"]
    cases = [(None, 1, range(4)), ([2, 0], 1, [0, 2]), ({3, 0, 1}, 0, [0, 1, 3]), ((), 0, [])]
    path = tmp_path / "h"
    for chunk in (1, 2, 3, 4, 5):
        monkeypatch.setattr(cli, "EMIT_CHUNK", chunk)
        for ids, multi, kept in cases:
            text = header.format(multi) + "".join(lines[i] for i in kept)
            emit_graph(g, str(path), ids)
            assert path.read_text(encoding="utf-8") == format_graph(g, ids) == text, (chunk, ids)
    for ids in ([], [1, 3], [3, 2, 0], [0, 1, 2, 3]):
        back = parse_graph_text(format_graph(g, ids))
        assert (back.n, back.weighted) == (g.n, True)
        assert [(e.u, e.v, e.weight) for e in back.edges()] == [
            (*g.endpoints(eid), g.weight(eid)) for eid in sorted(ids)
        ]
    plain = Multigraph(3, [(0, 1), (1, 2), (1, 0)])
    assert format_graph(plain) == "# spanner-graph v1 n=3 weighted=0 multigraph=1\n0 1\n1 2\n1 0\n"
    assert format_graph(plain, [1, 2]) == "# spanner-graph v1 n=3 weighted=0 multigraph=0\n1 2\n1 0\n"


def _key(u, v, w):
    return min(u, v), max(u, v), w


def _smallest_ids(g, h):
    """Per (pair, weight) key, the smallest host ids, as many as h has edges
    with that key."""
    want = Counter(_key(e.u, e.v, e.weight) for e in h.edges())
    chosen = set()
    for key, count in want.items():
        ids = sorted(e.id for e in g.edges() if _key(e.u, e.v, e.weight) == key)
        chosen.update(ids[:count])
    return frozenset(chosen)


def test_match_subgraph_multigraph_counts():
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    h = Multigraph(3, [(0, 1), (1, 2)])
    assert match_subgraph(g, h) == frozenset({0, 2})
    too_many = Multigraph(3, [(0, 1), (0, 1), (0, 1)])
    with pytest.raises(ValueError):
        match_subgraph(g, too_many)
    for seed in range(60):
        rng = random.Random(seed)
        weighted = seed % 2 == 1
        weights = (0.5, 0.25, 1 / 3) if weighted else (1.0,)
        n = rng.randint(2, 7)
        # pair (0, 1) carries both of two weights on a weighted host
        rows = [(0, 1, weights[0]), (1, 0, weights[-1])]
        for _ in range(rng.randint(0, 24)):
            u, v = rng.sample(range(n), 2)
            rows.append((u, v, rng.choice(weights)))
        rows += [rng.choice(rows) for _ in range(rng.randint(0, 8))]
        rng.shuffle(rows)
        g = Multigraph(n, rows, weighted=weighted)
        picked = [e for e in g.edges() if rng.random() < 0.6]
        rng.shuffle(picked)
        cand = [(e.v, e.u, e.weight) if rng.random() < 0.5 else (e.u, e.v, e.weight) for e in picked]
        h = Multigraph(n, cand, weighted=weighted)
        assert match_subgraph(g, h) == _smallest_ids(g, h), seed
        # one copy more of some key than the host has
        e = rng.choice(list(g.edges()))
        key = _key(e.u, e.v, e.weight)
        have = sum(_key(*row) == key for row in cand)
        host = sum(_key(f.u, f.v, f.weight) == key for f in g.edges())
        over = Multigraph(n, cand + [(e.u, e.v, e.weight)] * (host - have + 1), weighted=weighted)
        with pytest.raises(ValueError, match="not in host graph"):
            match_subgraph(g, over)


def test_cli_hypercube_pipeline(tmp_path, capsys):
    q3 = tmp_path / "q3"
    span = tmp_path / "q3.span"
    trace = tmp_path / "q3.trace"
    assert main(["gen", "hypercube", "-k", "3", "-o", str(q3)]) == EXIT_OK
    assert (
        main(["span", "parallel", "-k", "3", "-i", str(q3), "-o", str(span), "--trace", str(trace)])
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "kept 12 of 12" in out
    spanner = parse_graph(str(span))
    assert spanner.m == 12
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(records) == 12
    assert all(rec["event"] == "add" for rec in records)


def test_cli_verify_roundtrip(tmp_path):
    g = tmp_path / "g"
    h = tmp_path / "h"
    assert main(["gen", "gnp", "-n", "24", "-p", "0.2", "--seed", "3", "-o", str(g)]) == EXIT_OK
    assert main(["span", "greedy-dr", "-d", "2", "-r", "4", "-k", "2", "-i", str(g), "-o", str(h)]) == EXIT_OK
    assert main(["verify", "dr", "-d", "2", "-r", "4", "-i", str(g), "-s", str(h)]) == EXIT_OK


def test_cli_verify_counterexample_printed(tmp_path, capsys):
    g = tmp_path / "g"
    h = tmp_path / "h"
    assert main(["gen", "eft-lb", "--base", "cycle:6", "-f", "2", "-o", str(g)]) == EXIT_OK
    full = parse_graph(str(g))
    thinned = Multigraph(full.n, [(e.u, e.v) for e in full.edges()][1:])
    emit_graph(thinned, str(h))
    code = main(["verify", "eft", "-d", "2", "-r", "4", "-f", "2", "-i", str(g), "-s", str(h)])
    assert code == EXIT_COUNTEREXAMPLE
    out = capsys.readouterr().out
    assert "VIOLATED" in out and "faults" in out


def test_cli_budget_exit(tmp_path):
    g = tmp_path / "g"
    assert main(["gen", "gnp", "-n", "20", "-p", "0.4", "--seed", "1", "-o", str(g)]) == EXIT_OK
    code = main(
        ["verify", "eft", "-d", "2", "-r", "4", "-f", "2", "-i", str(g), "-s", str(g), "--budget", "10"]
    )
    assert code == EXIT_BUDGET


def test_cli_weighted_budget_exit(tmp_path, monkeypatch):
    g = tmp_path / "g"
    assert main(["gen", "gnp", "-n", "12", "-p", "0.4", "--weighted", "-o", str(g)]) == EXIT_OK
    verify = ["verify", "weighted", "-k", "2", "-i", str(g), "-s", str(g)]
    assert main(verify) == EXIT_OK
    assert main([*verify, "--budget", "1"]) == EXIT_BUDGET
    # --budget is the one override; the environment is not read
    monkeypatch.setenv("SPANNER_BUDGET", "-5")
    assert main(verify) == EXIT_OK


def test_cli_overflowing_bounds_fail_unreached_pairs(tmp_path, capsys):
    # the 1e308 edges make every bound inf; H = {0-1} leaves 2 unreached and
    # H = {0-2} leaves 1 unreached, and neither passes
    header = "# spanner-graph v1 n=3 weighted=1 multigraph=0\n"
    path, triangle = tmp_path / "path", tmp_path / "triangle"
    path.write_text(header + "0 1 1e308\n1 2 1e308\n")
    triangle.write_text(header + "0 1 1e308\n1 2 1e308\n0 2 1\n")
    first, light = tmp_path / "first", tmp_path / "light"
    first.write_text(header + "0 1 1e308\n")
    light.write_text(header + "0 2 1\n")
    capsys.readouterr()
    assert main(["verify", "weighted", "-i", str(path), "-s", str(first)]) == EXIT_COUNTEREXAMPLE
    assert capsys.readouterr().out == "VIOLATED: ratio inf on path (0, 1, 2)\n"
    code = main(["verify", "alpha-beta", "-k", "2", "-i", str(triangle), "-s", str(light)])
    assert code == EXIT_COUNTEREXAMPLE
    assert "pair (0,1)" in capsys.readouterr().out
    out = str(tmp_path / "h")
    for host in (path, triangle):
        assert main(["span", "weighted", "-i", str(host), "-o", out]) == EXIT_OK
        assert main(["verify", "weighted", "-i", str(host), "-s", out]) == EXIT_OK


_VERDICT_FILES = {
    "c5": "n=5 weighted=0 multigraph=0\n0 1\n1 2\n2 3\n3 4\n0 4\n",
    "p5": "n=5 weighted=0 multigraph=0\n0 1\n1 2\n2 3\n3 4\n",
    "w5": "n=5 weighted=1 multigraph=0\n0 1 1.5\n1 2 1\n2 3 2\n3 4 1\n0 4 3\n",
    "wp5": "n=5 weighted=1 multigraph=0\n0 1 1.5\n1 2 1\n2 3 2\n3 4 1\n",
    "kite": "n=5 weighted=1 multigraph=0\n0 1 3\n0 2 2\n0 3 1\n0 4 3\n1 4 1\n2 4 3\n",
    "kite-": "n=5 weighted=1 multigraph=0\n0 1 3\n0 2 2\n0 3 1\n0 4 3\n1 4 1\n",
    "tri": "n=3 weighted=1 multigraph=0\n0 1 1\n1 2 1\n0 2 10\n",
    "wedge": "n=3 weighted=1 multigraph=0\n1 2 1\n0 2 10\n",
}


@pytest.mark.parametrize(
    "args, host, spanner, code, line",
    [
        ("dr -d 2 -r 2", "c5", "c5", EXIT_OK, "contract holds: 5 pairs, 1 fault sets"),
        ("dr -d 1 -r 2", "c5", "p5", EXIT_COUNTEREXAMPLE, "VIOLATED: pair (0,4) faults [] distance 4 exceeds bound 2"),
        ("eft -d 1 -r 4 -f 1", "c5", "c5", EXIT_OK, "contract holds: 25 pairs, 6 fault sets"),
        (
            "eft -d 1 -r 4 -f 1", "c5", "p5", EXIT_COUNTEREXAMPLE,
            "VIOLATED: pair (0,4) faults [0] distance inf exceeds bound 4",
        ),
        # the default alpha = k and beta = k - 1 are ints, and so is the bound
        ("alpha-beta -k 3", "c5", "p5", EXIT_OK, "contract holds: 10 pairs, 1 fault sets"),
        ("alpha-beta", "c5", "p5", EXIT_COUNTEREXAMPLE, "VIOLATED: pair (0,4) faults [] distance 4 exceeds bound 3"),
        ("alpha-beta --alpha 2 --beta 1.5", "c5", "c5", EXIT_OK, "contract holds: 10 pairs, 1 fault sets"),
        (
            "alpha-beta --alpha 2 --beta 1.5", "c5", "p5", EXIT_COUNTEREXAMPLE,
            "VIOLATED: pair (0,4) faults [] distance 4 exceeds bound 3.5",
        ),
        (
            "weighted --max-hops 3", "w5", "wp5", EXIT_OK,
            "weighted contract holds: worst ratio 0.454545 (5 2-paths, 200 sampled)",
        ),
        # with seed 0 the one 4-hop draw finds no simple path in 20 attempts
        (
            "weighted --max-hops 4 --samples 1", "kite", "kite-", EXIT_OK,
            "weighted contract holds: worst ratio 0.500000 (11 2-paths, 1 sampled)",
        ),
        ("weighted", "tri", "wedge", EXIT_COUNTEREXAMPLE, "VIOLATED: ratio 2.500000 on path (0, 1, 2)"),
    ],
)
def test_every_contract_prints_its_verdict_line(tmp_path, capsys, args, host, spanner, code, line):
    for name, text in _VERDICT_FILES.items():
        (tmp_path / name).write_text(f"# spanner-graph v1 {text}")
    argv = ["verify", *args.split(), "-i", str(tmp_path / host), "-s", str(tmp_path / spanner)]
    assert main(argv) == code
    assert capsys.readouterr() == (line + "\n", "")


def test_no_command_touches_an_isolated_vertex(tmp_path, monkeypatch):
    # two edges under a header of 2**16 vertices: a command that walks every
    # vertex reads the missing adjacency of each isolated one
    header = "# spanner-graph v1 n=65536 weighted={} multigraph=0\n"
    plain, weighted = tmp_path / "g", tmp_path / "w"
    plain.write_text(header.format(0) + "0 1\n1 2\n")
    weighted.write_text(header.format(1) + "0 1 1.5\n1 2 2.0\n")
    hits = []
    monkeypatch.setattr(graphs._Adjacency, "__missing__", lambda self, v: hits.append(v) or ())
    out = str(tmp_path / "h")
    runs = [
        ["span", algo, "-i", str(plain), "-o", out]
        for algo in ("greedy-dr", "parallel", "sqrt-k", "union", "eft-exact", "eft-fast", "eft-union")
    ]
    runs += [
        ["span", "eft-exact", "-d", "1", "-i", str(plain), "-o", out],
        ["span", "eft-union", "--fast", "-i", str(plain), "-o", out],
        ["span", "greedy-dr", "-i", str(plain), "-o", out],
        ["verify", "dr", "-i", str(plain), "-s", out],
        ["verify", "alpha-beta", "-i", str(plain), "-s", out],
        ["span", "weighted", "-i", str(weighted), "-o", out],
        ["verify", "weighted", "-i", str(weighted), "-s", out],
    ]
    for argv in runs:
        hits.clear()
        assert main(argv) == EXIT_OK, argv
        assert len(hits) <= 10, (argv, len(hits))


def test_verify_eft_counts_only_pairs_with_edges(tmp_path, capsys):
    # two edges under a header of 2**20 vertices: the exhaustive oracle has 3
    # vertex pairs to check per fault set, not comb(2**20, 2)
    g = tmp_path / "g"
    g.write_text("# spanner-graph v1 n=1048576 weighted=0 multigraph=0\n0 1\n1 2\n")
    start = time.perf_counter()
    code = main(["verify", "eft", "-d", "1", "-r", "3", "-f", "1", "-i", str(g), "-s", str(g)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK, capsys.readouterr()


def test_cli_usage_error_is_64(capsys):
    with pytest.raises(SystemExit) as err:
        main(["span", "bogus", "-i", "x", "-o", "y"])
    assert err.value.code == 64


def _run_cli(cwd, *args, timeout=None):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "spannerlab", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "args",
    [
        ("stats", "-s", "g", "-k", "0"),
        ("span", "greedy-dr", "-k", "0", "-i", "g", "-o", "h"),
        ("span", "weighted", "-k", "-2", "-i", "g", "-o", "h"),
        ("verify", "dr", "-k", "0", "-i", "g", "-s", "g"),
        ("gen", "hypercube", "-k", "0", "-o", "h"),
        ("gen", "hypercube", "-k", "17", "-o", "h"),
        ("span", "eft-exact", "-d", "3", "-i", "g", "-o", "h"),
        ("span", "eft-exact", "-d", "0", "-i", "g", "-o", "h"),
        ("span", "greedy-dr", "-d", "0", "-i", "g", "-o", "h"),
        ("span", "greedy-dr", "-r", "-1", "-i", "g", "-o", "h"),
        ("span", "eft-fast", "-f", "-1", "-i", "g", "-o", "h"),
        ("verify", "dr", "-d", "0", "-i", "g", "-s", "g"),
        ("verify", "dr", "-r", "-1", "-i", "g", "-s", "g"),
        ("verify", "eft", "-f", "-1", "-i", "g", "-s", "g"),
        ("verify", "eft", "--budget", "-1", "-i", "g", "-s", "g"),
        ("verify", "weighted", "--samples", "-1", "-i", "g", "-s", "g"),
        ("verify", "alpha-beta", "--alpha", "-1", "-i", "g", "-s", "g"),
        ("verify", "alpha-beta", "--beta", "nan", "-i", "g", "-s", "g"),
        ("gen", "eft-lb", "-f", "0", "-o", "h"),
        ("gen", "gnp", "-n", "-1", "-o", "h"),
        ("gen", "gnp", "-p", "2", "-o", "h"),
        ("gen", "gnp", "-p", "-0.5", "-o", "h"),
        ("gen", "big-clique", "-t", "0", "-o", "h"),
        ("gen", "weighted-lb", "--eps", "-1", "-o", "h"),
        ("gen", "weighted-lb", "--eps", "1", "-o", "h"),
        ("span", "greedy-dr", "-d", "2", "-r", "1", "-i", "g", "-o", "h"),
        ("span", "eft-exact", "-d", "2", "-r", "1", "-i", "g", "-o", "h"),
        ("span", "greedy-dr", "-d", "5", "-k", "2", "-i", "g", "-o", "h"),
        ("verify", "dr", "-d", "3", "-r", "2", "-i", "g", "-s", "g"),
        ("verify", "weighted", "--max-hops", "-1", "-i", "g", "-s", "g"),
        ("verify", "weighted", "--max-hops", "1", "-i", "g", "-s", "g"),
        ("span", "weighted", "-k", "1", "-i", "g", "-o", "h"),
        ("gen", "weighted-lb", "--base", "cycle:x", "-o", "h"),
        ("gen", "weighted-lb", "--base", "path:-1", "-o", "h"),
        ("gen", "weighted-lb", "--base", "foo", "-o", "h"),
        ("gen", "weighted-lb", "-k", "3", "--base", "cycle:5", "-o", "h"),
        ("gen", "eft-lb", "--base", "foo", "-o", "h"),
        ("gen", "gnp", "-n", str(MAX_VERTICES + 1), "-o", "h"),
        # -k past MAX_K: a cluster test past it takes seconds, and 10**400
        # overflows a float
        ("span", "parallel", "-k", "4096", "-i", "g", "-o", "h"),
        ("span", "weighted", "-k", "4096", "-i", "g", "-o", "h"),
        ("verify", "weighted", "-k", "1" + "0" * 400, "-i", "g", "-s", "g"),
        ("verify", "alpha-beta", "-k", "1" + "0" * 400, "-i", "g", "-s", "g"),
        ("stats", "-s", "g", "-k", "1" + "0" * 400),
        ("span", "sqrt-k", "-k", str(MAX_K + 1), "-i", "g", "-o", "h"),
        ("verify", "dr", "-k", str(MAX_K + 1), "-i", "g", "-s", "g"),
        ("stats", "-s", "g", "-k", str(MAX_K + 1)),
    ],
)
def test_cli_argument_errors_are_64(tmp_path, args):
    assert main(["gen", "hypercube", "-k", "3", "-o", str(tmp_path / "g")]) == EXIT_OK
    proc = _run_cli(tmp_path, *args, timeout=30)
    assert proc.returncode == EXIT_USAGE
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "h").exists()


class _BuilderCalled(Exception):
    pass


@pytest.mark.parametrize(
    "args, over",
    [
        (("big-clique", "-t", "4097"), True),
        (("big-clique", "-t", "4096"), True),
        (("weighted-lb", "--base", "cycle:8388609"), True),
        (("weighted-lb", "--base", "path:8388609"), True),
        (("weighted-lb", "--base", "cycle:8388608"), False),
        (("eft-lb", "--base", "complete:8388609"), True),
        (("eft-lb", "--base", "star:8388609"), True),
        (("eft-lb", "--base", "star:8388608"), False),
    ],
)
def test_gen_vertex_caps_act_before_any_generator(tmp_path, monkeypatch, capsys, args, over):
    _check_gen_cap(tmp_path, monkeypatch, capsys, args, over)


_CAP = cli.MAX_GEN_EDGES


@pytest.mark.parametrize(
    "args, over",
    [
        # weighted-lb writes base edges + base n, eft-lb base edges * f + base n
        (("weighted-lb", "--base", f"cycle:{_CAP // 2}"), False),
        # complete:N writes N(N + 1)/2 edges: 16,776,528 and 16,782,321
        (("weighted-lb", "--base", "complete:5792"), False),
        (("weighted-lb", "--base", "complete:5793"), True),
        (("weighted-lb", "--base", "complete:8388608"), True),
        (("eft-lb", "--base", "cycle:8", "-f", str(_CAP // 8 - 1)), False),
        (("eft-lb", "--base", "star:2", "-f", str(_CAP - 1)), True),
        (("eft-lb", "--base", "path:2", "-f", str(_CAP - 2)), False),
        (("eft-lb", "--base", "petersen", "-f", str((_CAP - 10) // 15)), False),
        (("eft-lb", "--base", "petersen", "-f", str((_CAP - 10) // 15 + 1)), True),
        (("eft-lb", "-f", "1000000000"), True),
        # big-clique writes 1.5·t(t - 1) edges: 16,768,488 and 16,778,520
        (("big-clique", "-t", "3344"), False),
        (("big-clique", "-t", "3345"), True),
        # gnp expects p·n(n - 1)/2 edges: 16,776,528 and 16,782,321 at p = 1
        (("gnp", "-n", "5793", "-p", "1"), False),
        (("gnp", "-n", "5794", "-p", "1"), True),
        # gnp draws once per vertex pair whatever p is: 5793 * 5792 / 2 pairs
        (("gnp", "-n", "5793", "-p", "0"), False),
        (("gnp", "-n", "5794", "-p", "0"), True),
        (("gnp", "-n", str(2**24), "-p", "0"), True),
    ],
)
def test_gen_edge_cap_acts_before_any_generator(tmp_path, monkeypatch, capsys, args, over):
    _check_gen_cap(tmp_path, monkeypatch, capsys, args, over)


def _check_gen_cap(tmp_path, monkeypatch, capsys, args, over):
    # every generator raises when called, so a missing check fails at once
    # instead of building gigabytes; a value at the cap reaches the builder
    def called(*_, **__):
        raise _BuilderCalled

    for name in generators.__all__:
        if isinstance(getattr(generators, name), types.FunctionType):
            monkeypatch.setattr(generators, name, called)
    out = tmp_path / "h"
    argv = ["gen", *args, "-o", str(out)]
    if not over:
        with pytest.raises(_BuilderCalled):
            main(argv)
        return
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    stderr = capsys.readouterr().err
    assert "error:" in stderr and "Traceback" not in stderr
    assert not out.exists()


def test_every_parameter_at_its_cap_finishes(tmp_path):
    # each run has bounded work at the cap; a budget exit is a finish too
    for name, weighted in (("g", []), ("w", ["--weighted"])):
        assert main(["gen", "gnp", "-n", "30", "-p", "0.2", *weighted, "-o", str(tmp_path / name)]) == EXIT_OK
    runs = [
        ("span", algo, "-k", str(MAX_K), "-i", "w" if algo == "weighted" else "g", "-o", "h")
        for algo in cli._SPANS
    ]
    runs += [
        ("verify", "eft", "-f", str(10**9), "-i", "g", "-s", "g"),
        ("verify", "weighted", "--max-hops", str(10**9), "--samples", "0", "-i", "w", "-s", "w"),
        ("verify", "alpha-beta", "-k", str(MAX_K), "-i", "g", "-s", "g"),
        ("stats", "-s", "g", "-k", str(MAX_K)),
    ]
    for args in runs:
        proc = _run_cli(tmp_path, *args, timeout=20)
        assert proc.returncode in (EXIT_OK, EXIT_BUDGET), (args, proc.stderr)
        assert "Traceback" not in proc.stderr


def _readme_exit_codes() -> set[int]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Exit codes:") :].split("\n\n")[0]
    return {int(code) for code in re.findall(r"`(\d+)`", paragraph)}


def _probe_values(cap: int, run_cap: bool = True) -> list[str]:
    """0, 1, the cap (unless ``run_cap`` is false), the cap + 1, nan and inf."""
    return ["0", "1", *([str(cap)] if run_cap else []), str(cap + 1), "nan", "inf"]


def _probe_runs(rows, probes: dict, valid: dict, rng: random.Random):
    """For each row, each flag and each of its probe values: that value, and
    every other flag at a value drawn from ``valid``; None leaves a flag out."""
    for row in rows:
        for flag, values in probes.items():
            for value in values:
                argv = list(row)
                for other in probes:
                    chosen = value if other == flag else rng.choice(valid[other])
                    argv += [] if chosen is None else [other, chosen]
                yield argv


def test_argv_probe_exits_only_with_documented_codes(tmp_path, monkeypatch, capsys):
    # every span algorithm, verify contract and gen family, each flag at each
    # of its probe values (capped flags at 0, 1, the cap, cap + 1, nan and
    # inf), the other flags drawn from a seeded generator; gen never runs at
    # a cap, which builds gigabytes, while cap + 1 is refused before any
    # generator runs
    monkeypatch.chdir(tmp_path)
    codes = _readme_exit_codes()
    assert codes == {EXIT_OK, EXIT_COUNTEREXAMPLE, EXIT_BUDGET, EXIT_USAGE, EXIT_DATA, EXIT_IO}
    for argv in (
        ["gen", "gnp", "-n", "12", "-p", "0.3", "-o", "g"],
        ["gen", "gnp", "-n", "12", "-p", "0.3", "--weighted", "-o", "w"],
        ["gen", "eft-lb", "--base", "cycle:5", "-f", "2", "-o", "m"],
        ["gen", "gnp", "-n", "0", "-o", "e"],
        ["span", "greedy-dr", "-i", "g", "-o", "s"],
    ):
        assert main(argv) == EXIT_OK
    (tmp_path / "bad").write_text("# spanner-graph v1 n=3 weighted=0 multigraph=0\n0 3\n", encoding="utf-8")
    hosts = ["g", "w", "m", "e", "s"]
    files, small = [*hosts, "bad", "missing"], ["0", "1", "2", "3", "nan"]
    rng = random.Random(31)
    span = {"-k": _probe_values(MAX_K), "-d": small, "-r": small, "-f": ["0", "1", "2"], "-i": files,
            "--trace": [None, "t"]}
    verify = {"-k": _probe_values(MAX_K), "-d": small, "-r": small, "-f": ["0", "1", "2"],
              "--budget": ["0", "1", str(cli.DEFAULT_CHECK_BUDGET)], "--alpha": [*small, "inf"], "--beta": small,
              "--max-hops": small, "--samples": small, "-i": files, "-s": files}
    eft_f = (cli.MAX_GEN_EDGES - 5) // 5  # the cap of eft-lb -f on cycle:5: 5 vertices, 5 edges
    gen = {"-t": _probe_values(3344, run_cap=False), "-k": _probe_values(16, run_cap=False),
           "-f": _probe_values(eft_f, run_cap=False), "-n": _probe_values(5793, run_cap=False),
           "-p": ["0", "0.5", "1", "2", "nan"], "--eps": ["0", "0.5", "1", "nan"],
           "--base": ["cycle:5", "petersen", "foo", "cycle:2"]}
    valid = {"-k": ["2", "3"], "-d": ["1", "2"], "-r": ["2", "4"], "-f": ["0", "1", "2"], "-i": hosts, "-s": hosts,
             "--trace": [None, "t"], "--budget": [str(cli.DEFAULT_CHECK_BUDGET)], "--alpha": ["1", "2"],
             "--beta": ["0", "1"], "--max-hops": ["2", "3"], "--samples": ["0", "5"], "-t": ["3", "4"],
             "-n": ["8", "12"], "-p": ["0.3"], "--eps": ["0.5"], "--base": ["cycle:5", "petersen"]}
    runs = [
        *_probe_runs([("span", algo, "-o", "h") for algo in cli._SPANS], span, valid, rng),
        *_probe_runs([("verify", contract) for contract in cli._CONTRACTS], verify, valid, rng),
        *_probe_runs([("stats",)], {"-k": _probe_values(MAX_K), "-s": files}, valid, rng),
        *_probe_runs([("gen", family, "-o", "out") for family in cli._FAMILIES], gen, valid, rng),
    ]
    seen = Counter()
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code in codes, (argv, code, err)
        assert "Traceback" not in out + err, argv
        seen[code] += 1
    assert set(seen) == codes, seen


def test_readme_names_the_cli_choices(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    for command in ("gen", "span", "verify"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        documented = re.findall(rf"^- `{command} (\{{[^}}]*\}})`", readme, re.M)
        assert re.findall(r"\{[^}]*\}", usage) == documented, command


@pytest.mark.parametrize(
    "args",
    [
        ("span", "greedy-dr", "-i", "missing", "-o", "h"),
        ("stats", "-s", "missing", "-k", "2"),
        ("verify", "dr", "-i", "g", "-s", "missing"),
    ],
)
def test_cli_missing_file_is_74(tmp_path, args):
    assert main(["gen", "hypercube", "-k", "3", "-o", str(tmp_path / "g")]) == EXIT_OK
    proc = _run_cli(tmp_path, *args)
    assert proc.returncode == EXIT_IO
    assert proc.stderr == "error: missing: No such file or directory\n"


def test_cli_permission_denied_is_74(tmp_path, monkeypatch, capsys):
    # the suite may run as root, which reads any file, so the denial is faked
    src = str(tmp_path / "g")
    assert main(["gen", "hypercube", "-k", "3", "-o", src]) == EXIT_OK
    capsys.readouterr()
    real_open = open

    def deny(path, *args, **kwargs):
        if path == src:
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", deny)
    assert main(["span", "greedy-dr", "-i", src, "-o", str(tmp_path / "h")]) == EXIT_IO
    assert capsys.readouterr().err == f"error: {src}: Permission denied\n"
    assert not (tmp_path / "h").exists()


def test_cli_directory_input_is_74(tmp_path):
    (tmp_path / "d").mkdir()
    proc = _run_cli(tmp_path, "span", "greedy-dr", "-i", "d", "-o", "h")
    assert proc.returncode == EXIT_IO
    assert proc.stderr == "error: d: Is a directory\n"


def test_cli_header_over_vertex_cap_is_65(tmp_path):
    # Rejected at the header, before the host graph allocates n adjacency lists.
    (tmp_path / "g").write_text("\n# spanner-graph v1 n=1000000000000 weighted=0 multigraph=0\n0 1\n")
    proc = _run_cli(tmp_path, "stats", "-s", "g", "-k", "2", timeout=30)
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.startswith("error: line 2: vertex count")


def test_cli_data_error_is_65(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_text("# spanner-graph v1 n=2 weighted=0 multigraph=0\n0 0\n")
    code = main(["span", "greedy-dr", "-d", "1", "-r", "3", "-i", str(bad), "-o", str(tmp_path / "o")])
    assert code == EXIT_DATA


def test_cli_stats(tmp_path, capsys):
    g = tmp_path / "g"
    main(["gen", "hypercube", "-k", "3", "-o", str(g)])
    assert main(["stats", "-s", str(g), "-k", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "girth=4" in out and "m=12" in out


def test_cli_outputs_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        g = tmp_path / f"g{tag}"
        h = tmp_path / f"h{tag}"
        t = tmp_path / f"t{tag}"
        main(["gen", "gnp", "-n", "20", "-p", "0.3", "--seed", "9", "-o", str(g)])
        main(["span", "union", "-k", "2", "-i", str(g), "-o", str(h), "--trace", str(t)])
        outs.append((g.read_bytes(), h.read_bytes(), t.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_weighted_pipeline(tmp_path, capsys):
    g = tmp_path / "g"
    h = tmp_path / "h"
    trace = tmp_path / "trace"
    assert main(["gen", "gnp", "-n", "20", "-p", "0.3", "--seed", "4", "--weighted", "-o", str(g)]) == EXIT_OK
    assert main(["span", "weighted", "-k", "2", "-i", str(g), "-o", str(h), "--trace", str(trace)]) == EXIT_OK
    assert main(["verify", "weighted", "-k", "2", "-i", str(g), "-s", str(h)]) == EXIT_OK
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records[0]["event"] == "phase"
    assert any(rec["event"] == "saturated" for rec in records)


def test_cli_eft_pipeline(tmp_path):
    g = tmp_path / "g"
    h = tmp_path / "h"
    trace = tmp_path / "t"
    assert main(["gen", "eft-lb", "--base", "cycle:6", "-f", "1", "-o", str(g)]) == EXIT_OK
    assert main(["span", "eft-exact", "-k", "2", "-f", "1", "-i", str(g), "-o", str(h), "--trace", str(trace)]) == EXIT_OK
    assert main(["verify", "eft", "-d", "2", "-r", "4", "-f", "1", "-i", str(g), "-s", str(h)]) == EXIT_OK
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert all("fault_set" in rec for rec in records)
