from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import small_graphs
from spannerlab import Multigraph
from spannerlab.cli import (
    EXIT_BUDGET,
    EXIT_COUNTEREXAMPLE,
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
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
    # no n in 13..2**24: each such n allocates adjacency before any edge is read
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


def test_match_subgraph_multigraph_counts():
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    h = Multigraph(3, [(0, 1), (1, 2)])
    assert match_subgraph(g, h) == frozenset({0, 2})
    too_many = Multigraph(3, [(0, 1), (0, 1), (0, 1)])
    with pytest.raises(ValueError):
        match_subgraph(g, too_many)


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


def test_cli_budget_exit(tmp_path, monkeypatch):
    g = tmp_path / "g"
    assert main(["gen", "gnp", "-n", "20", "-p", "0.4", "--seed", "1", "-o", str(g)]) == EXIT_OK
    code = main(
        ["verify", "eft", "-d", "2", "-r", "4", "-f", "2", "-i", str(g), "-s", str(g), "--budget", "10"]
    )
    assert code == EXIT_BUDGET
    monkeypatch.setenv("SPANNER_BUDGET", "10")
    assert (
        main(["verify", "eft", "-d", "2", "-r", "4", "-f", "2", "-i", str(g), "-s", str(g)])
        == EXIT_BUDGET
    )


def test_cli_weighted_budget_exit(tmp_path, monkeypatch):
    g = tmp_path / "g"
    assert main(["gen", "gnp", "-n", "12", "-p", "0.4", "--weighted", "-o", str(g)]) == EXIT_OK
    verify = ["verify", "weighted", "-k", "2", "-i", str(g), "-s", str(g)]
    assert main(verify) == EXIT_OK
    assert main([*verify, "--budget", "1"]) == EXIT_BUDGET
    monkeypatch.setenv("SPANNER_BUDGET", "1")
    assert main(verify) == EXIT_BUDGET


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
    ],
)
def test_cli_argument_errors_are_64(tmp_path, args):
    assert main(["gen", "hypercube", "-k", "3", "-o", str(tmp_path / "g")]) == EXIT_OK
    proc = _run_cli(tmp_path, *args)
    assert proc.returncode == EXIT_USAGE
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "h").exists()


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
