from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spannerlab"


def test_no_assert_statements_in_package():
    # Invariants must keep running under `python -O`, which strips asserts.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), "no package sources found"
    assert found == []
