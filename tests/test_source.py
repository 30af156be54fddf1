from __future__ import annotations

import ast
import importlib
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


def test_every_exported_name_resolves():
    # A name left in __all__ after its definition is deleted breaks only
    # `from ... import *`, which nothing else in the suite runs.
    stale = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":
            continue  # importing it runs the command line
        name = "spannerlab" if path.stem == "__init__" else f"spannerlab.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert stale == []
