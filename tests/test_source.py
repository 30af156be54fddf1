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


_SET_MUTATORS = {"add", "update", "clear", "discard", "remove"}


def _set_grown_behind_view(tree: ast.AST) -> list[str]:
    """Sites where a function passes a name to ``.view(...)`` and later calls
    a set mutator on that name."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)]
        viewed: dict[str, tuple[int, int]] = {}
        for call in calls:
            if isinstance(call.func, ast.Attribute) and call.func.attr == "view":
                for arg in [*call.args, *(kw.value for kw in call.keywords)]:
                    if isinstance(arg, ast.Name):
                        at = (call.lineno, call.col_offset)
                        viewed[arg.id] = min(viewed.get(arg.id, at), at)
        for call in calls:
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in viewed
                and (call.lineno, call.col_offset) > viewed[func.value.id]
            ):
                found.append(f"{fn.name}:{call.lineno} {func.value.id}.{func.attr}")
    return found


def test_no_set_grown_behind_a_view():
    # A view copies the ids it is given, so growing that collection later
    # leaves the view as it was; growth must go through view.add.
    sample = "def f(g):\n    ids = set()\n    h = g.view(ids)\n    ids.add(1)\n"
    assert _set_grown_behind_view(ast.parse(sample)) == ["f:4 ids.add"]
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{site}" for site in _set_grown_behind_view(tree)]
    assert found == []
