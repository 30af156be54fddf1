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


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant))
    return [f"{line} {name}" for line, name in sorted(imported) if name not in used]


def test_no_unused_imports_in_package():
    # an import left behind by a deletion still loads, so nothing else in the
    # suite notices it; __init__ imports only to re-export
    sample = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import comb, inf as INF\n"
        "__all__ = ['comb']\n"
        "x: int = 0\n"
    )
    assert _unused_imports(ast.parse(sample)) == ["2 os", "3 INF"]
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{site}" for site in _unused_imports(tree)]
    assert found == []


_GRAPH_INTERNALS = {"_adj", "_ws", "_us", "_vs", "_rank"}


def _internal_reads(tree: ast.AST) -> list[str]:
    """Sites that read an adjacency, edge array or rank map of a graph or
    view."""
    return sorted(
        f"{node.lineno} .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _GRAPH_INTERNALS
    )


def test_only_graphs_reads_graph_internals():
    # every scan of adjacency lives in graphs.py, next to the search loops;
    # another module reading the arrays is a loop that escaped it
    sample = "def f(g, view):\n    ws = g._ws\n    return view._adj[0], g.adj(0)\n"
    assert _internal_reads(ast.parse(sample)) == ["2 ._ws", "3 ._adj"]
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "graphs":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{site}" for site in _internal_reads(tree)]
    assert found == []


def _package_imports(tree: ast.AST) -> set[str]:
    """The spannerlab modules a module imports, by short name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["spannerlab" if node.level == 1 else "", node.module]))
            names = [module] if module != "spannerlab" else [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("spannerlab."))
    return found


def test_oracles_and_constructions_are_layered():
    # an oracle that reuses a construction's code certifies that code with
    # itself, so verify reads only graphs; and no construction or generator
    # leans on the oracles
    sample = "from . import greedy\nfrom .graphs import INF\nimport spannerlab.verify\nfrom spannerlab import cli\n"
    assert _package_imports(ast.parse(sample)) == {"cli", "greedy", "graphs", "verify"}
    imports = {
        path.stem: _package_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted(SRC.glob("*.py"))
    }
    assert imports["verify"] <= {"graphs"}
    users = ("clustering", "greedy", "weighted", "fault_tolerant", "generators")
    assert [name for name in users if "verify" in imports[name]] == []


def _rule_refs(tree: ast.AST) -> list[str]:
    """Sites that name ``MASK_RULE``, bare or as an attribute."""
    return sorted(
        f"{node.lineno} MASK_RULE"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "MASK_RULE")
        or (isinstance(node, ast.Attribute) and node.attr == "MASK_RULE")
    )


def test_only_graphs_names_the_mask_rule():
    # a view decides once, when it is built, whether it keeps masks; a
    # caller that tests the rule itself is a second decision that can drift
    sample = "from .graphs import MASK_RULE\nx = MASK_RULE\ny = graphs.MASK_RULE\nz = 'MASK_RULE'\n"
    assert _rule_refs(ast.parse(sample)) == ["2 MASK_RULE", "3 MASK_RULE"]
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "graphs":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{site}" for site in _rule_refs(tree)]
    assert found == []


def _functions(tree: ast.Module):
    """(name, node) of each module-level function and method; a function
    nested in one counts as part of it."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body if isinstance(fn, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def _excluded_edge_tests(tree: ast.Module) -> list[str]:
    """The function of each ``in excl`` test."""
    return [
        name
        for name, fn in _functions(tree)
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare)
        for op, right in zip(node.ops, node.comparators)
        if isinstance(op, ast.In) and isinstance(right, ast.Name) and right.id == "excl"
    ]


def _callers(tree: ast.Module, callee: str) -> list[str]:
    """The functions that call ``callee`` by name."""
    return [
        name
        for name, fn in _functions(tree)
        if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == callee for node in ast.walk(fn))
    ]


def test_one_dict_search_step_filters_excluded_edges():
    # every dict BFS takes its layers from _grow, and the Dijkstra is the
    # one other loop that skips excluded edges; a third copy of the filter
    # is a search loop that escaped the step
    sample = (
        "def f(excl):\n    return 1 in excl, 1 not in excl, 1 in ex\n"
        "class C:\n    def g(self, excl):\n        def h():\n            return [_grow() for e in () if e in excl]\n"
    )
    assert _excluded_edge_tests(ast.parse(sample)) == ["f", "C.g"]
    assert _callers(ast.parse(sample), "_grow") == ["C.g"]
    tree = ast.parse((SRC / "graphs.py").read_text(encoding="utf-8"))
    assert _excluded_edge_tests(tree) == ["_grow", "weighted_distances"]
    assert _callers(tree, "_grow") == ["hop_distance", "hop_distances", "bfs_layers", "shortest_path"]


def _rank_maps(tree: ast.Module) -> list[str]:
    """The function of each rank map built as ``{v: i for i, v in
    enumerate(...)}``."""
    found = []
    for name, fn in _functions(tree):
        for node in ast.walk(fn):
            if not (isinstance(node, ast.DictComp) and len(node.generators) == 1):
                continue
            loop = node.generators[0]
            # the names bound by the loop, (index, item), and the map's
            # (value, key): equal for a map from each item to its index
            bound = [getattr(elt, "id", None) for elt in getattr(loop.target, "elts", ())]
            mapped = [getattr(node.value, "id", None), getattr(node.key, "id", None)]
            is_enumerate = isinstance(loop.iter, ast.Call) and getattr(loop.iter.func, "id", None) == "enumerate"
            if is_enumerate and len(bound) == 2 and None not in bound and mapped == bound:
                found.append(name)
    return found


def test_only_the_graph_index_builds_a_rank_map():
    # a Multigraph ranks its vertices with an edge once; every mask and rank
    # table, and every vertex list read beside one, follows that order, and
    # a second rank map is an order that can drift from it
    sample = "def f(vs):\n    return {v: i for i, v in enumerate(vs)}, {i: v for i, v in enumerate(vs)}\n"
    assert _rank_maps(ast.parse(sample)) == ["f"]
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{name}" for name in _rank_maps(tree)]
    assert found == ["graphs.py:Multigraph._index"]
    assert "rank" not in importlib.import_module("spannerlab.graphs").SubgraphView.__slots__


_TYPE_TESTS = {"isinstance", "hasattr", "getattr"}


def _type_tests(tree: ast.AST) -> list[str]:
    """Sites that call ``isinstance``, ``hasattr`` or ``getattr`` by name."""
    return sorted(
        f"{node.lineno} {node.func.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _TYPE_TESTS
    )


def test_no_runtime_type_tests_in_package():
    # every input has one shape: the oracles take host edge ids, and each
    # span row adapts its own result; a type test is a second shape that a
    # caller can drift back to
    sample = (
        "def f(result, h):\n    if not hasattr(result, 'phase1'):\n        return isinstance(h, tuple)\n"
        "    return getattr(result, 'paths'), h.isinstance, callable(h)\n"
    )
    assert _type_tests(ast.parse(sample)) == ["2 hasattr", "3 isinstance", "4 getattr"]
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{site}" for site in _type_tests(tree)]
    assert found == []
