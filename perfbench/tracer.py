"""Per-layer tracing from outside the program.

While a ``Tracer`` is installed, every public function (no leading
underscore) that a ``spannerlab`` module binds in its namespace is replaced
by a timing and counting wrapper. A module calls the names in its own
namespace, so a kernel call is attributed to the module that made it: the
same ``hop_distance`` shows up as ``greedy.hop_distance`` when greedy calls
it and as ``verify.hop_distance`` when verify does. The wrappers keep a span
stack, so self time is a span's time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import types
from dataclasses import dataclass
from time import perf_counter

from spannerlab.verify import VerificationReport

MODULES = (
    "graphs",
    "clustering",
    "greedy",
    "weighted",
    "fault_tolerant",
    "verify",
    "generators",
    "cli",
)


@dataclass
class Stat:
    calls: int = 0
    settled: int = 0
    hits: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    pairs_checked: int = 0
    fault_sets_checked: int = 0


class Tracer:
    """Collects a ``Stat`` per ``<caller module>.<callee>`` key.

    ``settled`` sums the sizes of returned dicts, sets and lists; ``hits``
    counts results that are neither None nor False; verification reports add
    their pair and fault-set counts.
    """

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []

    def counts(self) -> dict[str, tuple[int, ...]]:
        """The exact (run-independent) part of every stat."""
        return {
            key: (s.calls, s.settled, s.hits, s.pairs_checked, s.fault_sets_checked)
            for key, s in sorted(self.stats.items())
        }

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children
            if isinstance(result, (dict, set, frozenset, list)):
                stat.settled += len(result)
            if result is not None and result is not False:
                stat.hits += 1
            if isinstance(result, VerificationReport):
                stat.pairs_checked += result.pairs_checked
                stat.fault_sets_checked += result.fault_sets_checked
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public spannerlab function in every module namespace,
        and restore the originals on exit."""
        saved = []
        try:
            for short in MODULES:
                module = importlib.import_module(f"spannerlab.{short}")
                for name, obj in list(vars(module).items()):
                    if (
                        isinstance(obj, types.FunctionType)
                        and not name.startswith("_")
                        and obj.__module__.startswith("spannerlab.")
                    ):
                        saved.append((module, name, obj))
                        setattr(module, name, self._wrap(f"{short}.{name}", obj))
            yield self
        finally:
            for module, name, obj in reversed(saved):
                setattr(module, name, obj)
