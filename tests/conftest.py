from __future__ import annotations

import contextlib
import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from spannerlab import Multigraph, graphs

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def small_graphs(
    draw,
    min_n: int = 2,
    max_n: int = 8,
    max_m: int = 16,
    min_m: int = 0,
    multigraph: bool = False,
    weighted: bool = False,
):
    n = draw(st.integers(min_n, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda uv: uv[0] != uv[1]
    )
    pairs = draw(st.lists(pair, min_size=min_m, max_size=max_m))
    if not multigraph:
        seen = set()
        deduped = []
        for u, v in pairs:
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                deduped.append(key)
        pairs = deduped
    if weighted:
        weights = draw(
            st.lists(
                st.floats(0.05, 4.0, allow_nan=False, allow_infinity=False),
                min_size=len(pairs),
                max_size=len(pairs),
            )
        )
        return Multigraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)], weighted=True)
    return Multigraph(n, pairs)


def seeded_gnp(n: int, p: float, seed: int, weighted: bool = False) -> Multigraph:
    """Plain G(n, p) helper for seeded randomized suites (not hypothesis)."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if weighted:
        return Multigraph(
            n, [(u, v, 1.0 - rng.random()) for u, v in pairs], weighted=True
        )
    return Multigraph(n, pairs)


# graphs.MASK_RULE values that put every view built from an id subset on the
# mask searches, or on the dict searches; only tests move the rule
MASKS, DICTS = 2**64, -1


@contextlib.contextmanager
def mask_rule(rule):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "MASK_RULE", rule)
        yield
