"""Shared fixtures: the small worked example and corpus helpers."""

import random

import pytest
from hypothesis import strategies as st

from tkcore import TemporalGraph, generate_synthetic


@pytest.fixture
def g0() -> TemporalGraph:
    """Four vertices, five edges over timestamps 1..5.

    Hand-checkable: with k=2 there are exactly three distinct cores, all on
    the triangle a-b-c, distinguished by which of the parallel a-b edges
    (t=1 and t=5) survive.  Vertex d only ever has one neighbor.
    """
    return TemporalGraph.from_edges(
        4,
        [(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 4), (0, 1, 5)],
        labels=("a", "b", "c", "d"),
    )


@pytest.fixture
def tel_fixture_graph() -> TemporalGraph:
    """Seven vertices in two groups: a 2-core on v1..v5 living at t in {5,6}
    and a triangle v5-v7-v8 spread over t in {2,3,4}."""
    labels = ("v1", "v2", "v3", "v4", "v5", "v7", "v8")
    ids = {lab: i for i, lab in enumerate(labels)}
    raw = [
        ("v1", "v2", 5),
        ("v2", "v3", 6),
        ("v1", "v3", 5),
        ("v4", "v1", 5),
        ("v4", "v3", 6),
        ("v5", "v1", 5),
        ("v5", "v2", 6),
        ("v7", "v8", 2),
        ("v7", "v5", 3),
        ("v8", "v5", 4),
    ]
    return TemporalGraph.from_edges(
        7, [(ids[a], ids[b], t) for a, b, t in raw], labels=labels
    )


def rect_dims(zone):
    """Each LTI's rectangle in the zone, as (width, height): the ends from
    the TTI's to the LTI's, and the starts from the LTI's to the TTI's.
    The paper bounds a zone's boundary walk by the sum of these extents."""
    return [(l.te - zone.tti.te + 1, zone.tti.ts - l.ts + 1) for l in zone.ltis]


def random_instance(rng: random.Random, seed: int, *, max_vertices=12, max_edges=60, max_timestamps=14):
    model = rng.choice(["uniform", "preferential", "planted-community"])
    return generate_synthetic(
        rng.randint(3, max_vertices),
        rng.randint(3, max_edges),
        rng.randint(2, max_timestamps),
        model=model,
        seed=seed,
    )


@st.composite
def small_graphs(draw, max_repeat=1):
    """Random small graphs; each drawn (t, u, v) triple is repeated 1 to
    `max_repeat` times, so that pair runs of several parallel edges occur."""
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=1, max_value=30))
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        t = draw(st.integers(min_value=1, max_value=8))
        edges += [(u, v, t)] * draw(st.integers(min_value=1, max_value=max_repeat))
    return TemporalGraph.from_edges(n, edges)
