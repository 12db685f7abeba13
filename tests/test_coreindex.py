"""The core-time index: run_txcq's zones read off one sweep per (graph, k)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tkcore import (
    MAX_CORE_INDEX_SIZE,
    EngineStats,
    MeasureDescriptor,
    QuerySpec,
    TemporalGraph,
    brute_force_tcq,
    generate_synthetic,
    get_measure,
    run_otcd_star,
    run_txcq,
    run_txcq_walk,
)
from tkcore import coreindex

from conftest import small_graphs


def spread(g: TemporalGraph, gaps) -> TemporalGraph:
    """`g` with its i-th gap between distinct stamps widened to gaps[i]."""
    raw, t = {}, 0
    for stamp, gap in zip(g.timestamps, gaps):
        t += gap
        raw[stamp] = t
    return TemporalGraph.from_edges(g.vertex_count, [(e.u, e.v, raw[e.t]) for e in g.edges])


@st.composite
def staircases(draw, max_repeat=1):
    """A clique stamped 4 or 5 plus vertices that each join it by one edge
    stamped before and one after, so that at k=2 its zones step down in
    several loosest intervals; with or without small random noise."""
    size = draw(st.integers(3, 4))
    edges = []
    for u in range(size):
        for v in range(u + 1, size):
            edges += [(u, v, draw(st.integers(4, 5)))] * draw(st.integers(1, max_repeat))
    steps = draw(st.integers(1, 4))
    for w in range(size, size + steps):
        a, b = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        edges += [(w, a, draw(st.integers(1, 4))), (w, b, draw(st.integers(5, 8)))]
    noise = draw(st.one_of(st.just(TemporalGraph.from_edges(2, [])), small_graphs(max_repeat)))
    n = max(size + steps, noise.vertex_count)
    return TemporalGraph.from_edges(n, edges + list(noise.edges))


def geometry(zone):
    return (zone.tti, zone.ltis, zone.core.vertices, zone.core.edge_count, dict(zone.core.degrees))


@given(
    g=st.one_of(small_graphs(), small_graphs(max_repeat=5), staircases(), staircases(max_repeat=5)),
    k=st.sampled_from((1, 2, 2, 3)),
    gaps=st.one_of(st.just([1] * 8), st.lists(st.integers(1, 5), min_size=8, max_size=8)),
    ends=st.tuples(st.integers(-2, 44), st.integers(-2, 44)),
)
@settings(max_examples=300, deadline=None)
def test_index_zones_match_the_walk_and_the_oracle(g, k, gaps, ends):
    # dense stamps, or stamps spread by gaps that a window's ends fall into
    g = spread(g, gaps)
    window = (min(ends), max(ends))
    res = run_txcq(g, QuerySpec(k, window))
    assert res.stats.algorithm == "core-index"
    got = [geometry(e.zone) for e in res.entries]
    assert got == [geometry(z) for z in run_otcd_star(g, k, window)]
    assert got == [
        (c.tti, c.ltis, c.core.vertices, c.core.edge_count, dict(c.core.degrees))
        for c in brute_force_tcq(g, k, window).classes
    ]
    c = res.stats.prune_counters
    held = sum(window[0] <= t <= window[1] for t in g.timestamps)
    assert c["cells_total"] == held * (held + 1) // 2
    assert c["cells_visited"] + c["cells_pruned"] == c["cells_total"]
    assert c["decompositions"] == 0 and c["distinct_cores"] == len(got)


@given(
    g=st.one_of(small_graphs(), small_graphs(max_repeat=5), staircases(), staircases(max_repeat=5)),
    k=st.sampled_from((1, 2, 3)),
)
@settings(max_examples=200, deadline=None)
def test_every_index_core_counts_its_distinct_pairs(g, k):
    # the sweep records the TEL's pair count at each breakpoint: every
    # core's count is half its degree sum, read off the graph's pair runs
    index = coreindex.CoreIndex(g, k)
    for s, row in enumerate(index.cores):
        for core in row:
            snap, _ = index.read.get((s, core[0])) or index._first_read(s, *core)
            assert 2 * snap.pair_count == sum(snap.degrees.values())


@pytest.mark.parametrize("graph", [
    ("planted-community", 400, 6000, 30, 42),
    ("uniform", 200, 400, 60, 1),
])
def test_burstiness_leaves_no_degrees_on_the_index(graph):
    # burstiness reads each core's distinct-pair count, so a full-window
    # optimize builds no degree dict (nor vertex set) on the index's cores
    model, n, m, t, seed = graph
    g = generate_synthetic(n, m, t, model, seed)
    spec = QuerySpec(2, g.time_range(), get_measure("burstiness"), "optimize")
    res = run_txcq(g, spec)
    assert res.stats.index == "built" and res.entries
    read = g.core_indexes[2].read
    assert len(read) == res.stats.walk.distinct_cores
    for snap, _ in read.values():
        assert "degrees" not in vars(snap) and "vertices" not in vars(snap)
    assert answer(res) == answer(run_txcq_walk(g, spec))  # compares the cores, building their sets


def test_a_warm_engagement_optimize_reads_no_window_degree(monkeypatch):
    # each zone's core keeps its value at its TTI on the first optimize, so
    # the second reads no degree and counts the same evaluations as the
    # first and as the walk
    g = generate_synthetic(300, 4000, 40, "planted-community", 3)
    spec = QuerySpec(2, g.time_range(), get_measure("engagement"), "optimize")
    first = run_txcq(g, spec)
    read = []
    real = TemporalGraph.degree_in
    monkeypatch.setattr(TemporalGraph, "degree_in", lambda self, v, w: read.append(v) or real(self, v, w))
    second = run_txcq(g, spec)
    assert second.stats.index == "reused" and len(second.stats.zone_eval_counts) > 10
    assert read == []
    walk = run_txcq_walk(g, spec)
    assert read  # the walk's cores are new to the query
    assert answer(first) == answer(second) == answer(walk)


def test_frequency_keeps_one_count_per_core_on_the_index():
    # a full-window frequency optimize keeps no pair Counter on the index
    g = generate_synthetic(400, 6000, 30, "planted-community", 42)
    spec = QuerySpec(2, g.time_range(), get_measure("frequency"), "optimize")
    res = run_txcq(g, spec)
    read = g.core_indexes[2].read
    assert res.stats.index == "built" and len(read) == len(res.stats.zone_eval_counts)
    for snap, _ in read.values():
        assert "pair_counts" not in vars(snap) and "least_pair_count" in vars(snap)
    assert answer(res) == answer(run_txcq_walk(g, spec))


def test_the_size_rule_routes_by_ranks_times_pair_runs(monkeypatch):
    g = generate_synthetic(60, 600, 20, "planted-community", 1)
    size = len(g.timestamps) * len(g.pair_runs)
    assert size <= MAX_CORE_INDEX_SIZE
    queries = [
        QuerySpec(2, (1, 20)),
        QuerySpec(2, (1, 20), get_measure("burstiness"), "optimize"),
        QuerySpec(2, (1, 20), get_measure("growth_rate"), "constrain", Fraction(1, 2)),
    ]
    answers = []
    for cap, route, how in ((size, "core-index", "built"), (size - 1, "otcd-star", "refused")):
        monkeypatch.setattr(coreindex, "MAX_CORE_INDEX_SIZE", cap)
        g.core_indexes.clear()
        results = [run_txcq(g, spec) for spec in queries]
        assert [res.stats.algorithm for res in results] == [route] * len(queries)
        assert (g.core_indexes[2] is None) == (route == "otcd-star")
        assert [res.stats.index for res in results] == [how] + [how.replace("built", "reused")] * 2
        assert (results[0].stats.index_build_ms > 0) == (how == "built")
        assert [res.stats.index_build_ms for res in results[1:]] == [0.0, 0.0]
        answers.append([
            [(e.zone.tti, e.zone.ltis, e.zone.core, e.qualifying, e.x_value) for e in res.entries]
            for res in results
        ])
    assert answers[0] == answers[1]


def test_the_index_is_built_once_per_graph_and_k():
    g = generate_synthetic(60, 600, 20, "planted-community", 1)
    run_txcq(g, QuerySpec(2, (1, 20)))
    index = g.core_indexes[2]
    run_txcq(g, QuerySpec(2, (3, 9), get_measure("size"), "optimize"))
    run_txcq(g, QuerySpec(3, (1, 20)))
    assert g.core_indexes[2] is index and set(g.core_indexes) == {2, 3}
    assert run_txcq(g, QuerySpec(2, (5, 15))).stats.index == "reused"
    assert g.core_indexes[2] is index


@pytest.mark.parametrize("name, mode, sigma", [
    ("burstiness", "optimize", None),
    ("burstiness", "constrain", 2),
    ("engagement", "optimize", None),
    ("engagement", "constrain", Fraction(3, 4)),
    ("frequency", "optimize", None),
    ("frequency", "constrain", 2),
])
def test_index_route_degrees_come_from_the_index(name, mode, sigma):
    # the degree- and pair-reading measures never make a core list its edges
    g = generate_synthetic(300, 4000, 40, "planted-community", 3)
    res = run_txcq(g, QuerySpec(3, (1, 40), get_measure(name), mode, sigma))
    assert res.stats.algorithm == "core-index" and res.entries
    for entry in res.entries:
        assert "edges" not in vars(entry.zone.core)


UNIMODAL = MeasureDescriptor(
    "unimodal", "nonmonotonic", "higher",
    lambda core, w, ctx: Fraction(len(core.vertices), 1 + abs(w.duration - 4)),
)
MIXED = [
    (get_measure("frequency"), "optimize", None),
    (get_measure("frequency"), "constrain", 2),
    (get_measure("persistence"), "optimize", None),
    (get_measure("periodicity"), "constrain", 2),
    (get_measure("burstiness"), "optimize", None),
    (get_measure("burstiness"), "constrain", Fraction(3, 2)),
    (get_measure("engagement"), "optimize", None),
    (get_measure("engagement"), "constrain", Fraction(1, 2)),
    (UNIMODAL, "optimize", None),
    (UNIMODAL, "constrain", Fraction(2)),
]


def answer(res):
    entries = [(e.zone.tti, e.zone.ltis, e.zone.core, e.qualifying, e.x_value) for e in res.entries]
    return entries, res.stats.x_evaluations, res.stats.zone_eval_counts


@pytest.mark.parametrize("shape", ("sparse", "planted"))
def test_graphs_whose_cores_outgrow_the_size_rule_get_an_index(monkeypatch, shape):
    # the cores of all windows hold more vertices in all than ranks x pair
    # runs: sparse over a long timeline (here at the size rule's very cap),
    # or the north star's planted k=2 scenario.  Each sweep keeps one
    # vertex order, so the index stays small, and answers as the walk does
    rng = random.Random(15)
    if shape == "sparse":
        g = generate_synthetic(40, 100, 40, "uniform", 1)
        monkeypatch.setattr(coreindex, "MAX_CORE_INDEX_SIZE", len(g.timestamps) * len(g.pair_runs))
        windows = 12
    else:
        g = generate_synthetic(1000, 20000, 100, "planted-community", 42)
        windows = 4
    size = len(g.timestamps) * len(g.pair_runs)
    last = g.timestamps[-1]
    specs = [QuerySpec(2, (1, last))]
    for _ in range(windows):
        window = tuple(sorted((rng.randint(0, last + 1), rng.randint(0, last + 1))))
        specs += [QuerySpec(2, window), QuerySpec(2, window, *rng.choice(MIXED[:8]))]
    results = [run_txcq(g, spec) for spec in specs]
    assert [res.stats.index for res in results] == ["built"] + ["reused"] * (len(specs) - 1)
    assert {res.stats.algorithm for res in results} == {"core-index"}
    for spec, res in zip(specs, results):
        walk = run_txcq_walk(g, spec)
        assert answer(res) == answer(walk) and walk.stats.index is None
        if spec.mode == "enumerate":
            assert [geometry(e.zone) for e in res.entries] == [geometry(e.zone) for e in walk.entries]
    index = g.core_indexes[2]
    orders = {id(order): order for row in index.cores for *_, order, _ in row}
    assert all(len(set(order)) == len(order) for order in orders.values())
    assert len(orders) <= len(g.timestamps)
    assert sum(n for row in index.cores for *_, n in row) > size


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("gaps", ("dense", "gapped"))
def test_the_index_carries_no_window_between_queries(k, gaps):
    # one graph answers a seeded sequence of windows, whose ends fall inside
    # gaps on the gapped stamps, as the walk and a fresh graph answer each
    rng = random.Random(1212 + k)
    g = generate_synthetic(40, 400, 16, "planted-community", k)
    if gaps == "gapped":
        g = spread(g, [rng.randint(1, 9) for _ in g.timestamps])
    last = g.timestamps[-1]
    for q in range(60):
        window = tuple(sorted((rng.randint(-1, last + 1), rng.randint(-1, last + 1))))
        res = run_txcq(g, QuerySpec(k, window))
        assert res.stats.index == ("built" if q == 0 else "reused")
        assert [geometry(e.zone) for e in res.entries] == [geometry(z) for z in run_otcd_star(g, k, window)]
    for q in range(60):
        window = tuple(sorted((rng.randint(-1, last + 1), rng.randint(-1, last + 1))))
        spec = QuerySpec(k, window, *rng.choice(MIXED))
        fresh = TemporalGraph.from_edges(g.vertex_count, g.edges)
        assert answer(run_txcq(g, spec)) == answer(run_txcq(fresh, spec))


def test_index_counters_are_made_for_their_own_window_on_first_read(monkeypatch):
    # an index-routed answer works its counters out when they are first
    # read, here only after later queries on other windows of the graph;
    # until then no query has built an EngineStats
    built = []
    init = EngineStats.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EngineStats, "__init__", counted)
    rng = random.Random(14)
    g = spread(generate_synthetic(40, 400, 16, "planted-community", 2), [rng.randint(1, 3) for _ in range(16)])
    last = g.timestamps[-1]
    specs = [
        QuerySpec(2, tuple(sorted((rng.randint(-1, last + 1), rng.randint(-1, last + 1)))), *rng.choice(MIXED[:8]))
        for _ in range(30)
    ] + [QuerySpec(2, (1, last))]
    results = [run_txcq(g, spec) for spec in specs]
    assert built == [] and {res.stats.algorithm for res in results} == {"core-index"}
    for q, (spec, res) in enumerate(zip(specs, results)):
        first = ("walk", "cells_visited", "prune_counters")[q % 3]
        getattr(res.stats, first)
        fresh = run_txcq(TemporalGraph.from_edges(g.vertex_count, g.edges), spec).stats
        walk = res.stats.walk
        assert walk is not None and walk.wall_ms == res.stats.phase1_ms
        assert vars(walk) | {"wall_ms": 0} == vars(fresh.walk) | {"wall_ms": 0}
        assert res.stats.cells_visited == walk.cells_visited == fresh.cells_visited
        c = res.stats.prune_counters
        assert c == fresh.prune_counters == walk.to_dict()
        held = sum(spec.window[0] <= t <= spec.window[1] for t in g.timestamps)
        assert c["cells_total"] == held * (held + 1) // 2
        assert c["cells_visited"] + c["cells_pruned"] == c["cells_total"]
        assert c["distinct_cores"] == len(res.stats.zone_eval_counts or res.entries)
