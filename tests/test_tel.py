"""The temporal edge list: a window over the graph's pair runs plus
per-vertex neighbor counts."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from tkcore import (
    ContractViolation,
    CoreSnapshot,
    TEL,
    TemporalEdge,
    TemporalGraph,
    TimeInterval,
    clamp_window,
    reference_core,
)

from conftest import small_graphs


def core_labels(graph, snapshot):
    return sorted(graph.label_of(v) for v in snapshot.vertices)


def test_wide_window_keeps_both_groups(tel_fixture_graph):
    tel = TEL.from_graph(tel_fixture_graph)
    tel.tcd(2, (2, 6))
    snap = tel.snapshot()
    assert snap.edge_count == 10
    assert snap.tti == TimeInterval(2, 6)
    assert core_labels(tel_fixture_graph, snap) == ["v1", "v2", "v3", "v4", "v5", "v7", "v8"]


def test_narrow_window_drops_the_triangle(tel_fixture_graph):
    tel = TEL.from_graph(tel_fixture_graph)
    tel.tcd(2, (5, 6))
    snap = tel.snapshot()
    assert snap.edge_count == 7
    assert snap.tti == TimeInterval(5, 6)
    assert core_labels(tel_fixture_graph, snap) == ["v1", "v2", "v3", "v4", "v5"]


def test_decremental_narrowing_matches_fresh_build(tel_fixture_graph):
    # narrowing an already-decomposed structure must equal starting over
    tel = TEL.from_graph(tel_fixture_graph)
    tel.tcd(2, (2, 6))
    tel.tcd(2, (5, 6))
    fresh = TEL.from_graph(tel_fixture_graph)
    fresh.tcd(2, (5, 6))
    assert tel.snapshot() == fresh.snapshot()
    tel.validate()


def test_window_outside_represented_range_is_rejected(tel_fixture_graph):
    tel = TEL.from_graph(tel_fixture_graph)
    tel.tcd(2, (5, 6))
    with pytest.raises(ContractViolation):
        tel.tcd(2, (2, 6))


def test_degree_counts_distinct_neighbors_not_edges():
    g = TemporalGraph.from_edges(3, [(0, 1, 1), (0, 1, 2), (0, 1, 3), (1, 2, 2)])
    tel = TEL.from_graph(g)
    tel.decompose(2)
    # vertex 1 touches three parallel edges to 0 but only two neighbors;
    # nobody reaches two distinct neighbors except vertex 1, so all peel
    assert tel.edge_count == 0
    assert tel.tti() is None


def test_decompose_rejects_nonpositive_k(tel_fixture_graph):
    tel = TEL.from_graph(tel_fixture_graph)
    with pytest.raises(ValueError):
        tel.decompose(0)


def test_truncate_then_snapshot_prunes_empty_bookkeeping(tel_fixture_graph):
    tel = TEL.from_graph(tel_fixture_graph)
    tel.truncate((5, 6))
    tel.validate()
    snap = tel.snapshot()
    assert snap.tti == TimeInterval(5, 6)
    # v7 and v8 lost every edge; they must drop out of the neighbor counts
    v7 = tel_fixture_graph.labels.index("v7")
    assert v7 not in tel.neighbor_mult


def test_clone_is_structurally_independent(tel_fixture_graph):
    tel = TEL.from_graph(tel_fixture_graph)
    twin = tel.clone()
    before = tel.snapshot()
    twin.tcd(2, (5, 6))
    assert tel.snapshot() == before
    tel.validate()
    twin.validate()


def test_windowed_clone_equals_clone_then_truncate(tel_fixture_graph):
    tel = TEL.from_graph(tel_fixture_graph)
    for window in ((2, 6), (3, 5), (5, 6), (4, 4)):
        fused = tel.clone()
        fused.truncate(window)
        spelled = tel.clone()
        spelled.truncate(window)
        assert fused.snapshot() == spelled.snapshot()
        assert fused.represents == spelled.represents
        fused.validate()


def test_clone_forgets_core_status_when_edges_were_dropped(tel_fixture_graph):
    tel = TEL.from_graph(tel_fixture_graph)
    tel.tcd(2, (2, 6))
    assert tel.clone().k_applied == 2
    cut = tel.clone()
    cut.truncate((5, 6))
    assert cut.k_applied is None


def test_tti_reads_in_constant_time():
    # 100k edges over 50k stamps; a scan of the window would cost seconds,
    # end reads cost µs.  In the peeled case only two triangles at t=2 and
    # t=49999 survive, so both ends step past dead edges once, and the dead
    # middle is never read.
    bipartite = [(i % 97, (i * 7 + 1) % 97 + 97, i % 50000 + 1) for i in range(100_000)]
    matching = [(2 * (i % 97) + 3, 2 * (i % 97) + 4, i % 50000 + 1) for i in range(100_000)]
    triangles = [(u, v, t) for t in (2, 49999) for u, v in ((0, 1), (0, 2), (1, 2))]
    live = TEL.from_graph(TemporalGraph.from_edges(194, bipartite))
    peeled = TEL.from_graph(TemporalGraph.from_edges(197, matching + triangles))
    peeled.decompose(2)
    assert peeled.edge_count == 6
    for tel, tti in ((live, TimeInterval(1, 50000)), (peeled, TimeInterval(2, 49999))):
        started = time.perf_counter()
        tel.tti()
        ends = (tel._lo, tel._hi)  # stepped past the dead runs once
        for _ in range(10_000):
            tel.tti()
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5
        assert (tel._lo, tel._hi) == ends
        assert tel.tti() == tti


def test_iter_edges_lists_edges_in_time_order(tel_fixture_graph):
    tel = TEL.from_graph(tel_fixture_graph)
    tel.tcd(2, (5, 6))
    edges = list(tel.iter_edges())
    assert len(edges) == 7
    assert edges[0].t == 5 and edges[-1].t == 6
    assert edges == sorted(edges, key=lambda e: (e.t, e.u, e.v))


graphs = st.one_of(small_graphs(), small_graphs(max_repeat=6))


@given(g=graphs)
@settings(max_examples=150, deadline=None)
def test_pair_runs_expand_back_to_the_edges(g):
    runs = g.pair_runs
    keys = [(t, u, v) for u, v, t, _ in runs]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(n >= 1 for *_, n in runs)
    assert sum(n for *_, n in runs) == g.edge_count
    assert tuple(TemporalEdge(u, v, t) for u, v, t, n in runs for _ in range(n)) == g.edges


def test_truncating_a_run_of_parallel_edges_subtracts_all_of_them():
    # three parallel edges 0-1 at t=1, one more at t=2
    g = TemporalGraph.from_edges(3, [(0, 1, 1)] * 3 + [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
    tel = TEL.from_graph(g)
    assert (tel.edge_count, tel.neighbor_mult[0][1]) == (6, 4)
    tel.truncate((2, 2))
    assert (tel.edge_count, tel.neighbor_mult[0][1], tel.neighbor_mult[1][0]) == (3, 1, 1)
    tel.validate()


@given(
    g=graphs,
    k=st.integers(min_value=1, max_value=4),
    a=st.integers(min_value=1, max_value=8),
    b=st.integers(min_value=1, max_value=8),
    cuts=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_tcd_agrees_with_reference_peeling(g, k, a, b, cuts):
    # one TEL narrowed through nested windows; tti() moves the window ends
    # past dead edges, and the next truncate and peel start from there
    window = clamp_window(g, (min(a, b), max(a, b)))
    if window is None:
        return
    tel = TEL.from_graph(g)
    for left, right in [(0, 0), *cuts]:
        ts = min(window.ts + left, window.te)
        window = TimeInterval(ts, max(ts, window.te - right))
        tel.tcd(k, window)
        tel.tti()
        tel.validate()
        assert tel.snapshot() == reference_core(g, k, window)


@given(
    g=graphs,
    k=st.integers(min_value=1, max_value=4),
    a=st.integers(min_value=1, max_value=8),
    b=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_captured_edges_equal_the_content(g, k, a, b):
    # a capture keeps only vertices and TTI; its lazily read edges must be
    # exactly what the TEL held, whichever operation shaped the content
    window = (min(a, b), max(a, b))
    tel = TEL.from_graph(g)
    shaped = [tel.clone()]
    shaped[0].truncate(window)
    tel.truncate(window)
    shaped.append(tel.clone())
    tel.decompose(k)
    shaped.append(tel)
    for t in shaped:
        snap = t.snapshot()
        assert snap.edges == tuple(t.iter_edges())
        assert snap.edge_count == t.edge_count
        assert snap.degrees == {v: len(n) for v, n in snap.neighbor_sets.items()}


@given(
    g=graphs,
    k=st.integers(min_value=1, max_value=4),
    ops=st.lists(
        st.tuples(st.sampled_from(("truncate", "decompose", "clone")), st.integers(1, 8), st.integers(1, 8)),
        max_size=6,
    ),
)
@settings(max_examples=200, deadline=None)
def test_the_distinct_pair_count_is_half_the_degree_sum(g, k, ops):
    # `pairs` follows every truncate and peel, and a clone copies it: a
    # capture's `pair_count`, and that of an explicit snapshot of the same
    # core, which counts it off the edges, are half the degree sum
    tel = TEL.from_graph(g)
    for op, a, b in [("build", 0, 0), *ops]:
        if op == "truncate":
            tel.truncate((min(a, b), max(a, b)))
        elif op == "decompose":
            tel.decompose(k)
        elif op == "clone":
            tel = tel.clone()
        tel.validate()
        snap = tel.snapshot()
        assert 2 * snap.pair_count == 2 * tel.pairs == sum(snap.degrees.values())
        explicit = CoreSnapshot(snap.vertices, snap.edges, snap.tti, k)
        assert "pair_count" not in vars(explicit)  # counted on first read
        assert 2 * explicit.pair_count == sum(explicit.degrees.values())
        assert explicit.pair_count == snap.pair_count


def test_validate_recounts_the_distinct_pairs(tel_fixture_graph):
    tel = TEL.from_graph(tel_fixture_graph)
    tel.validate()
    tel.pairs += 1
    with pytest.raises(AssertionError, match="distinct pair count"):
        tel.validate()


def test_captured_core_is_read_only_and_compares_by_content(tel_fixture_graph):
    tel = TEL.from_graph(tel_fixture_graph)
    tel.decompose(2)
    snap = tel.snapshot()
    with pytest.raises(TypeError):
        snap.degrees[next(iter(snap.vertices))] = 0
    assert snap == CoreSnapshot(snap.vertices, snap.edges, snap.tti)
    # same vertex set and TTI but one edge fewer: a different core
    assert snap != CoreSnapshot(snap.vertices, snap.edges[1:], snap.tti)


@pytest.mark.parametrize("first", [(0, 1, 1), (1, 0, 1)])
@pytest.mark.parametrize("second", [(0, 1, 2), (1, 0, 2)])
def test_an_explicit_snapshot_counts_a_pair_in_either_endpoint_order(first, second):
    tel = TEL.from_graph(TemporalGraph(2, [first, second]))
    tel.decompose(1)
    capture = tel.snapshot()
    explicit = CoreSnapshot(frozenset({0, 1}), [first, second], TimeInterval(1, 2))
    assert capture == explicit
    for name in ("pair_count", "degrees", "pair_counts", "least_pair_count", "neighbor_sets"):
        assert getattr(explicit, name) == getattr(capture, name), name
    assert (explicit.pair_count, explicit.least_pair_count, dict(explicit.degrees)) == (1, 2, {0: 1, 1: 1})


@pytest.mark.parametrize("vertices, edges, tti", [
    ({0}, [(0, 0, 1)], TimeInterval(1, 1)),  # a self-loop, which every graph drops
    ({0}, [(0, 1, 1)], TimeInterval(1, 1)),  # an end outside the vertex set
    ({0, 1}, [(0, 1, 1), (0, 1, 3)], TimeInterval(1, 2)),  # a stamp outside the TTI
    ({0, 1}, [], TimeInterval(1, 2)),  # a TTI without edges
    ({0, 1}, [(0, 1, 1)], None),  # edges without a TTI
])
def test_an_explicit_snapshot_refuses_edges_no_core_can_hold(vertices, edges, tti):
    with pytest.raises(ContractViolation):
        CoreSnapshot(frozenset(vertices), edges, tti, 1)


def test_windowed_build_equals_build_then_truncate(tel_fixture_graph):
    for window in ((2, 6), (3, 5), (5, 6), (4, 4), (7, 9)):
        fused = TEL.from_graph(tel_fixture_graph, window)
        spelled = TEL.from_graph(tel_fixture_graph)
        spelled.truncate(window)
        assert list(fused.iter_edges()) == list(spelled.iter_edges())
        assert fused.represents == TimeInterval(*window)
        fused.validate()
