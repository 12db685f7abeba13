"""The brute-force reference implementations."""

import pytest

from tkcore import (
    MAX_ORACLE_EDGES,
    MAX_ORACLE_SPAN,
    TemporalGraph,
    TimeInterval,
    brute_force_tcq,
    reference_core,
)


def test_reference_core_on_the_worked_example(g0):
    snap = reference_core(g0, 2, (1, 5))
    assert sorted(g0.label_of(v) for v in snap.vertices) == ["a", "b", "c"]
    assert [tuple(e) for e in snap.edges] == [(0, 1, 1), (1, 2, 2), (0, 2, 3), (0, 1, 5)]
    assert snap.tti == TimeInterval(1, 5)
    assert snap.k == 2


def test_reference_core_empty_result(g0):
    snap = reference_core(g0, 3, (1, 5))
    assert snap.is_empty
    assert snap.tti is None
    assert reference_core(g0, 2, (4, 4)).is_empty


def test_reference_core_rejects_bad_k(g0):
    # a k below 1 is refused whether or not the window holds a stamp
    for k, window in [(0, (1, 5)), (-1, (1, 5)), (0, (8, 9)), (-1, (8, 9))]:
        for run in (reference_core, brute_force_tcq):
            with pytest.raises(ValueError, match="at least 1"):
                run(g0, k, window)
    for k, window in [(2.5, (1, 5)), (2, (1.5, 5)), (2, (1, 5.0))]:
        with pytest.raises(ValueError, match="must be integers"):
            brute_force_tcq(g0, k, window)


def test_catalog_lists_all_three_classes(g0):
    cat = brute_force_tcq(g0, 2, (1, 5))
    got = [
        (tuple(c.tti), [tuple(l) for l in c.ltis], [tuple(m) for m in c.members])
        for c in cat.classes
    ]
    assert got == [
        ((1, 3), [(1, 4)], [(1, 3), (1, 4)]),
        ((1, 5), [(1, 5)], [(1, 5)]),
        ((2, 5), [(2, 5)], [(2, 5)]),
    ]
    assert sum(len(c.ltis) for c in cat.classes) == 3
    assert [c.tti for c in cat.classes] == [TimeInterval(1, 3), TimeInterval(1, 5), TimeInterval(2, 5)]


def test_class_cores_differ_by_parallel_edge_content(g0):
    cat = brute_force_tcq(g0, 2, (1, 5))
    by_tti = {c.tti: c for c in cat.classes}
    short = by_tti[TimeInterval(1, 3)].core
    tall = by_tti[TimeInterval(1, 5)].core
    assert short.vertices == tall.vertices
    assert short.edges != tall.edges  # same triangle, different edge multiset
    assert short != tall


def test_class_lookup_by_member(g0):
    cat = brute_force_tcq(g0, 2, (1, 5))

    def owner(window):
        return [c.tti for c in cat.classes if TimeInterval(*window) in c.members]

    assert owner((1, 4)) == [TimeInterval(1, 3)]
    assert owner((2, 5)) == [TimeInterval(2, 5)]
    assert owner((3, 4)) == []  # empty core there
    assert owner((2, 4)) == []


def test_every_member_is_covered_exactly_once(g0):
    cat = brute_force_tcq(g0, 2, (1, 5))
    seen = {}
    for c in cat.classes:
        for m in c.members:
            assert m not in seen, "member interval claimed by two classes"
            seen[m] = c.tti
    assert len(seen) == 4


def test_window_is_clamped_to_graph_range(g0):
    wide = brute_force_tcq(g0, 2, (-10, 99))
    tight = brute_force_tcq(g0, 2, (1, 5))
    assert wide.window == TimeInterval(1, 5)
    assert [c.tti for c in wide.classes] == [c.tti for c in tight.classes]
    assert brute_force_tcq(g0, 2, (7, 9)).classes == ()


def test_empty_graph_yields_empty_catalog():
    g = TemporalGraph.from_edges(2, [])
    cat = brute_force_tcq(g, 2, (1, 5))
    assert cat.window is None
    assert cat.classes == ()


def test_size_caps_are_published():
    assert MAX_ORACLE_SPAN == 40
    assert MAX_ORACLE_EDGES == 2000
