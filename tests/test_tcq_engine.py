"""Schedule enumeration: the exhaustive walker, the prune table, the rules."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tkcore import PruneTable, TimeInterval, brute_force_tcq, run_otcd, run_tcd
from tkcore.tcq import Cell, apply_pruning, empty_prune, rectangle_prune

from conftest import random_instance

W18 = TimeInterval(1, 8)


def pruned_cells(table, window=W18):
    return [
        (row, col)
        for row in range(window.ts, window.te + 1)
        for col in range(row, window.te + 1)
        if table.next_unpruned(row, col) != col
    ]


# -- prune table bookkeeping --------------------------------------------


def test_mark_reports_only_new_cells():
    t = PruneTable()
    assert t.mark(2, 3, 5) == 3
    assert t.mark(2, 4, 7) == 2  # 4..5 already covered
    assert t.mark(2, 3, 7) == 0
    assert t.mark(2, 9, 8) == 0  # inverted span is a no-op


def test_adjacent_runs_coalesce():
    t = PruneTable()
    t.mark(1, 2, 3)
    t.mark(1, 6, 7)
    t.mark(1, 4, 5)  # bridges the gap
    assert t._rows[1] == [TimeInterval(2, 7)]
    assert t.next_unpruned(1, 7) == 1


def test_next_unpruned_skips_whole_runs():
    t = PruneTable()
    t.mark(3, 4, 6)
    assert t.next_unpruned(3, 8) == 8
    assert t.next_unpruned(3, 6) == 3
    assert t.next_unpruned(3, 3) == 3
    t.mark(3, 3, 3)
    assert t.next_unpruned(3, 6) == 2  # falls below the row start


def test_rule_attribution_counts_new_cells_only():
    t = PruneTable()
    t.mark_rule(5, 5, 8, "PoR")
    t.mark_rule(5, 6, 8, "PoU")
    assert t.pruned_by_rule["PoR"] == 4
    assert t.pruned_by_rule["PoU"] == 0
    assert sum(t.pruned_by_rule.values()) == 4


# -- rule geometry, frozen from the definitions --------------------------


def test_right_rule_prunes_rest_of_row_after_the_core_span_end():
    t = PruneTable()
    apply_pruning(t, Cell(3, 8), TimeInterval(3, 6))
    assert pruned_cells(t) == [(3, 6), (3, 7)]
    assert t.trigger_counts == {"PoR": 1, "PoU": 0, "PoL": 0, "Rule4": 0, "Empty": 0}


def test_underside_rule_prunes_rows_up_to_the_core_span_start():
    t = PruneTable()
    apply_pruning(t, Cell(1, 6), TimeInterval(3, 6))
    assert pruned_cells(t) == [
        (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
        (3, 3), (3, 4), (3, 5), (3, 6),
    ]
    assert t.pruned_by_rule["PoU"] == 9


def test_all_three_rules_fire_from_one_loose_cell():
    t = PruneTable()
    apply_pruning(t, Cell(1, 8), TimeInterval(3, 6))
    assert pruned_cells(t) == [
        (1, 6), (1, 7),
        (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
        (3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
        (4, 7), (4, 8), (5, 7), (5, 8), (6, 7), (6, 8),
    ]
    assert t.pruned_by_rule == {"PoR": 2, "PoU": 13, "PoL": 6, "Rule4": 0, "Empty": 0}


def test_rectangle_rule_prunes_the_span_between_cell_and_core():
    t = PruneTable()
    rectangle_prune(t, Cell(1, 8), TimeInterval(3, 6))
    assert pruned_cells(t) == [
        (1, 6), (1, 7),
        (2, 6), (2, 7), (2, 8),
        (3, 6), (3, 7), (3, 8),
    ]
    assert t.pruned_by_rule["Rule4"] == 8
    assert t.next_unpruned(1, 8) == 8  # the visited cell itself stays


def test_empty_rule_prunes_the_whole_triangle_under_the_cell():
    t = PruneTable()
    empty_prune(t, Cell(4, 8))
    assert len(pruned_cells(t)) == 15  # includes the trigger cell
    assert t.pruned_by_rule["Empty"] == 14  # the trigger itself is not counted


# -- engines on the worked example ---------------------------------------


def test_exhaustive_walk_on_the_worked_example(g0):
    cat = run_tcd(g0, 2, (1, 5))
    assert cat.stats.cells_total == 15
    assert cat.stats.cells_visited == 15
    assert cat.stats.decompositions == 15
    assert cat.stats.distinct_cores == 3
    assert list(cat.cores) == [TimeInterval(1, 3), TimeInterval(1, 5), TimeInterval(2, 5)]
    assert sorted(g0.label_of(v) for v in cat.cores[TimeInterval(1, 3)].vertices) == ["a", "b", "c"]


def test_pruned_walk_visits_exactly_the_undetermined_cells(g0):
    cat = run_otcd(g0, 2, (1, 5), debug=True)
    assert cat.stats.visit_trace == [
        TimeInterval(1, 5),
        TimeInterval(1, 4),
        TimeInterval(1, 2),
        TimeInterval(2, 5),
        TimeInterval(2, 4),
        TimeInterval(3, 5),
    ]
    assert cat.stats.cells_visited == 6
    assert cat.stats.cells_pruned == 9
    assert cat.stats.cells_visited + cat.stats.cells_pruned == cat.stats.cells_total
    assert cat.stats.decompositions == 6
    assert cat.stats.trigger_counts == {"PoR": 1, "PoU": 0, "PoL": 0, "Rule4": 0, "Empty": 3}
    assert cat.stats.pruned_by_rule == {"PoR": 1, "PoU": 0, "PoL": 0, "Rule4": 0, "Empty": 8}


def test_both_engines_agree_on_the_worked_example(g0):
    a = run_tcd(g0, 2, (1, 5))
    b = run_otcd(g0, 2, (1, 5))
    assert a.cores == b.cores


def test_empty_window_and_empty_graph(g0):
    assert len(run_tcd(g0, 2, (9, 12)).cores) == 0
    assert len(run_otcd(g0, 2, (9, 12)).cores) == 0
    assert run_otcd(g0, 6, (1, 5)).stats.distinct_cores == 0


def test_catalog_container_protocol(g0):
    cat = run_otcd(g0, 2, (1, 5))
    assert len(cat.cores) == 3
    assert TimeInterval(1, 3) in cat.cores
    assert TimeInterval(2, 4) not in cat.cores
    assert cat.cores[TimeInterval(1, 5)].edge_count == 4


def test_prune_accounting_balances_on_random_instances():
    rng = random.Random(5150)
    for trial in range(25):
        g = random_instance(rng, 9000 + trial)
        cat = run_otcd(g, rng.choice((2, 3)), (1, 14))
        s = cat.stats
        assert s.cells_visited + s.cells_pruned == s.cells_total
        assert s.decompositions <= s.cells_visited + 1  # +1 for the window prefilter


@given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_pruned_walk_never_changes_the_catalog(seed, k):
    rng = random.Random(seed)
    g = random_instance(rng, seed)
    window = (1, 14)
    exhaustive = run_tcd(g, k, window)
    pruned = run_otcd(g, k, window, debug=True)
    oracle = brute_force_tcq(g, k, window)
    assert exhaustive.cores == pruned.cores
    assert list(pruned.cores) == [c.tti for c in oracle.classes]
    for cls in oracle.classes:
        snap = pruned.cores[cls.tti]
        assert snap.vertices == cls.core.vertices
        assert snap.edge_count == cls.core.edge_count  # read from the TEL
        assert snap.edges == cls.core.edges
