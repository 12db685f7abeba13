"""Temporal k-core enumeration over every subinterval of a query window.

The schedule is triangular: rows anchor the start time ts ascending, and
within a row the end time te walks from the window's right edge down to ts,
so each cell's core is induced decrementally from an enclosing core that is
already in hand.  `run_tcd` visits every cell; `run_otcd` additionally skips
cells whose core is already known, driven by each induced core's tightest
time interval (TTI):

  PoR   the core's TTI ends early, so shrinking te down to that end
        changes nothing in the current row;
  PoU   the core's TTI starts late, so rows up to that start repeat the
        current row's results column for column;
  PoL   both, covering a block of later rows beyond the TTI's end;
  empty an empty core empties every subinterval inside it.

Both engines produce the same catalog of distinct nonempty cores keyed by
TTI, with visit/prune/decomposition counters for reporting.

One walker, `walk_schedule`, serves every engine, here and in `txcq`.  It
applies the empty-triangle rule itself for every pruning engine, and an
engine is its rule for a nonempty core: `apply_pruning` for OTCD,
`rectangle_prune` for OTCD*, none for TCD.  The walk runs over ranks, the
positions of the distinct timestamps inside the window, since a cell's core
depends only on which stamps it holds; so raw unix-second stamps cost what
their ranks cost, and `run_tcd`, which visits every rank cell, is still
exhaustive.  The prune table, rules and counters are in ranks.  Catalog
keys, captured cores and the cells the walk records stay in raw timestamps.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .graph import CoreSnapshot, TemporalGraph, TimeInterval, integer_query
from .tel import TEL

Cell = TimeInterval  # row = ts, column = te

PRUNE_RULES = ("PoR", "PoU", "PoL", "Rule4", "Empty")


class PruneTable:
    """Per-row bookkeeping of pruned columns as disjoint merged intervals.

    Adjacent runs are coalesced on insert, so the column immediately left
    of any stored run is guaranteed unpruned and `next_unpruned` needs a
    single lookup.
    """

    def __init__(self):
        self._rows: dict[int, list[TimeInterval]] = {}
        self.trigger_counts = {rule: 0 for rule in PRUNE_RULES}
        self.pruned_by_rule = {rule: 0 for rule in PRUNE_RULES}

    def mark(self, row: int, lo: int, hi: int) -> int:
        """Mark columns [lo, hi] of `row` pruned; returns how many were new."""
        if lo > hi:
            return 0
        runs = self._rows.setdefault(row, [])
        i = bisect_right(runs, lo, key=lambda run: run.ts)
        if i > 0 and runs[i - 1].te >= lo - 1:
            i -= 1
        j = i
        covered = 0
        new_lo, new_hi = lo, hi
        while j < len(runs) and runs[j].ts <= hi + 1:
            overlap = min(hi, runs[j].te) - max(lo, runs[j].ts) + 1
            if overlap > 0:
                covered += overlap
            new_lo = min(new_lo, runs[j].ts)
            new_hi = max(new_hi, runs[j].te)
            j += 1
        runs[i:j] = [TimeInterval(new_lo, new_hi)]
        return (hi - lo + 1) - covered

    def mark_rule(self, row: int, lo: int, hi: int, rule: str) -> int:
        new = self.mark(row, lo, hi)
        self.pruned_by_rule[rule] += new
        return new

    def next_unpruned(self, row: int, col: int) -> int:
        """Greatest column <= col not marked in `row` (may fall below row)."""
        runs = self._rows.get(row)
        if not runs:
            return col
        i = bisect_right(runs, col, key=lambda run: run.ts) - 1
        return runs[i].ts - 1 if i >= 0 and runs[i].te >= col else col


def apply_pruning(table: PruneTable, cell: Cell, tti: TimeInterval) -> None:
    """Mark the cells whose cores are fully determined by inducing `cell`'s
    core with tightest interval `tti`.  Rules fire independently."""
    ts, te = cell
    s, e = tti
    if e < te:
        table.trigger_counts["PoR"] += 1
        table.mark_rule(ts, e, te - 1, "PoR")
    if s > ts:
        table.trigger_counts["PoU"] += 1
        for row in range(ts + 1, s + 1):
            table.mark_rule(row, row, te, "PoU")
    if s > ts and e < te:
        table.trigger_counts["PoL"] += 1
        for row in range(s + 1, e + 1):
            table.mark_rule(row, e + 1, te, "PoL")


def rectangle_prune(table: PruneTable, cell: Cell, tti: TimeInterval) -> None:
    """Mark every other cell of the rectangle spanned by `cell` (loosest
    corner) and `tti` (tightest corner): all of them induce this same core."""
    ts, te = cell
    s, e = tti
    table.trigger_counts["Rule4"] += 1
    table.mark_rule(ts, e, te - 1, "Rule4")  # own row, excluding the cell itself
    for row in range(ts + 1, s + 1):
        table.mark_rule(row, e, te, "Rule4")


def empty_prune(table: PruneTable, cell: Cell) -> None:
    """An empty core at `cell` empties every subinterval inside it; mark the
    whole triangle.  The visited cell itself is marked but not counted."""
    ts, te = cell
    table.trigger_counts["Empty"] += 1
    for row in range(ts, te + 1):
        new = table.mark(row, row, te)
        if row == ts:
            new -= 1  # the trigger cell was visited, not pruned
        table.pruned_by_rule["Empty"] += new


@dataclass
class EngineStats:
    """Work counters of one walk.  Cells are rank cells, pairs of distinct
    timestamps inside the window, for every engine; they equal raw integer
    cells when every integer of the window holds a stamp."""

    algorithm: str
    cells_total: int = 0
    cells_visited: int = 0
    decompositions: int = 0
    trigger_counts: dict = field(default_factory=lambda: {r: 0 for r in PRUNE_RULES})
    pruned_by_rule: dict = field(default_factory=lambda: {r: 0 for r in PRUNE_RULES})
    distinct_cores: int = 0
    wall_ms: float = 0.0
    visit_trace: list = field(default_factory=list)  # visited cells of a run_otcd(debug=True) walk

    @property
    def cells_pruned(self) -> int:
        return sum(self.pruned_by_rule.values())

    def to_dict(self) -> dict:
        total = self.cells_total or 1
        return {
            "cells_total": self.cells_total,
            "cells_visited": self.cells_visited,
            "cells_pruned": self.cells_pruned,
            "trigger_counts": dict(self.trigger_counts),
            "pruned_pct_per_rule": {rule: 100.0 * n / total for rule, n in self.pruned_by_rule.items()},
            "decompositions": self.decompositions,
            "distinct_cores": self.distinct_cores,
        }


@dataclass
class CoreCatalog:
    """Distinct nonempty cores of a query, keyed by their TTI in ascending
    order, with the maximal loosest raw cells the walk visited of each,
    ascending (each starts later and ends earlier than the one before)."""

    cores: dict[TimeInterval, CoreSnapshot]
    stats: EngineStats
    visited: dict[TimeInterval, list[Cell]]


def clamp_window(g: TemporalGraph, window) -> TimeInterval | None:
    """Clip `window` to the graph's timestamp range; None when nothing is left."""
    if g.edge_count == 0:
        return None
    w = TimeInterval(*window)
    lo, hi = max(w.ts, g.min_t), min(w.te, g.max_t)
    return TimeInterval(lo, hi) if lo <= hi else None


def loosest_cell(stamps, w: TimeInterval, r: int, c: int) -> Cell:
    """The loosest raw cell of rank cell (r, c) of window `w`, whose stamps
    are `stamps`: it reaches from just past the previous stamp (or the
    window's start) to just before the next one (or the window's end), and
    every raw cell in it induces the same core."""
    return Cell(w.ts if r == 0 else stamps[r - 1] + 1, w.te if c == len(stamps) - 1 else stamps[c + 1] - 1)


def run_tcd(g: TemporalGraph, k: int, window) -> CoreCatalog:
    """Exhaustive decremental enumeration: every rank cell of the triangular
    schedule is visited and decomposed."""
    return walk_schedule(g, k, window, algorithm="tcd")


def run_otcd(g: TemporalGraph, k: int, window, *, debug: bool = False) -> CoreCatalog:
    """Optimized enumeration: identical catalog to `run_tcd`, but cells whose
    cores are implied by an already-induced core are skipped via the three
    TTI rules plus the empty-triangle rule."""
    return walk_schedule(g, k, window, algorithm="otcd", rules=apply_pruning, debug=debug)


def walk_schedule(
    g: TemporalGraph, k: int, window, *, algorithm: str, rules=None, debug: bool = False
) -> CoreCatalog:
    """The schedule walker of every engine.

    The walk runs over ranks: row r and column c stand for `times[r]` and
    `times[c]`, the distinct timestamps inside the clamped window, so a gap
    between two stamps costs nothing.  The prune table, the rules and the
    counters see rank cells and rank TTIs.  Everything else stays raw: the
    TEL is truncated to the raw stamps, the catalog is keyed by the raw TTI,
    and a visited cell is recorded under its core as its loosest raw cell
    (`loosest_cell`) when no cell recorded before contains it.  Rows go up
    and columns down, so that is when its end reaches past the core's last
    recorded cell, and each core's cells are its maximal ones, ascending.

    With `rules` the walk prunes: an empty core marks its triangle
    (`empty_prune`), and a nonempty core whose rank TTI is not the cell
    itself calls `rules(table, cell, tti)`, which marks cells of `table`
    for the walk to skip; without it every cell is visited.  `debug`
    records the visited cells (raw) and checks that cores sharing a TTI
    share their edges.  A k below 1, and a k or window end that is not an
    integer, are refused with `ValueError` before the walk (`integer_query`).
    """
    k, window = integer_query(k, window)
    started = time.perf_counter()
    stamps = g.timestamps
    times = stamps[bisect_left(stamps, window.ts) : bisect_right(stamps, window.te)]
    stats = EngineStats(algorithm=algorithm)
    if not times:  # outside the stamps or inside a gap: every core is empty
        return CoreCatalog({}, stats, {})
    w = clamp_window(g, window)
    last = len(times) - 1
    stats.cells_total = len(times) * (len(times) + 1) // 2
    cores: dict[TimeInterval, CoreSnapshot] = {}
    visited: dict[TimeInterval, list[Cell]] = {}
    table = PruneTable()
    row_head = TEL.from_graph(g, w)
    row_head.decompose(k)
    stats.decompositions += 1
    for r in range(last + 1):
        c = table.next_unpruned(r, last)
        if c < r:
            continue  # row fully pruned; the row head core stays stale but enclosing
        walker = None
        while c >= r:
            cell = Cell(r, c)
            span = (times[r], times[c])
            if walker is None and c == last:
                # serve the row head cell from the head itself; a walker
                # copy is only made if a second cell of the row survives
                if r:
                    row_head.tcd(k, span)
                    stats.decompositions += 1
                current = row_head
            else:
                if walker is None:
                    walker = row_head.clone()  # a k-core, so its tcd peels only from what it cuts
                walker.tcd(k, span)
                stats.decompositions += 1
                current = walker
            stats.cells_visited += 1
            raw_cell = loosest_cell(times, w, r, c)
            if debug:
                stats.visit_trace.append(raw_cell)
            if current.edge_count:
                raw_tti = current.tti()
                if raw_tti not in cores:
                    cores[raw_tti] = current.snapshot()
                elif debug and cores[raw_tti].edges != tuple(current.iter_edges()):
                    raise AssertionError(f"two distinct cores share the key {raw_tti}")
                cells = visited.setdefault(raw_tti, [])
                if not cells or raw_cell.te > cells[-1].te:
                    cells.append(raw_cell)
                if rules is not None:
                    tti = TimeInterval(bisect_left(times, raw_tti.ts), bisect_left(times, raw_tti.te))
                    if tti != cell:  # at its own TTI a core settles no other cell
                        rules(table, cell, tti)
            elif rules is not None:
                empty_prune(table, cell)
            c = table.next_unpruned(r, c - 1)
    stats.trigger_counts, stats.pruned_by_rule = table.trigger_counts, table.pruned_by_rule
    stats.distinct_cores = len(cores)
    stats.wall_ms = (time.perf_counter() - started) * 1000.0
    return CoreCatalog(dict(sorted(cores.items())), stats, visited)
