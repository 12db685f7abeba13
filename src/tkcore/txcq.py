"""Measured temporal k-core queries, answered in two phases.

Phase 1 locates "time zones": maximal families of subintervals that all
induce the same core.  A zone is fully described by its tightest time
interval (TTI) and its loosest time intervals (LTIs): its members are
exactly the union of rectangles spanned by each LTI (top-left corner) and
the TTI (bottom-right corner) in the triangular schedule.  `run_otcd_star`
finds every zone by visiting only LTI cells plus whatever empties it takes
to get there, pruning each discovered rectangle wholesale.

Phase 2 evaluates the measure only where its declared sensitivity requires:
once per zone for insensitive measures (`ti_ls`), at each zone's tightest
or loosest intervals for monotonic measures (`tmo_ls`), or along the
decision boundary of the qualifying region for monotonic threshold queries
(`tmc_ls`).  Measures with no usable structure fall back to `run_tcd_star`,
which evaluates every subinterval but reuses cores that the skip rules
prove identical, so decompositions are still saved.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .graph import ContractViolation, CoreSnapshot, TemporalGraph, TimeInterval
from .measures import EvalContext, MeasureDescriptor, compare, evaluate, satisfies
from .tcq import (
    Cell,
    EngineStats,
    clamp_window,
    rectangle_prune,
    _run_pruned,
)
from .tel import TEL

MODES = ("enumerate", "optimize", "constrain")


@dataclass(frozen=True)
class ZoneRecord:
    """One distinct core together with its zone geometry."""

    core: CoreSnapshot
    tti: TimeInterval
    ltis: tuple[TimeInterval, ...]  # descending te (equivalently descending ts)

    def rect_width(self, lti: TimeInterval) -> int:
        return lti.te - self.tti.te + 1

    def rect_height(self, lti: TimeInterval) -> int:
        return self.tti.ts - lti.ts + 1

    @property
    def max_rect_dims(self) -> tuple[int, int]:
        """(p, q): the widest and tallest rectangle extents in the zone."""
        return (
            max(self.rect_width(l) for l in self.ltis),
            max(self.rect_height(l) for l in self.ltis),
        )

    @property
    def sum_rect_dims(self) -> int:
        return sum(self.rect_width(l) + self.rect_height(l) for l in self.ltis)


def zone_contains(zone: ZoneRecord, window) -> bool:
    """True when `window` induces exactly this zone's core, i.e. it falls in
    one of the zone's LTI/TTI rectangles."""
    w = TimeInterval(*window)
    s, e = zone.tti
    return any(l.ts <= w.ts <= s and e <= w.te <= l.te for l in zone.ltis)


def zone_member_intervals(zone: ZoneRecord) -> list[TimeInterval]:
    """Every member subinterval of the zone, ascending."""
    out = set()
    s, e = zone.tti
    for l in zone.ltis:
        for ts in range(l.ts, s + 1):
            for te in range(e, l.te + 1):
                out.add(TimeInterval(ts, te))
    return sorted(out)


def _is_finite(x) -> bool:
    try:
        return math.isfinite(x)
    except (OverflowError, TypeError):  # beyond float range, or not a real number
        return True


@dataclass(frozen=True)
class QuerySpec:
    k: int
    window: TimeInterval
    measure: MeasureDescriptor | None = None
    mode: str = "enumerate"
    sigma: object = None

    def __post_init__(self):
        object.__setattr__(self, "window", TimeInterval(*self.window))
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.mode != "enumerate" and self.measure is None:
            raise ValueError(f"mode {self.mode!r} needs a measure")
        if self.mode == "constrain" and self.sigma is None:
            raise ValueError("constrain mode needs a threshold")
        if self.sigma is not None and not _is_finite(self.sigma):
            raise ValueError(f"threshold must be finite, got {self.sigma!r}")


@dataclass(frozen=True)
class ResultEntry:
    zone: ZoneRecord
    qualifying: tuple[TimeInterval, ...] | None
    x_value: object


@dataclass
class QueryStats:
    algorithm: str
    phase1_ms: float = 0.0
    phase2_ms: float = 0.0
    cells_visited: int = 0
    x_evaluations: int = 0
    prune_counters: dict = field(default_factory=dict)
    zone_eval_counts: dict = field(default_factory=dict)
    exhaustive: bool = False


@dataclass(frozen=True)
class QueryResult:
    entries: tuple[ResultEntry, ...]
    stats: QueryStats

    def zones(self) -> list[ZoneRecord]:
        return [e.zone for e in self.entries]


def canonical_result(result: QueryResult, mode: str):
    """Mode-appropriate comparison key.

    Enumerate compares full zone geometry; constrain compares the exact
    qualifying interval set; optimize compares the winning cores (by TTI)
    plus the optimal value, since different strategies may report different
    witness intervals for the same tied optimum.
    """
    if mode == "enumerate":
        return tuple(
            sorted(
                (e.zone.tti, e.zone.core.vertices, e.zone.core.edges, e.zone.ltis)
                for e in result.entries
            )
        )
    if mode == "optimize":
        if not result.entries:
            return (frozenset(), None)
        return (
            frozenset(e.zone.tti for e in result.entries),
            result.entries[0].x_value,
        )
    if mode == "constrain":
        out = set()
        for e in result.entries:
            out.update(e.qualifying or ())
        return frozenset(out)
    raise ValueError(f"unknown mode: {mode!r}")


# -- phase 1: zone location ------------------------------------------------


def _otcd_star_impl(g: TemporalGraph, k: int, window):
    visited: dict[TimeInterval, list[Cell]] = defaultdict(list)  # TTI -> its LTI cells

    def on_nonempty(table, cell, tti, walker):
        visited[tti].append(cell)
        if tti != cell:
            rectangle_prune(table, cell, tti)

    catalog = _run_pruned(g, k, window, algorithm="otcd-star", on_nonempty=on_nonempty)
    zones = []
    for tti in sorted(visited):
        ltis = tuple(reversed(visited[tti]))  # visited ascending ts, so this is descending te
        for l in ltis:
            if not l.contains(tti):
                raise AssertionError(f"visited cell {l} does not contain its core's span {tti}")
        zones.append(ZoneRecord(core=catalog.cores[tti], tti=tti, ltis=ltis))
    return zones, catalog.stats


def run_otcd_star(g: TemporalGraph, k: int, window) -> list[ZoneRecord]:
    """Locate every zone of the query window: one record per distinct
    nonempty core, with the complete LTI list."""
    zones, _ = _otcd_star_impl(g, k, window)
    return zones


# -- phase 2: local searches ------------------------------------------------


def _thread_count() -> int:
    raw = os.environ.get("TXC_THREADS", "").strip()
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def _map_zones(fn, zones):
    """Apply fn to each zone, optionally on a thread pool; order preserved."""
    n = _thread_count()
    if n <= 1 or len(zones) <= 1:
        return [fn(z) for z in zones]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, zones))


def ti_ls(zones, spec: QuerySpec, ctx: EvalContext) -> QueryResult:
    """Time-insensitive search: one evaluation per zone, at the TTI."""
    measure = spec.measure
    if measure.sensitivity != "insensitive":
        raise ContractViolation("ti_ls requires a time-insensitive measure")
    started = time.perf_counter()
    stats = QueryStats(algorithm="otcd-star")

    def job(zone):
        return evaluate(measure, zone.core, zone.tti, ctx.with_zone(zone))

    values = _map_zones(job, zones)
    stats.x_evaluations = len(values)
    entries = []
    if spec.mode == "optimize":
        best = None
        for val in values:
            if best is None or compare(measure, val, best) == "better":
                best = val
        for zone, val in zip(zones, values):
            if val == best:
                entries.append(
                    ResultEntry(zone, tuple(zone_member_intervals(zone)), val)
                )
    elif spec.mode == "constrain":
        for zone, val in zip(zones, values):
            if satisfies(measure, val, spec.sigma):
                entries.append(
                    ResultEntry(zone, tuple(zone_member_intervals(zone)), val)
                )
    else:
        raise ContractViolation("ti_ls answers optimize or constrain queries")
    entries.sort(key=lambda e: e.zone.tti)
    stats.phase2_ms = (time.perf_counter() - started) * 1000.0
    return QueryResult(tuple(entries), stats)


def tmo_ls(zones, spec: QuerySpec, ctx: EvalContext) -> QueryResult:
    """Monotonic optimization: the optimum over a zone sits at its TTI when
    the measure improves on shrinking, or at one of its LTIs when it
    improves on expanding, so only those cells are evaluated."""
    measure = spec.measure
    if measure.sensitivity != "monotonic":
        raise ContractViolation("tmo_ls requires a monotonic measure")
    if spec.mode != "optimize":
        raise ContractViolation("tmo_ls answers optimize queries")
    started = time.perf_counter()
    stats = QueryStats(algorithm="otcd-star")

    def job(zone):
        zctx = ctx.with_zone(zone)
        cells = [zone.tti] if measure.improves_on == "shrink" else list(zone.ltis)
        return [(cell, evaluate(measure, zone.core, cell, zctx)) for cell in cells]

    per_zone = _map_zones(job, zones)
    stats.x_evaluations = sum(len(cells) for cells in per_zone)
    best = None
    for cells in per_zone:
        for _, val in cells:
            if best is None or compare(measure, val, best) == "better":
                best = val
    entries = []
    for zone, cells in zip(zones, per_zone):
        winning = tuple(sorted(cell for cell, val in cells if val == best))
        if winning:
            entries.append(ResultEntry(zone, winning, best))
    entries.sort(key=lambda e: e.zone.tti)
    stats.phase2_ms = (time.perf_counter() - started) * 1000.0
    return QueryResult(tuple(entries), stats)


def _tmc_walk(zone: ZoneRecord, measure, sigma, ctx: EvalContext):
    """Walk the decision boundary of the qualifying region inside one zone.

    Qualification is monotone along both axes inside a zone, so a single
    staircase walk settles every member: each success settles the rest of
    its column by inference, each failure settles the opposite side, and
    out-of-zone positions jump to the next rectangle.  Returns the
    qualifying intervals and how many evaluations the walk spent.
    """
    s, e = zone.tti
    out: list[TimeInterval] = []
    evals = 0
    if measure.improves_on == "expand":
        te_order = [l.te for l in zone.ltis]  # descending
        min_ts = min(l.ts for l in zone.ltis)
        ts2, te2 = s, te_order[0]
        while ts2 >= min_ts and te2 >= e:
            if not zone_contains(zone, (ts2, te2)):
                nxt = next((t for t in te_order if t < te2), None)
                if nxt is None:
                    break
                te2 = nxt
                continue
            val = evaluate(measure, zone.core, TimeInterval(ts2, te2), ctx)
            evals += 1
            if satisfies(measure, val, sigma):
                row = ts2  # everything above in this column only expands further
                while row >= min_ts and zone_contains(zone, (row, te2)):
                    out.append(TimeInterval(row, te2))
                    row -= 1
                te2 -= 1
            else:
                ts2 -= 1
    else:  # improves on shrink: mirrored walk
        ts_order = sorted(l.ts for l in zone.ltis)  # ascending
        max_te = max(l.te for l in zone.ltis)
        ts2, te2 = ts_order[0], e
        while ts2 <= s and te2 <= max_te:
            if not zone_contains(zone, (ts2, te2)):
                nxt = next((t for t in ts_order if t > ts2), None)
                if nxt is None:
                    break
                ts2 = nxt
                continue
            val = evaluate(measure, zone.core, TimeInterval(ts2, te2), ctx)
            evals += 1
            if satisfies(measure, val, sigma):
                row = ts2  # everything below in this column only shrinks further
                while row <= s and zone_contains(zone, (row, te2)):
                    out.append(TimeInterval(row, te2))
                    row += 1
                te2 += 1
            else:
                ts2 += 1
    return sorted(out), evals


def tmc_ls(zone: ZoneRecord, spec: QuerySpec, ctx: EvalContext) -> list[TimeInterval]:
    """Monotonic threshold search within one zone: every member interval
    whose value satisfies the threshold, found by the boundary walk."""
    measure = spec.measure
    if measure is None or measure.sensitivity != "monotonic":
        raise ContractViolation("tmc_ls requires a monotonic measure")
    if spec.mode != "constrain":
        raise ContractViolation("tmc_ls answers constrain queries")
    intervals, _ = _tmc_walk(zone, measure, spec.sigma, ctx.with_zone(zone))
    return intervals


# -- dispatch ---------------------------------------------------------------


def run_txcq(g: TemporalGraph, spec: QuerySpec) -> QueryResult:
    """Answer a measured temporal k-core query with the cheapest strategy
    the measure's declared sensitivity allows."""
    measure = spec.measure
    if spec.mode != "enumerate" and measure.sensitivity == "nonmonotonic":
        return run_tcd_star(g, spec)

    zones, phase1 = _otcd_star_impl(g, spec.k, spec.window)
    base_stats = QueryStats(
        algorithm="otcd-star",
        phase1_ms=phase1.wall_ms,
        cells_visited=phase1.cells_visited,
        prune_counters=phase1.to_dict(),
    )
    if spec.mode == "enumerate":
        entries = tuple(ResultEntry(z, None, None) for z in zones)
        return QueryResult(entries, base_stats)

    ctx = EvalContext(graph=g, all_zones=tuple(zones), params=dict(measure.params))
    started = time.perf_counter()
    if measure.sensitivity == "insensitive":
        partial = ti_ls(zones, spec, ctx)
    elif spec.mode == "optimize":
        partial = tmo_ls(zones, spec, ctx)
    else:  # monotonic constrain: boundary walk per zone

        def job(zone):
            return _tmc_walk(zone, measure, spec.sigma, ctx.with_zone(zone))

        walks = _map_zones(job, zones)
        entries = []
        stats = QueryStats(algorithm="otcd-star")
        for zone, (intervals, evals) in zip(zones, walks):
            stats.x_evaluations += evals
            stats.zone_eval_counts[zone.tti] = evals
            if intervals:
                entries.append(ResultEntry(zone, tuple(intervals), None))
        entries.sort(key=lambda e: e.zone.tti)
        partial = QueryResult(tuple(entries), stats)
    base_stats.phase2_ms = (time.perf_counter() - started) * 1000.0
    base_stats.x_evaluations = partial.stats.x_evaluations
    base_stats.zone_eval_counts = partial.stats.zone_eval_counts
    return QueryResult(partial.entries, base_stats)


# -- exhaustive fallback -----------------------------------------------------


def run_tcd_star(g: TemporalGraph, spec: QuerySpec) -> QueryResult:
    """Evaluate the measure on every subinterval.  Cores are still induced
    decrementally, and a decomposition is skipped whenever an earlier
    induction already proves the cell's core: a core whose span ends early
    repeats across the rest of its row, and a core whose span starts late
    repeats column-by-column across the rows up to that start.  Exact for
    any measure, including nonmonotonic ones."""
    if spec.measure is None:
        raise ContractViolation("run_tcd_star needs a measure; use run_otcd_star to enumerate")
    started = time.perf_counter()
    stats = QueryStats(algorithm="tcd-star", exhaustive=True)
    w = clamp_window(g, spec.window)
    if w is None:
        return QueryResult((), stats)
    engine = EngineStats(algorithm="tcd-star")
    m = w.duration
    engine.cells_total = m * (m + 1) // 2

    key_of: dict[Cell, TimeInterval | None] = {}
    snaps: dict[TimeInterval, CoreSnapshot] = {}
    members: dict[TimeInterval, list[Cell]] = defaultdict(list)
    copy_sources: dict[int, dict[int, int]] = defaultdict(dict)  # row -> src row -> max col
    empty_corners: list[Cell] = []

    def predicted_empty(ts, te):
        return any(a <= ts and te <= b for a, b in empty_corners)

    row_head = TEL.from_graph(g, w)
    row_head.decompose(spec.k)
    engine.decompositions += 1
    for ts in range(w.ts, w.te + 1):
        if predicted_empty(ts, w.te):
            break  # every remaining subinterval sits inside an empty one
        head_decomposed = True
        if ts > w.ts:
            sources = copy_sources.get(ts, {})
            if any(hi >= w.te for hi in sources.values()):
                row_head.truncate((ts, w.te))
                head_decomposed = False
            else:
                row_head.tcd(spec.k, (ts, w.te))
                engine.decompositions += 1
        walker = row_head.clone()
        active: tuple[int, TimeInterval] | None = None  # (low col, key) within this row
        for te in range(w.te, ts - 1, -1):
            cell = Cell(ts, te)
            engine.cells_visited += 1
            if active and te < active[0]:
                active = None
            key: TimeInterval | None
            if te == w.te and head_decomposed:
                key = row_head.tti()
                if key is not None and key not in snaps:
                    snaps[key] = row_head.snapshot()
            elif predicted_empty(ts, te):
                key = None
                walker.truncate(cell)
            elif active and te >= active[0]:
                key = active[1]
                walker.truncate(cell)
            else:
                src = next(
                    (r for r, hi in copy_sources.get(ts, {}).items() if hi >= te), None
                )
                if src is not None and ts > w.ts:
                    key = key_of[Cell(src, te)]
                    walker.truncate(cell)
                else:
                    walker.tcd(spec.k, cell)
                    engine.decompositions += 1
                    key = walker.tti()
                    if key is not None and key not in snaps:
                        snaps[key] = walker.snapshot()
            key_of[cell] = key
            if key is None:
                if not empty_corners or not predicted_empty(ts, te):
                    empty_corners.append(cell)
            else:
                members[key].append(cell)
                if key.te < te:
                    active = (key.te, key)
                if key.ts > ts:
                    for row in range(ts + 1, key.ts + 1):
                        prev = copy_sources[row].get(ts, -1)
                        if te > prev:
                            copy_sources[row][ts] = te
    engine.nonempty_inductions = sum(len(v) for v in members.values())
    engine.distinct_cores = len(snaps)
    stats.phase1_ms = (time.perf_counter() - started) * 1000.0
    stats.cells_visited = engine.cells_visited
    stats.prune_counters = engine.to_dict()

    zone_by_tti: dict[TimeInterval, ZoneRecord] = {}
    for tti in sorted(members):
        mems = members[tti]
        maximal = [c for c in mems if not any(o != c and o.contains(c) for o in mems)]
        zone_by_tti[tti] = ZoneRecord(
            core=snaps[tti],
            tti=tti,
            ltis=tuple(sorted(maximal, key=lambda iv: iv.te, reverse=True)),
        )
    zones = tuple(zone_by_tti[t] for t in sorted(zone_by_tti))

    phase2_start = time.perf_counter()
    measure = spec.measure
    base_ctx = EvalContext(graph=g, all_zones=zones, params=dict(measure.params))
    values: dict[Cell, object] = {}
    owner: dict[Cell, TimeInterval] = {}
    for tti, mems in members.items():
        zctx = base_ctx.with_zone(zone_by_tti[tti])
        for cell in mems:
            values[cell] = evaluate(measure, snaps[tti], cell, zctx)
            owner[cell] = tti
            stats.x_evaluations += 1

    def grouped(cells, value_for):
        by_zone: dict[TimeInterval, list[Cell]] = defaultdict(list)
        for c in cells:
            by_zone[owner[c]].append(c)
        entries = []
        for tti in sorted(by_zone):
            ivs = tuple(sorted(by_zone[tti]))
            entries.append(ResultEntry(zone_by_tti[tti], ivs, value_for(ivs)))
        return tuple(entries)

    if spec.mode == "optimize":
        entries: tuple = ()
        if values:
            best = None
            for val in values.values():
                if best is None or compare(measure, val, best) == "better":
                    best = val
            winners = [c for c, val in values.items() if val == best]
            entries = grouped(winners, lambda ivs: best)
    elif spec.mode == "constrain":
        qualifying = [c for c, val in values.items() if satisfies(measure, val, spec.sigma)]
        entries = grouped(qualifying, lambda ivs: None)
    else:
        raise ContractViolation("run_tcd_star answers optimize or constrain queries")
    stats.phase2_ms = (time.perf_counter() - phase2_start) * 1000.0
    return QueryResult(entries, stats)
