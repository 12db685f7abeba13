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
which runs the exhaustive TCD walk and evaluates every subinterval.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

from .graph import ContractViolation, CoreSnapshot, TemporalGraph, TimeInterval
from .measures import EvalContext, MeasureDescriptor, compare, evaluate, satisfies
from .tcq import Cell, _run_pruned, rectangle_prune, run_tcd

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

    def on_nonempty(table, cell, tti, raw_cell, raw_tti):
        visited[raw_tti].append(raw_cell)
        if tti != cell:  # both in ranks
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


def _best(measure: MeasureDescriptor, values):
    """The best of `values` under the measure's orientation; None when empty."""
    best = None
    for val in values:
        if best is None or compare(measure, val, best) == "better":
            best = val
    return best


def ti_ls(zones, spec: QuerySpec, ctx: EvalContext, stats: QueryStats) -> list[ResultEntry]:
    """Time-insensitive search: one evaluation per zone, at the TTI."""
    measure = spec.measure
    values = []
    for zone in zones:
        values.append(evaluate(measure, zone.core, zone.tti, ctx.with_zone(zone)))
        stats.zone_eval_counts[zone.tti] = 1
    stats.x_evaluations += len(values)
    if spec.mode == "optimize":
        best = _best(measure, values)
        keep = [val == best for val in values]
    else:
        keep = [satisfies(measure, val, spec.sigma) for val in values]
    return [
        ResultEntry(zone, tuple(zone_member_intervals(zone)), val)
        for zone, val, kept in zip(zones, values, keep)
        if kept
    ]


def tmo_ls(zones, spec: QuerySpec, ctx: EvalContext, stats: QueryStats) -> list[ResultEntry]:
    """Monotonic optimization: the optimum over a zone sits at its TTI when
    the measure improves on shrinking, or at one of its LTIs when it
    improves on expanding, so only those cells are evaluated."""
    measure = spec.measure
    per_zone = []
    for zone in zones:
        zctx = ctx.with_zone(zone)
        cells = [zone.tti] if measure.improves_on == "shrink" else list(zone.ltis)
        per_zone.append([(cell, evaluate(measure, zone.core, cell, zctx)) for cell in cells])
        stats.zone_eval_counts[zone.tti] = len(cells)
        stats.x_evaluations += len(cells)
    best = _best(measure, (val for cells in per_zone for _, val in cells))
    entries = []
    for zone, cells in zip(zones, per_zone):
        winning = tuple(sorted(cell for cell, val in cells if val == best))
        if winning:
            entries.append(ResultEntry(zone, winning, best))
    return entries


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


def tmc_ls(zones, spec: QuerySpec, ctx: EvalContext, stats: QueryStats) -> list[ResultEntry]:
    """Monotonic threshold search: every member interval whose value
    satisfies the threshold, found zone by zone by the boundary walk."""
    entries = []
    for zone in zones:
        intervals, evals = _tmc_walk(zone, spec.measure, spec.sigma, ctx.with_zone(zone))
        stats.x_evaluations += evals
        stats.zone_eval_counts[zone.tti] = evals
        if intervals:
            entries.append(ResultEntry(zone, tuple(intervals), None))
    return entries


# -- dispatch ---------------------------------------------------------------


def run_txcq(g: TemporalGraph, spec: QuerySpec) -> QueryResult:
    """Answer a measured temporal k-core query with the cheapest strategy
    the measure's declared sensitivity allows."""
    measure = spec.measure
    if spec.mode != "enumerate" and measure.sensitivity == "nonmonotonic":
        return run_tcd_star(g, spec)

    zones, phase1 = _otcd_star_impl(g, spec.k, spec.window)
    stats = QueryStats(
        algorithm="otcd-star",
        phase1_ms=phase1.wall_ms,
        cells_visited=phase1.cells_visited,
        prune_counters=phase1.to_dict(),
    )
    if spec.mode == "enumerate":
        entries = tuple(ResultEntry(z, None, None) for z in zones)
        return QueryResult(entries, stats)

    ctx = EvalContext(graph=g, all_zones=tuple(zones), params=dict(measure.params))
    started = time.perf_counter()
    if measure.sensitivity == "insensitive":
        search = ti_ls
    elif spec.mode == "optimize":
        search = tmo_ls
    else:
        search = tmc_ls
    entries = search(zones, spec, ctx, stats)
    entries.sort(key=lambda e: e.zone.tti)
    stats.phase2_ms = (time.perf_counter() - started) * 1000.0
    return QueryResult(tuple(entries), stats)


# -- exhaustive fallback -----------------------------------------------------


def run_tcd_star(g: TemporalGraph, spec: QuerySpec) -> QueryResult:
    """Evaluate the measure on every subinterval.  The exhaustive TCD walk
    decomposes every cell; the cells sharing a core become one zone, whose
    LTIs are its maximal members.  Exact for any measure, including
    nonmonotonic ones."""
    if spec.measure is None:
        raise ContractViolation("run_tcd_star needs a measure; use run_otcd_star to enumerate")
    members: dict[TimeInterval, list[Cell]] = defaultdict(list)

    def on_visit(cell, tti):
        if tti is not None:
            members[tti].append(cell)

    catalog = run_tcd(g, spec.k, spec.window, on_visit=on_visit)
    stats = QueryStats(
        algorithm="tcd-star",
        phase1_ms=catalog.stats.wall_ms,
        cells_visited=catalog.stats.cells_visited,
        prune_counters=catalog.stats.to_dict(),
        exhaustive=True,
    )

    zone_by_tti: dict[TimeInterval, ZoneRecord] = {}
    for tti in sorted(members):
        mems = members[tti]
        maximal = [c for c in mems if not any(o != c and o.contains(c) for o in mems)]
        zone_by_tti[tti] = ZoneRecord(
            core=catalog.cores[tti],
            tti=tti,
            ltis=tuple(sorted(maximal, key=lambda iv: iv.te, reverse=True)),
        )
    zones = tuple(zone_by_tti.values())

    phase2_start = time.perf_counter()
    measure = spec.measure
    base_ctx = EvalContext(graph=g, all_zones=zones, params=dict(measure.params))
    values: dict[Cell, object] = {}
    owner: dict[Cell, TimeInterval] = {}
    for tti, mems in members.items():
        zctx = base_ctx.with_zone(zone_by_tti[tti])
        for cell in mems:
            values[cell] = evaluate(measure, catalog.cores[tti], cell, zctx)
            owner[cell] = tti
            stats.x_evaluations += 1

    def grouped(cells, value):
        by_zone: dict[TimeInterval, list[Cell]] = defaultdict(list)
        for c in cells:
            by_zone[owner[c]].append(c)
        return tuple(
            ResultEntry(zone_by_tti[tti], tuple(sorted(by_zone[tti])), value)
            for tti in sorted(by_zone)
        )

    if spec.mode == "optimize":
        best = _best(measure, values.values())
        entries = grouped([c for c, val in values.items() if val == best], best)
    elif spec.mode == "constrain":
        entries = grouped([c for c, val in values.items() if satisfies(measure, val, spec.sigma)], None)
    else:
        raise ContractViolation("run_tcd_star answers optimize or constrain queries")
    stats.phase2_ms = (time.perf_counter() - phase2_start) * 1000.0
    return QueryResult(entries, stats)
