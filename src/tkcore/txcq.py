"""Measured temporal k-core queries, answered in two phases.

Phase 1 locates "time zones": maximal families of subintervals that all
induce the same core.  A zone is fully described by its tightest time
interval (TTI) and its loosest time intervals (LTIs): its members are
exactly the union of rectangles spanned by each LTI (top-left corner) and
the TTI (bottom-right corner) in the triangular schedule.  Zones and
answers hold their members as `MemberSet` boxes and never list them.  The
zone and answer records (`ZoneRecord`, `ResultEntry`, `QueryResult`) are
NamedTuples, so they unpack and compare like tuples.

Phase 1 has two routes, and `_run` picks one per query before it hands
the zones to phase 2.  `run_txcq` reads the zones off the graph's
core-time index at k (`coreindex.CoreIndex`), built on the first query of
that (graph, k) and cached on the graph; it keeps each core it has read,
snapshot and LTIs, for the later queries.  So a query on a built index
runs `run_txcq`, `_run`, `CoreIndex.locate` and `_answer`, and phase 1
runs no Python frame per zone once its cores have been read.  A snapshot
carries the counts its sweep recorded (edges, vertices, distinct adjacent
pairs), and reads its degrees off the graph's pair runs only when a
measure first asks.  A graph whose ranks x pair runs exceed
`coreindex.MAX_CORE_INDEX_SIZE` gets no index, and `run_txcq` walks.
That size rule bounds the build, and it also keeps the index's first
reads of cores off large graphs, where a first `engagement` query costs
about 2.5 times the walk (README.md has the measurements).
The walk is `run_otcd_star`, which visits only LTI cells plus whatever
empties it takes to get there, pruning each discovered rectangle wholesale.
It stays the paper's engine and the index's reference: `run_otcd_star` and
`run_txcq_walk` always walk, and so does the CLI, whose output carries the
walk's own counters (cells visited and prune counters), which an index read
would replace with its own.

Phase 2 runs a local search inside each zone, evaluating the measure only
where its declared sensitivity requires: once per zone for insensitive
measures (`ti_ls`) and for shrink-improving optimizes (`tmo_ls`, at the
TTI), at the zone's loosest intervals for expand-improving optimizes, or
along the decision boundary of the zone's qualifying region for monotonic
threshold queries (`tmc_ls`), which searches in one direction, an expand-
improving measure in negated time.  It gallops and bisects up each column
to its first qualifying start and along the ends to that start's last
qualifying column, so a straight run of the boundary costs about twice the
logarithm of its length, and it settles a member box whose columns share
one start with one probe of its far column.  A gallop or a failed probe may
cost one evaluation more than stepping, so each is taken only while the
zone's budget (the paper's: the sum of its rectangles' widths and heights)
spares it, and a zone never costs more than that budget.  Phase 2 is one
loop in `_answer`, which runs the search zone by zone, counts its
evaluations and keeps the zones of the answer; per zone it runs no Python
frame but the search and what the search calls, since each zone's
`EvalContext` is built by `tuple.__new__`.  Every zone's context shares one
per-query `memo` dict, in which `periodicity` groups the query's zones once.
A search hands back the zone's qualifying boxes as a plain tuple (None when
every member qualifies), its value and its evaluation count; the loop keeps
those of the zones it keeps, and builds the `MemberSet`s and entries at the
end, for the answer's entries only.  `measures` places the
values (`keep_best`, and `QuerySpec.passes` against a threshold): two that
are exactly `int` or `Fraction` over the cross products of their integer
parts, so a threshold test or a worse value costs one comparison, and any
other by `compare` or `satisfies`, which refuse, as the oracle does, values
that do not order.  So a one-cell zone of `burstiness` that the optimize
drops costs one read of the core's pair count, one evaluator call and one
integer comparison, and builds nothing.  Nonmonotonic
measures, which have no usable structure, take the same phase 1 and
`all_ls`, which evaluates every member of every zone.  Such a query refuses
a window of more than MAX_TCD_STAR_CELLS raw cells before phase 1, since a
gap of G raw stamps alone holds O(G^2) of them.  `run_tcd_star`, the
paper's exhaustive baseline, runs `all_ls` on the zones of the exhaustive
TCD walk under the same refusal.  Every route builds its zones and answers
with the same helpers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from operator import itemgetter
from typing import Callable, NamedTuple

from . import coreindex
from .graph import ContractViolation, CoreSnapshot, TemporalGraph, TimeInterval, integer_query
from .measures import EvalContext, MeasureDescriptor, evaluate, keep_best, threshold_test
from .tcq import EngineStats, clamp_window, rectangle_prune, walk_schedule

MODES = ("enumerate", "optimize", "constrain")
MAX_TCD_STAR_CELLS = 10**6  # raw cells of the clamped window's triangle


@dataclass(frozen=True, eq=False)
class MemberSet:
    """A set of intervals held as disjoint boxes (ts_lo, ts_hi, te_lo, te_hi),
    each box every [ts, te] with ts in [ts_lo, ts_hi] and te in [te_lo, te_hi].
    Iteration yields the intervals ascending by (ts, te).  No box is empty,
    so the set is empty exactly when it holds no box.

    Two sets are equal when they hold the same intervals, however they are
    cut into boxes, and comparing or hashing them never lists an interval:
    `==` sweeps the sorted start edges of both sets' boxes once and compares
    the ends each set holds between two edges, in O(b log b) for b boxes.
    The hash is the count and the sums of the starts and of the ends, each
    worked out box by box."""

    boxes: tuple[tuple[int, int, int, int], ...]

    def __len__(self) -> int:
        return sum((b - a + 1) * (d - c + 1) for a, b, c, d in self.boxes)

    def __bool__(self) -> bool:
        return bool(self.boxes)

    def __contains__(self, window) -> bool:
        ts, te = window
        return any(a <= ts <= b and c <= te <= d for a, b, c, d in self.boxes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MemberSet):
            return NotImplemented
        if self.boxes == other.boxes:
            return True
        # Sweep the starts.  Over each run of starts that no box edge cuts,
        # the ends each set holds are the union of its boxes' end ranges,
        # which are disjoint, so the union is given by the +1 at c and -1 at
        # d + 1 of each range [c, d]; the sets are equal when those counts
        # agree over every run.  `edges` holds this set's counts less the
        # other's, and `uneven` how many of them are not 0.
        events = sorted(chain(
            ((a, 1, c, d) for a, _, c, d in self.boxes),
            ((b + 1, -1, c, d) for _, b, c, d in self.boxes),
            ((a, -1, c, d) for a, _, c, d in other.boxes),
            ((b + 1, 1, c, d) for _, b, c, d in other.boxes),
        ), key=itemgetter(0))
        edges: dict = {}
        uneven = 0
        at = None
        for ts, by, c, d in events:
            if ts != at:
                if uneven:
                    return False  # the starts from `at` to ts - 1 hold different ends
                at = ts
            was = edges.get(c, 0)
            edges[c] = now = was + by
            uneven += (now != 0) - (was != 0)
            was = edges.get(d + 1, 0)
            edges[d + 1] = now = was - by
            uneven += (now != 0) - (was != 0)
        return True  # past the last edge no box is open

    def __hash__(self) -> int:
        starts = ends = 0
        for a, b, c, d in self.boxes:
            rows, cols = b - a + 1, d - c + 1
            starts += (a + b) * rows // 2 * cols
            ends += (c + d) * cols // 2 * rows
        return hash((len(self), starts, ends))

    def __iter__(self):
        return iter(sorted(
            TimeInterval(ts, te)
            for a, b, c, d in self.boxes
            for ts in range(a, b + 1)
            for te in range(c, d + 1)
        ))


class ZoneRecord(NamedTuple):
    """One distinct core together with its zone geometry."""

    core: CoreSnapshot
    tti: TimeInterval
    ltis: tuple[TimeInterval, ...]  # descending te (equivalently descending ts)

    @property
    def members(self) -> MemberSet:
        """Every interval inducing this zone's core: one box per LTI, which
        covers the ends past the next LTI's end and every start from its own
        start to the TTI's."""
        s, e = self.tti
        boxes, after = [], e - 1  # built from the last LTI up, without comprehension frames
        for l in reversed(self.ltis):
            boxes.append((l.ts, s, after + 1, l.te))
            after = l.te
        boxes.reverse()
        return MemberSet(tuple(boxes))


@dataclass(frozen=True)
class QuerySpec:
    k: int
    window: TimeInterval
    measure: MeasureDescriptor | None = None
    mode: str = "enumerate"
    sigma: object = None
    # whether a value is no worse than the threshold (`measures.threshold_test`)
    passes: Callable[[object], bool] | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        k, window = integer_query(self.k, self.window)
        object.__setattr__(self, "window", window)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.mode != "enumerate" and self.measure is None:
            raise ValueError(f"mode {self.mode!r} needs a measure")
        if self.mode == "constrain" and self.sigma is None:
            raise ValueError("constrain mode needs a threshold")
        if self.sigma is not None:
            object.__setattr__(self, "passes", threshold_test(self.measure, self.sigma))


class ResultEntry(NamedTuple):
    zone: ZoneRecord
    qualifying: MemberSet | None
    x_value: object


@dataclass
class QueryStats:
    """One query's counters.  `index` says how phase 1 got the graph's
    core-time index: "built" by this query, "reused" from an earlier one,
    or "refused" by the size rule, which gives the graph none; None when
    phase 1 walked without asking.  `index_build_ms` is the time this
    query spent building it.

    Phase 1's own counters (`walk`, `cells_visited`, `prune_counters`) are
    made on the first read of any of them, by calling `counters`.  A walk
    hands over the `EngineStats` it kept anyway; an index read hands over
    `CoreIndex.counters` for its window, which works them out then, so a
    query whose counters nobody reads pays nothing for them."""

    algorithm: str
    phase1_ms: float = 0.0
    phase2_ms: float = 0.0
    x_evaluations: int = 0
    zone_eval_counts: dict = field(default_factory=dict)
    exhaustive: bool = False
    index: str | None = None
    index_build_ms: float = 0.0
    counters: Callable[[], EngineStats] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_walk(cls, walk: EngineStats, **fields) -> "QueryStats":
        """Phase 1's counters, read from the schedule walk's stats."""
        return cls(algorithm=walk.algorithm, phase1_ms=walk.wall_ms, counters=lambda: walk, **fields)

    @cached_property
    def walk(self) -> EngineStats | None:
        """Phase 1's own counters, made on first read; their `wall_ms` is
        `phase1_ms`."""
        if self.counters is None:
            return None
        walk = self.counters()
        walk.wall_ms = self.phase1_ms
        return walk

    @property
    def cells_visited(self) -> int:
        return 0 if self.walk is None else self.walk.cells_visited

    @cached_property
    def prune_counters(self) -> dict:
        """The walk's counters (`EngineStats.to_dict`), built on first read."""
        return {} if self.walk is None else self.walk.to_dict()


class QueryResult(NamedTuple):
    entries: tuple[ResultEntry, ...]
    stats: QueryStats


def canonical_result(result: QueryResult, mode: str):
    """Mode-appropriate comparison key, built from stored forms: it never
    lists an interval or expands a core's edges.

    Enumerate compares full zone geometry, each core by its vertex set, TTI
    and edge count, which determine it; constrain compares the qualifying
    intervals as one `MemberSet` of every entry's boxes, which the zones
    keep disjoint; optimize compares the winning cores (by TTI) plus the
    optimal value, since different strategies may report different witness
    intervals for the same tied optimum.
    """
    if mode == "enumerate":
        return tuple(
            sorted(
                (e.zone.tti, e.zone.core.vertices, e.zone.core.edge_count, e.zone.ltis)
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
        return MemberSet(tuple(chain.from_iterable(e.qualifying.boxes for e in result.entries)))
    raise ValueError(f"unknown mode: {mode!r}")


# -- phase 1: zone location ------------------------------------------------


def _locate(g: TemporalGraph, k: int, window, algorithm: str, rules=None):
    """Phase 1: walk the schedule under `rules`.  Each distinct core becomes
    a zone whose LTIs are the maximal loosest raw cells the walk visited of
    it, by descending te."""
    catalog = walk_schedule(g, k, window, algorithm=algorithm, rules=rules)
    zones = []
    for tti, core in catalog.cores.items():
        ltis = tuple(reversed(catalog.visited[tti]))
        for l in ltis:
            if not l.contains(tti):
                raise AssertionError(f"visited cell {l} does not contain its core's span {tti}")
        zones.append(ZoneRecord(core=core, tti=tti, ltis=ltis))
    return zones, catalog.stats


def run_otcd_star(g: TemporalGraph, k: int, window) -> list[ZoneRecord]:
    """Locate every zone of the query window: one record per distinct
    nonempty core, with the complete LTI list."""
    zones, _ = _locate(g, k, window, "otcd-star", rectangle_prune)
    return zones


# -- phase 2: local searches, one zone each ----------------------------------


def ti_ls(zone: ZoneRecord, spec: QuerySpec, ctx: EvalContext):
    """Time-insensitive search: one evaluation, at the TTI, whose value
    every member of the zone shares, so every member qualifies (None) or
    none does."""
    value = evaluate(spec.measure, zone.core, zone.tti, ctx)
    if spec.mode == "constrain" and not spec.passes(value):
        return (), value, 1
    return None, value, 1


def _scan(zone: ZoneRecord, spec: QuerySpec, ctx: EvalContext, cells, count: int):
    """Evaluate the measure on each of the zone's `count` `cells`; keep
    those that reach the zone's optimum (optimize) or the threshold
    (constrain), as one-cell boxes, and the optimum."""
    measure, core = spec.measure, zone.core
    placed = ((evaluate(measure, core, cell, ctx), cell) for cell in cells)
    if spec.mode == "constrain":
        passes = spec.passes
        best, winning = None, [cell for value, cell in placed if passes(value)]
    else:
        best, winning = keep_best(measure, placed)
    return tuple((ts, ts, te, te) for ts, te in winning), best, count


def tmo_ls(zone: ZoneRecord, spec: QuerySpec, ctx: EvalContext):
    """Monotonic optimization: the optimum over a zone sits at its TTI when
    the measure improves on shrinking, which one evaluation reads, or at one
    of its LTIs when it improves on expanding, which are scanned."""
    if spec.measure.improves_on == "expand":
        return _scan(zone, spec, ctx, zone.ltis, len(zone.ltis))
    s, e = tti = zone.tti
    return ((s, s, e, e),), evaluate(spec.measure, zone.core, tti, ctx), 1


def all_ls(zone: ZoneRecord, spec: QuerySpec, ctx: EvalContext):
    """Exhaustive search: every member of the zone is evaluated, so it is
    exact for any measure, nonmonotonic ones included.  The members are
    read off the zone's LTIs in the order `MemberSet` iterates them,
    ascending by (ts, te), and no `MemberSet` is built."""
    s, e = zone.tti
    rows, after, count = [], e, 0  # per LTI by ascending end: its first start and its box's ends
    for l in reversed(zone.ltis):
        rows.append((l.ts, range(after, l.te + 1)))
        count += (s - l.ts + 1) * (l.te - after + 1)
        after = l.te + 1
    cells = (
        TimeInterval(ts, te)
        for ts in range(rows[0][0], s + 1)
        for first, ends in rows
        if first <= ts  # a start reaches the boxes of a prefix of the rows
        for te in ends
    )
    return _scan(zone, spec, ctx, cells, count)


def tmc_ls(zone: ZoneRecord, spec: QuerySpec, ctx: EvalContext):
    """Monotonic threshold search: find the boundary of the zone's
    qualifying region by galloping and bisecting along it.

    Qualification is monotone along both axes inside a zone.  The search is
    written for a shrink-improving measure; an expand-improving one takes
    it in negated time, where a box (a, b, c, d) is (-b, -a, -d, -c) and a
    cell (ts, te) is evaluated at (-ts, -te), and its settled boxes are
    negated back.  The member boxes are taken by ascending end (one column
    per end), so no column's first qualifying start comes before the
    previous column's.  The search gallops up the column from where the
    previous one left off, probing 0, 1, 3, 7, ... starts past it, and
    bisects the last gap to the column's first qualifying start q.  Every
    column from there up to q's last qualifying one settles at q; that last
    column is found the same way along the ends, after one probe of q in
    the box's last column when q settles the box's first.  The settled
    columns form one box, which widens the previous box when their starts
    match, and the next column resumes at q + 1, since q fails there.  A
    column that fails throughout ends its box.

    A gallop costs at most one evaluation more than stepping cell by cell
    to the same place, and only when it lands two cells on (a gap of at
    most 4 is stepped through, not bisected); a far-column probe that fails
    costs one more too.  Stepping on from column te at start ts costs at
    most the columns and starts left, so each is taken only while the
    paper's budget, the sum of the zone's rectangle widths and heights,
    spares one evaluation beyond those made and that stepping.  A gallop
    along the ends at a box's last start needs none, since its failure ends
    the box.  So no zone costs more than its budget.  Evaluated cells are
    kept in a memo, whose size is the zone's evaluation count, so no cell
    is paid twice.
    """
    measure, core, passes = spec.measure, zone.core, spec.passes
    sign = -1 if measure.improves_on == "expand" else 1  # the walk's time is sign * time
    memo = {}  # (ts, te) in the walk's time -> qualifies

    def qualifies(ts, te) -> bool:
        ok = memo.get((ts, te))
        if ok is None:
            value = evaluate(measure, core, TimeInterval(sign * ts, sign * te), ctx)
            ok = memo[ts, te] = passes(value)
        return ok

    # the member boxes (ZoneRecord.members) by ascending end, and the budget
    s, e = zone.tti
    boxes, after, spare = [], e, 0
    for l in reversed(zone.ltis):  # each LTI's box takes the ends from `after` to its own
        boxes.append((l.ts, s, after, l.te))
        spare += l.te - e + s - l.ts + 2
        after = l.te + 1
    if sign < 0:
        boxes = [(-b, -a, -d, -c) for a, b, c, d in reversed(boxes)]
    _, top, _, te_end = boxes[-1]
    spare -= te_end + 1 + top  # what the budget spares at column te and start ts: spare + te + ts - len(memo)
    found = []  # settled boxes in the walk's time, by ascending end
    ts = -math.inf  # every earlier start fails in the current column
    for ts_lo, ts_hi, te, te_hi in boxes:
        first = te
        ts = max(ts, ts_lo)
        while te <= te_hi and ts <= ts_hi:
            # the column's first qualifying start: gallop up from ts, then bisect
            grow = 2 if spare + te + ts > len(memo) else 1
            lo, hi, step = ts - 1, ts, 1  # lo fails or lies below the box
            while hi < ts_hi and not qualifies(hi, te):
                lo, hi, step = hi, min(hi + step, ts_hi), step * grow
            if not qualifies(hi, te):
                ts = hi + 1
                break  # this column fails throughout, and so does every later one of the box
            short = hi - lo <= 4
            while hi - lo > 1:
                mid = lo + 1 if short else (lo + hi) // 2
                if qualifies(mid, te):
                    hi = mid
                else:
                    lo = mid
            q = hi
            # the last column q qualifies in: probe the box's last column,
            # then gallop along the ends and bisect
            lo, hi = te, te_hi + 1  # hi fails or lies past the box
            if te == first < te_hi and spare + te + 1 + q > len(memo):
                if qualifies(q, te_hi):
                    lo = te_hi
                else:
                    hi = te_hi
            grow = 2 if q == ts_hi or spare + te + 1 + q > len(memo) else 1
            probe, step = lo + 1, 1
            while probe < hi and qualifies(q, probe):
                lo, probe, step = probe, probe + step, step * grow
            hi = min(hi, probe)
            short = hi - lo <= 4
            while hi - lo > 1:
                mid = lo + 1 if short else (lo + hi) // 2
                if qualifies(q, mid):
                    lo = mid
                else:
                    hi = mid
            if found and found[-1][:2] == (q, ts_hi):
                te = found.pop()[2]
            found.append((q, ts_hi, te, lo))
            te, ts = lo + 1, q + (lo < te_hi)
    if sign < 0:
        found = [(-b, -a, -d, -c) for a, b, c, d in found]
    return tuple(found), None, len(memo)


# -- dispatch ---------------------------------------------------------------


def run_txcq(g: TemporalGraph, spec: QuerySpec) -> QueryResult:
    """Answer a measured temporal k-core query with the cheapest strategy
    the measure's declared sensitivity allows.  Phase 1 reads the graph's
    core-time index when the graph gets one, and walks OTCD* otherwise."""
    return _run(g, spec, True)


def run_txcq_walk(g: TemporalGraph, spec: QuerySpec) -> QueryResult:
    """`run_txcq` with phase 1 always on the OTCD* walk, whose counters
    are the paper's.  The CLI takes this route, since its output carries
    those counters."""
    return _run(g, spec, False)


def _run(g: TemporalGraph, spec: QuerySpec, use_index: bool) -> QueryResult:
    """Pick phase 2's search from the measure's declaration, locate the
    zones (phase 1) and answer from them (`_answer`)."""
    measure = spec.measure
    if spec.mode == "enumerate":
        search = None
    elif measure.sensitivity == "nonmonotonic":
        _refuse_large_triangle(g, spec.window, "an exhaustive search")
        search = all_ls
    elif measure.sensitivity == "insensitive":
        search = ti_ls
    elif spec.mode == "optimize":
        search = tmo_ls
    else:
        search = tmc_ls
    # phase 1: the window's zones, ascending by TTI.  With `use_index` they
    # are read off the graph's core-time index at k, built by the first
    # query of (g, k); a graph that gets no index, like a query without
    # `use_index`, walks OTCD*.
    k, window = spec.k, spec.window
    started = time.perf_counter()
    index = how = None
    build_ms = 0.0
    if use_index:
        try:
            index, how = g.core_indexes[k], "reused"
        except KeyError:  # the first query of (g, k) builds, if the size rule allows
            if len(g.timestamps) * len(g.pair_runs) <= coreindex.MAX_CORE_INDEX_SIZE:
                index, how = coreindex.CoreIndex(g, k), "built"
                build_ms = (time.perf_counter() - started) * 1000.0
            g.core_indexes[k] = index
        if index is None:  # the size rule allowed none
            how = "refused"
    if index is None:
        zones, walk = _locate(g, k, window, "otcd-star", rectangle_prune)
        stats = QueryStats.from_walk(walk, index=how, index_build_ms=build_ms)
    else:
        zones = index.locate(window)
        # built positionally: by keyword it costs twice as long (CPython 3.11)
        stats = QueryStats(
            "core-index", (time.perf_counter() - started) * 1000.0, 0.0, 0, {}, False, how, build_ms,
            partial(index.counters, window),
        )
    return _answer(g, spec, zones, stats, search)


def run_tcd_star(g: TemporalGraph, spec: QuerySpec) -> QueryResult:
    """Evaluate the measure on every subinterval.  The exhaustive TCD walk
    decomposes every rank cell; the cells sharing a core become one zone,
    and `all_ls` evaluates each of its members.  Exact for any measure,
    including nonmonotonic ones.  A window of more than
    MAX_TCD_STAR_CELLS raw cells is refused before the walk."""
    if spec.measure is None:
        raise ContractViolation("run_tcd_star needs a measure; use run_otcd_star to enumerate")
    if spec.mode == "enumerate":
        raise ContractViolation("run_tcd_star answers optimize or constrain queries")
    _refuse_large_triangle(g, spec.window, "tcd-star")
    zones, walk = _locate(g, spec.k, spec.window, "tcd-star")
    return _answer(g, spec, zones, QueryStats.from_walk(walk), all_ls)


def _refuse_large_triangle(g: TemporalGraph, window, who: str) -> None:
    """Refuse, before phase 1, a window whose raw triangle holds more than
    MAX_TCD_STAR_CELLS subintervals: `all_ls` evaluates every raw member,
    and a gap of G raw stamps alone holds O(G^2) of them."""
    w = clamp_window(g, window)
    cells = w.duration * (w.duration + 1) // 2 if w else 0
    if cells > MAX_TCD_STAR_CELLS:
        raise ContractViolation(
            f"{who} refuses {cells} subintervals > {MAX_TCD_STAR_CELLS}; shrink the window"
        )


def _answer(g: TemporalGraph, spec: QuerySpec, zones, stats: QueryStats, search) -> QueryResult:
    """Phase 2: answer with `search` from the zones that phase 1 located,
    counting into phase 1's `stats`; an enumerate query (`search` None)
    reports the zones.

    One loop runs the search in every zone, counts its evaluations and
    keeps the zones: in an optimize those whose value is the best
    (`keep_best`), in a constrain those with a qualifying member.  A search
    returns the zone's qualifying boxes, its value and its evaluation
    count; the boxes are a plain tuple, empty when no member qualifies, or
    None when every member does.  The `MemberSet`s and entries are built
    last, for the kept zones only, so a dropped zone builds neither.  Each
    zone's context, the entries and the result are built by `tuple.__new__`,
    which runs no Python frame; the contexts share the query's zones,
    parameters and memo."""
    new = tuple.__new__
    stats.exhaustive = search is all_ls
    if search is None:
        return new(QueryResult, (tuple([new(ResultEntry, (z, None, None)) for z in zones]), stats))
    all_zones, params, memo = tuple(zones), dict(spec.measure.params), {}
    counts, evaluations = stats.zone_eval_counts, 0
    started = time.perf_counter()
    optimize = spec.mode == "optimize"
    kept = []  # an optimize's (value, zone's item) pairs, or a constrain's kept items
    for zone in zones:  # zones come ascending by TTI
        boxes, value, evals = search(zone, spec, new(EvalContext, (g, zone, all_zones, params, memo)))
        counts[zone.tti] = evals
        evaluations += evals
        if optimize:
            kept.append((value, (zone, boxes, value)))
        elif boxes != ():
            kept.append((zone, boxes, value))
    stats.x_evaluations += evaluations
    if optimize:
        _, kept = keep_best(spec.measure, kept)
    entries = []
    for zone, boxes, value in kept:
        entries.append(new(ResultEntry, (zone, zone.members if boxes is None else MemberSet(boxes), value)))
    stats.phase2_ms = (time.perf_counter() - started) * 1000.0
    return new(QueryResult, (tuple(entries), stats))
