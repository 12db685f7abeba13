"""Brute-force reference implementations used for verification.

Everything here recomputes results from first principles on projected
adjacency maps: no timeline structures, no pruning, no state shared with
the engines.  Quadratic in the window span by design; keep instances small
(the command-line verifier refuses spans over MAX_ORACLE_SPAN or graphs
with more than MAX_ORACLE_EDGES edges).
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass

from .graph import CoreSnapshot, TemporalEdge, TemporalGraph, TimeInterval, integer_query

MAX_ORACLE_SPAN = 40
MAX_ORACLE_EDGES = 2000


def _edge_order(e: TemporalEdge):
    return (e.t, e.u, e.v)


def reference_core(g: TemporalGraph, k: int, window) -> CoreSnapshot:
    """Project the graph onto `window`, then peel vertices with fewer than
    k distinct surviving neighbors until none remain."""
    if k < 1:
        raise ValueError("k must be at least 1")
    w = TimeInterval(*window)
    edges = [e for e in g.edges if w.ts <= e.t <= w.te]
    neighbors: dict = defaultdict(Counter)
    for u, v, _ in edges:
        neighbors[u][v] += 1
        neighbors[v][u] += 1
    degree = {v: len(c) for v, c in neighbors.items()}
    alive = set(degree)
    worklist = deque(v for v in sorted(degree) if degree[v] < k)
    while worklist:
        v = worklist.popleft()
        if v not in alive:
            continue
        alive.discard(v)
        for u in neighbors[v]:
            if u in alive:
                degree[u] -= 1
                if degree[u] == k - 1:
                    worklist.append(u)
    surviving = [e for e in edges if e.u in alive and e.v in alive]
    if not surviving:
        return CoreSnapshot(frozenset(), (), None, k)
    stamps = [e.t for e in surviving]
    tti = TimeInterval(min(stamps), max(stamps))
    return CoreSnapshot(frozenset(alive), tuple(sorted(surviving, key=_edge_order)), tti, k)


@dataclass(frozen=True)
class OracleClass:
    """One distinct nonempty core with every subinterval that induces it."""

    core: CoreSnapshot
    tti: TimeInterval
    ltis: tuple[TimeInterval, ...]  # maximal members, descending te
    members: tuple[TimeInterval, ...]  # all members, ascending (ts, te)


@dataclass(frozen=True)
class OracleCatalog:
    window: TimeInterval | None
    classes: tuple[OracleClass, ...]


def _clamped(g: TemporalGraph, window) -> TimeInterval | None:
    if g.edge_count == 0:
        return None
    w = TimeInterval(*window)
    lo, hi = max(w.ts, g.min_t), min(w.te, g.max_t)
    return TimeInterval(lo, hi) if lo <= hi else None


def brute_force_tcq(g: TemporalGraph, k: int, window) -> OracleCatalog:
    """Compute every subinterval's core independently and group identical
    cores into classes, deriving each class's tightest and loosest member
    intervals directly from the definitions.  A k below 1, and a k or
    window end that is not an integer, are refused with `ValueError`."""
    k, window = integer_query(k, window)
    w = _clamped(g, window)
    if w is None:
        return OracleCatalog(None, ())
    snaps: dict[tuple, CoreSnapshot] = {}
    members: dict[tuple, list[TimeInterval]] = defaultdict(list)
    for ts in range(w.ts, w.te + 1):
        for te in range(ts, w.te + 1):
            snap = reference_core(g, k, (ts, te))
            if snap.is_empty:
                continue
            key = snap.edges
            snaps[key] = snap
            members[key].append(TimeInterval(ts, te))
    classes = []
    for key, mem in members.items():
        minimal = [m for m in mem if not any(o != m and m.contains(o) for o in mem)]
        maximal = [m for m in mem if not any(o != m and o.contains(m) for o in mem)]
        if len(minimal) != 1:
            raise AssertionError(f"core has {len(minimal)} minimal members: {minimal}")
        tti = minimal[0]
        if tti != snaps[key].tti:
            raise AssertionError(
                f"minimal member {tti} disagrees with surviving-timestamp range {snaps[key].tti}"
            )
        classes.append(
            OracleClass(
                core=snaps[key],
                tti=tti,
                ltis=tuple(sorted(maximal, key=lambda iv: iv.te, reverse=True)),
                members=tuple(sorted(mem)),
            )
        )
    classes.sort(key=lambda c: c.tti)
    return OracleCatalog(w, tuple(classes))


def brute_force_txcq(g: TemporalGraph, spec) -> "QueryResult":
    """Evaluate the measure on every nonempty subinterval and apply the
    query mode directly.  Result carries the same record types the engines
    produce so outcomes can be diffed: each entry's intervals are a
    `MemberSet` of one-cell boxes."""
    from .measures import EvalContext, compare, evaluate, satisfies
    from .txcq import MemberSet, QueryResult, QueryStats, ResultEntry, ZoneRecord

    catalog = brute_force_tcq(g, spec.k, spec.window)
    zones = tuple(
        ZoneRecord(core=c.core, tti=c.tti, ltis=c.ltis) for c in catalog.classes
    )
    zone_by_tti = {z.tti: z for z in zones}
    base_ctx = EvalContext(
        graph=g,
        all_zones=zones,
        params=dict(spec.measure.params) if spec.measure else {},
    )
    stats = QueryStats(algorithm="oracle")

    if spec.mode == "enumerate":
        entries = tuple(ResultEntry(z, None, None) for z in zones)
        return QueryResult(entries, stats)

    measure = spec.measure
    values: dict[TimeInterval, object] = {}
    owner: dict[TimeInterval, TimeInterval] = {}
    for cls in catalog.classes:
        ctx = base_ctx.with_zone(zone_by_tti[cls.tti])
        for member in cls.members:
            values[member] = evaluate(measure, cls.core, member, ctx)
            owner[member] = cls.tti
            stats.x_evaluations += 1

    def grouped(intervals, value):
        by_zone: dict[TimeInterval, list[TimeInterval]] = defaultdict(list)
        for iv in intervals:
            by_zone[owner[iv]].append(iv)
        entries = []
        for tti in sorted(by_zone):
            cells = MemberSet(tuple((ts, ts, te, te) for ts, te in sorted(by_zone[tti])))
            entries.append(ResultEntry(zone_by_tti[tti], cells, value))
        return tuple(entries)

    if spec.mode == "optimize":
        if not values:
            return QueryResult((), stats)
        best = None
        for val in values.values():
            if best is None or compare(measure, val, best) == "better":
                best = val
        winners = [iv for iv, val in values.items() if val == best]
        return QueryResult(grouped(winners, best), stats)

    if spec.mode == "constrain":
        qualifying = [iv for iv, val in values.items() if satisfies(measure, val, spec.sigma)]
        return QueryResult(grouped(qualifying, None), stats)

    raise ValueError(f"unknown query mode: {spec.mode!r}")
