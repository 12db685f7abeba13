"""Canonical answers, and expected answers produced without the timed engine.

A canonical answer is built from public result fields only:

- enumerate: per zone its TTI, its LTIs, its sorted vertex labels and its
  edge count;
- optimize: the set of winning TTIs plus the exact optimum;
- constrain: the set of qualifying intervals.

Expected answers are produced once per pool entry, never by the engine being
timed.  The cells of every window come from one exhaustive pass per k: the
brute-force oracle in rank space on gapped stamps, `run_tcd_star` otherwise.
`run_txcq` answers those queries with OTCD*; the nonmonotonic UDF's queries,
which it routes to `run_tcd_star`, are checked by the oracle instead.  Each
measure is then evaluated on every member of every zone.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right
from fractions import Fraction

from tkcore import (
    CoreSnapshot,
    EvalContext,
    QuerySpec,
    TemporalEdge,
    TemporalGraph,
    TimeInterval,
    ZoneRecord,
    brute_force_tcq,
    clamp_window,
    compare,
    evaluate,
    get_measure,
    normalize_timestamps,
    project,
    run_tcd_star,
    satisfies,
)

from workloads import resolve_measure


def _value_text(value):
    return None if value is None else str(Fraction(value))


def canonical_zones(zones, labels):
    return sorted(
        [
            tuple(z.tti),
            sorted(tuple(l) for l in z.ltis),
            sorted(int(labels[v]) for v in z.core.vertices),
            z.core.edge_count,
        ]
        for z in zones
    )


def canonical_answer(result, mode: str, labels):
    """Canonical form of a `QueryResult` returned by the engine."""
    if mode == "enumerate":
        return canonical_zones((e.zone for e in result.entries), labels)
    if mode == "optimize":
        best = result.entries[0].x_value if result.entries else None
        return [sorted({tuple(e.zone.tti) for e in result.entries}), _value_text(best)]
    return sorted({tuple(iv) for e in result.entries for iv in (e.qualifying or ())})


def digest(canonical) -> str:
    text = json.dumps(canonical, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


class _Window:
    """Zones and members of one (k, window) pair, with memoized measure values."""

    def __init__(self, graph, zones, members):
        self.graph = graph
        self.zones = tuple(zones)
        self.members = members  # member intervals, one list per zone
        self._values = {}

    def values(self, measure):
        if measure.name not in self._values:
            base = EvalContext(graph=self.graph, all_zones=self.zones, params=dict(measure.params))
            out = []
            for i, (zone, members) in enumerate(zip(self.zones, self.members)):
                ctx = base.with_zone(zone)
                out += [(iv, i, evaluate(measure, zone.core, iv, ctx)) for iv in members]
            self._values[measure.name] = out
        return self._values[measure.name]


def _within(g, window):
    """`g` cut to the clamped window when that keeps every subinterval's
    core (each end of the window carries an edge), else `g` itself."""
    w = clamp_window(g, window)
    cut = project(g, w) if w else g
    return cut if w and cut.time_range() == w else g


def _ambient(g, w):
    """The graph a measure is evaluated against, for members of window `w`.

    Members lie inside `w`, and `engagement`, the one measure here that
    reads the graph, counts distinct neighbours; so the edges inside `w`,
    each (u, v, t) once, give the same values as the whole graph and cost a
    fraction of the time: a planted group repeats each pair dozens of times.
    """
    edges = sorted(set(project(g, w).edges), key=lambda e: (e.t, e.u, e.v))
    return TemporalGraph(g.vertex_count, tuple(edges), g.labels)


def _classes(g, k, window, oracle: bool):
    """(core, tti, members) for every distinct nonempty core of `window`."""
    if oracle:
        catalog = brute_force_tcq(_within(g, window), k, window)
        return [(c.core, c.tti, c.members) for c in catalog.classes]
    # `size` is cheap, and an unreachable threshold makes every member qualify
    spec = QuerySpec(k, window, get_measure("size"), "constrain", g.vertex_count + 1)
    return [(e.zone.core, e.zone.tti, e.qualifying) for e in run_tcd_star(g, spec).entries]


def _restrict(classes, lo, hi):
    """Each class's members inside [lo, hi] and its LTIs there.

    A cell's core does not depend on the query window, so the zones of a
    sub-window are the classes of an enclosing window cut to it.  The LTIs
    are the maximal members: per start the latest end, kept when no earlier
    start reaches as far.
    """
    out = []
    for core, tti, members in classes:
        inside = [m for m in members if lo <= m.ts and m.te <= hi]
        latest = {}
        for m in inside:
            latest[m.ts] = max(latest.get(m.ts, m.te), m.te)
        ltis, reach = [], None
        for ts in sorted(latest):
            if reach is None or latest[ts] > reach:
                reach = latest[ts]
                ltis.append(TimeInterval(ts, reach))
        if inside:
            out.append((core, tti, tuple(reversed(ltis)), inside))  # LTIs by descending end
    return out


def _key(spec):
    """(k, window, whether the window needs an oracle pass of its own)."""
    measure = resolve_measure(spec["measure"])
    own = measure is not None and measure.sensitivity == "nonmonotonic"
    return spec["k"], tuple(spec["window"]), own


def _windows(g, pool, gapped):
    """A `_Window` per (k, window) of the pool.

    Each k gets one exhaustive pass over the union of its windows, by
    `run_tcd_star` or, on gapped stamps, by the oracle in rank space; the
    windows are cut from it.  A nonmonotonic measure's window gets an oracle
    pass of its own, because `run_txcq` answers it with `run_tcd_star`.
    """
    raw = sorted({e.t for e in g.edges})  # on gapped stamps, rank r is raw[r - 1]
    cell_g = normalize_timestamps(g, "rank") if gapped else g

    def cell_window(window):
        w = clamp_window(g, window)
        if w is None or not gapped:
            return w, w
        lo, hi = bisect_left(raw, w.ts) + 1, bisect_right(raw, w.te)
        return w, (TimeInterval(lo, hi) if lo <= hi else None)

    keys, union = {}, {}
    for spec in pool:
        key = _key(spec)
        own = key[2]
        w, cells = keys.setdefault(key, cell_window(spec["window"]))
        if cells is not None and not own:
            lo, hi = union.get(spec["k"], cells)
            union[spec["k"]] = TimeInterval(min(lo, cells.ts), max(hi, cells.te))
    passes = {k: _classes(cell_g, k, u, oracle=gapped) for k, u in union.items()}

    out = {}
    for (k, window, own), (w, cells) in keys.items():
        if cells is None:
            out[(k, window, own)] = _Window(g, [], [])
            continue
        classes = _classes(cell_g, k, cells, oracle=True) if own else passes[k]
        zones, members = [], []
        for core, tti, ltis, inside in _restrict(classes, *cells):
            if gapped:
                core, tti, ltis, inside = _to_raw(core, tti, ltis, inside, raw, w, cells)
            zones.append(ZoneRecord(core=core, tti=tti, ltis=ltis))
            members.append(inside)
        out[(k, window, own)] = _Window(_ambient(g, w), zones, members)
    return out


def _to_raw(core, tti, ltis, members, raw, w, cells):
    """Map a rank-space zone back to raw seconds.

    A raw cell has the core of the rank cell spanning the stamps it holds,
    so a rank LTI grows to the raw edge of the neighbouring gap or of the
    clamped window, and a rank member stands for the block of raw cells
    whose ends fall in the same gaps.  Members are mapped to the tight raw
    image of their block: the core is the same across a block and only the
    duration changes, and the measures this workload optimizes fall as the
    duration grows, so a block's best value sits at that image.
    """
    lo, hi = cells

    def tight(iv):
        return TimeInterval(raw[iv.ts - 1], raw[iv.te - 1])

    def loose(iv):
        ts = w.ts if iv.ts == lo else raw[iv.ts - 2] + 1
        te = w.te if iv.te == hi else raw[iv.te] - 1
        return TimeInterval(ts, te)

    edges = tuple(TemporalEdge(e.u, e.v, raw[e.t - 1]) for e in core.edges)
    raw_core = CoreSnapshot(core.vertices, edges, tight(tti), core.k)
    return raw_core, tight(tti), tuple(loose(l) for l in ltis), [tight(m) for m in members]


def _expected(spec: dict, win: _Window, labels):
    mode = spec["mode"]
    if mode == "enumerate":
        return canonical_zones(win.zones, labels)
    measure = resolve_measure(spec["measure"])
    values = win.values(measure)
    if mode == "optimize":
        best = None
        for _, _, val in values:
            if best is None or compare(measure, val, best) == "better":
                best = val
        winners = sorted({tuple(win.zones[i].tti) for _, i, val in values if val == best})
        return [winners, _value_text(best)]
    sigma = Fraction(spec["sigma"])
    return sorted({tuple(iv) for iv, _, val in values if satisfies(measure, val, sigma)})


def expected_digests(g, pool, gapped: bool) -> list[str]:
    """One digest per pool entry, of the answer the engine must return."""
    if gapped and any(spec["mode"] == "constrain" for spec in pool):
        raise ValueError("gapped workloads have no constrain queries: members are not listed")
    windows = _windows(g, pool, gapped)
    return [digest(_expected(spec, windows[_key(spec)], g.labels)) for spec in pool]
