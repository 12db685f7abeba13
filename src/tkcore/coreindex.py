"""Core-time index: every row of a graph's rank schedule at one k, swept once.

Fix k and a start rank s.  As the end rank c grows, core([s, c]) only grows,
and it changes only at the row's breakpoints: the columns b where
core([s, b]) holds an edge stamped b.  Between two breakpoints the core
stays that of the lower one.  A breakpoint's core is a distinct core with
tightest time interval (TTI) (s, b) exactly when it also holds an edge
stamped s; otherwise it is the same core as in a later row.  Every core is
determined by the graph, k and its cell, never by a query window, so one
index per (graph, k) answers every window (after the PHC index of Yu et al.,
*On Querying Historical K-Cores*, PVLDB 2021).

Build: the row head core([s, last]) is induced decrementally, row by row.
When its TTI starts at t > s, rows s..t hold the same cores (PoU), so they
share one row.  A row is swept from its head down: each step reads the
content's TTI end b (a breakpoint) and records the edge count, the
distinct-pair count and the vertex count, which the TEL keeps as it goes,
then cuts column b off and peels only from the endpoints that cut touched,
noting the vertices that left.  The cores of one sweep nest, so the sweep
keeps one vertex order, the last vertex to leave first, and each of its
cores is a prefix of it.  The sweep stops at the first core with no edge
stamped s: its TTI (t, b) says that row s equals row t from column b down,
and row t, swept later, supplies that tail.  So the build steps over at
most ranks x pair runs runs, and stores at most one vertex per sweep and
vertex of the graph.

Lookup: the zones of a window are the distinct cores whose TTI lies inside
it.  For r <= s and c >= b, core([r, c]) contains core([s, b]) and equals
it exactly when their edge counts match, so a zone's members in row r are
the columns from b up to the next breakpoint of row r past b, while row r's
edge count at b still equals the zone's.  On a core's first read its rows
are walked upward from s once, bisecting each row's breakpoints: that gives
the zone's loosest time intervals (LTIs) over the whole schedule, in ranks.
The core's snapshot keeps the sweep's order, the core's vertex count and
its distinct-pair count, which `burstiness` reads; it builds its vertex set
off the order, and reads its edges and degrees off the graph's pair runs
inside its TTI, each on first use.  Neither the LTIs nor the snapshot
depend on a window, so both are kept for every later query of the
(graph, k).  A window's rows lo..hi then keep the LTIs whose rows reach
lo, cut them at row lo and column hi, and merge those the cut leaves in
one column.  Most rows hold no distinct core of their own, so the build
ends by listing the rows that do, ascending, and a lookup bisects that
list to rows lo..hi and steps through no other row.  A row's distinct
cores are kept ascending by TTI end, so a lookup stops reading a row at
its first core that ends past the window, and reads nothing else of the
rows.  The lookup cuts each core's LTIs in the same loop and hands over
one `txcq.ZoneRecord` per zone, which the query reads as is; it builds
the records and their cells by `tuple.__new__`, so a lookup of cores read
before runs no Python frame (README.md has what each part measured).
The walk's counters of a window (cells visited, and pruned by `PoR` or
`Empty`) are worked out from the rows' breakpoints only when a caller asks
for them (`CoreIndex.counters`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat

from . import txcq
from .graph import CoreSnapshot, TemporalGraph, TimeInterval
from .tcq import EngineStats
from .tel import TEL

# a graph gets an index only if its ranks x pair runs are at most this: a
# build then steps over at most that many runs, and the first reads of the
# cores of a larger graph, which cost a first `engagement` query about 2.5
# times its walk (README), stay off the index
MAX_CORE_INDEX_SIZE = 300_000


class CoreIndex:
    """The breakpoints of every row of graph `g`'s schedule at `k`, in ranks.

    `cols[r]` lists row r's breakpoints ascending and `edges[r]` the edge
    count of the core at each; rows with the same cores share both lists.
    `cores[r]` holds `(b, edge_count, pairs, order, n)` for each distinct
    core with TTI (r, b), ascending by b: `pairs` counts its distinct
    adjacent vertex pairs, and its vertices are `order[:n]`, where `order`
    is the vertex order of the sweep that found it, shared by all of that
    sweep's cores; `core_rows` lists the rows whose `cores` are not empty,
    ascending.  `read[(s, b)]` holds `(snapshot, ltis)` for each core
    read so far: its snapshot, captured off `order`, `n` and `pairs`, and
    its loosest rank cells over the whole schedule.
    """

    def __init__(self, g: TemporalGraph, k: int):
        self.graph = g
        self.k = k
        stamps = g.timestamps
        last = len(stamps) - 1
        self.cols: list = [()] * len(stamps)
        self.edges: list = [()] * len(stamps)
        self.cores: list = [()] * len(stamps)
        self.read: dict = {}
        head = TEL.from_graph(g)
        head.decompose(k)
        swept = []  # (s, t, cols, edges, tail) per sweep, by ascending t
        s = 0
        while s <= last and head.edge_count:
            t = bisect_left(stamps, head.tti().ts, s)  # rows s..t hold the same cores
            cols, edges, self.cores[t], tail = self._sweep(head.clone(), t)
            swept.append((s, t, cols, edges, tail))
            s = t + 1
            if s <= last:
                head.tcd(k, (stamps[s], stamps[last]))
        for s, t, cols, edges, tail in reversed(swept):  # a tail's row is complete
            if tail is not None:
                row, b = tail
                i = bisect_right(self.cols[row], b)
                cols = self.cols[row][:i] + cols
                edges = self.edges[row][:i] + edges
            self.cols[s : t + 1] = [cols] * (t + 1 - s)
            self.edges[s : t + 1] = [edges] * (t + 1 - s)
        self.core_rows = [s for s, cores in enumerate(self.cores) if cores]

    def _sweep(self, walker: TEL, s: int):
        """Row s's breakpoints, their edge counts and its distinct cores,
        read off `walker`, which holds core([s, last]) and is consumed.

        The sweep stops at the first core with no edge stamped s: if its TTI
        is (t, b), row s equals row t from column b down, so the row's tail
        is returned as (t, b), else None."""
        stamps, k = self.graph.timestamps, self.k
        mult = walker.neighbor_mult
        cols, edges, pairs, sizes = [], [], [], []
        left = []  # the vertices that left, in the order they left
        tail = None
        while walker.edge_count:
            tti = walker.tti()
            b = bisect_left(stamps, tti.te, s)
            if tti.ts != stamps[s]:
                tail = bisect_left(stamps, tti.ts, s), b
                break
            cols.append(b)
            edges.append(walker.edge_count)
            pairs.append(walker.pairs)
            sizes.append(len(mult))
            if b == s:
                break
            # the walker is a k-core, so only the cut's endpoints start the peel
            touched = walker.truncate((stamps[s], stamps[b - 1]))
            left += {v for v in touched if v not in mult}
            left += walker.decompose(k, touched)
        order = (*mult, *reversed(left))
        cols.reverse()
        edges.reverse()
        cores = list(zip(cols, edges, reversed(pairs), repeat(order), reversed(sizes)))
        return cols, edges, cores, tail

    def locate(self, window) -> list:
        """Every distinct nonempty core of `window` as a `ZoneRecord`, ascending
        by TTI, with its LTIs raw and by descending te.  These are the cores
        of the window's rows lo..hi whose TTI ends by hi: the rows are taken
        off `core_rows`, and a row's cores ascend by TTI end, so its read
        stops at the first that ends past hi.

        A core's LTIs are its loosest rank cells over the whole schedule
        (`read`), by descending row and column, each the topmost of the rows
        that end in its column.  They are cut at row lo and column hi, and
        each is widened to the raw stamps around it: a cell reaches from
        just past the previous stamp (or the window's start) to just before
        the next one (or the window's end).  The cells cut at hi come first,
        and the topmost of them contains the rest, so it replaces them.  The
        read's counters are not kept; `counters` works them out on request."""
        stamps = self.graph.timestamps
        ts, te = window
        lo, hi = bisect_left(stamps, ts), bisect_right(stamps, te) - 1
        zones: list = []
        if lo > hi:
            return zones
        first, end = max(ts, stamps[0]), min(te, stamps[-1])
        read, cores, rows = self.read, self.cores, self.core_rows
        new, zone, interval = tuple.__new__, txcq.ZoneRecord, TimeInterval
        for s in rows[bisect_left(rows, lo) : bisect_right(rows, hi)]:
            for core in cores[s]:
                b = core[0]
                if b > hi:
                    break
                snap, ltis = read.get((s, b)) or self._first_read(s, *core)
                cells: list = []
                for r, c in ltis:
                    cell = new(interval, (
                        first if r <= lo else stamps[r - 1] + 1, end if c >= hi else stamps[c + 1] - 1
                    ))
                    if c >= hi and cells:
                        cells[-1] = cell
                    else:
                        cells.append(cell)
                    if r <= lo:
                        break
                zones.append(new(zone, (snap, snap.tti, tuple(cells))))
        return zones

    def counters(self, window) -> EngineStats:
        """The counters of `window`'s read, accounted as a walk would: of
        each row's rank cells inside the window, the empty prefix and the
        span from each breakpoint to the next are one visited cell each;
        the rest of an empty prefix counts as pruned by `Empty`, the rest
        of a span by `PoR`.  Nothing is decomposed, and no rule fires.
        They depend on the window alone, so they are the same whenever
        they are asked for."""
        stats = EngineStats(algorithm="core-index")
        stamps = self.graph.timestamps
        lo, hi = bisect_left(stamps, window[0]), bisect_right(stamps, window[1]) - 1
        if lo > hi:
            return stats
        visited = empties = empty_cells = zones = 0
        for s in range(lo, hi + 1):
            cols = self.cols[s]
            reached = bisect_right(cols, hi)
            empty = (cols[0] if reached else hi + 1) - s  # columns before the first breakpoint
            visited += reached + (empty > 0)
            empties += empty > 0
            empty_cells += empty
            zones += sum(core[0] <= hi for core in self.cores[s])
        n = hi - lo + 1
        stats.cells_total = n * (n + 1) // 2
        stats.cells_visited = visited
        stats.pruned_by_rule["Empty"] = empty_cells - empties
        stats.pruned_by_rule["PoR"] = stats.cells_total - visited - empty_cells + empties
        stats.distinct_cores = zones
        return stats

    def _first_read(self, s: int, b: int, edge_count: int, pairs: int, order: tuple, n: int) -> tuple:
        """Capture the core with rank TTI (s, b) off its sweep's order, walk
        its LTIs, and keep both."""
        last = len(self.cols) - 1
        ltis: list = []
        for r in range(s, -1, -1):
            cols = self.cols[r]
            i = bisect_right(cols, b) - 1
            if i < 0 or self.edges[r][i] != edge_count:
                break  # row r's core at b is larger, and so is every row's above it
            c = cols[i + 1] - 1 if i + 1 < len(cols) else last
            if ltis and ltis[-1][1] == c:
                ltis[-1] = (r, c)  # row r's loosest cell contains row r + 1's
            else:
                ltis.append((r, c))
        tti = TimeInterval(self.graph.timestamps[s], self.graph.timestamps[b])
        snap = CoreSnapshot.captured(order, n, tti, self.k, edge_count, pairs, None, self.graph)
        entry = self.read[s, b] = snap, tuple(ltis)
        return entry

