"""Temporal edge list: the mutable working representation of temporal cores.

A TEL holds no edges of its own.  It keeps a window `_lo:_hi` over the
graph's pair runs (`TemporalGraph.pair_runs`: one record (u, v, t, n) per
distinct timestamped pair, n its parallel edges, sorted by (t, u, v)), and
for each surviving vertex the number of parallel edges to each surviving
neighbor inside that window (`neighbor_mult`).  A vertex survives while it
has an entry.  The content is, by invariant, the window's edges whose two
endpoints both survive: truncating and peeling always leave exactly the
subgraph that the surviving vertices induce inside the window, so nothing
else is stored.  Its number of distinct adjacent pairs (`pairs`, half the
degree sum) is counted once on building and lowered by one subtraction per
truncation and per peeled vertex, so a capture reads it in O(1).

The unit of work is a pair run, so n parallel edges at one timestamp cost
one step.  Building adds each run's n to its pair's count; truncating
bisects the window's new ends and subtracts the n of each run cut off.
Peeling pops a vertex's neighbor map, so it costs the vertex's distinct
neighbors, not its edges; when a truncation cuts a k-core, the peel starts
from the endpoints the cut touched instead of scanning every vertex.  A
clone copies the pair counts and no runs.  The surviving [min, max]
timestamp pair reads off the window ends once they are stepped past dead
runs, which never come back.  Degree is the number of distinct surviving
neighbors, so parallel edges never inflate it.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat

from .graph import (
    ContractViolation,
    CoreSnapshot,
    TemporalEdge,
    TemporalGraph,
    TimeInterval,
    _window_bounds,
)


class TEL:
    """A window over a graph's pair runs plus per-vertex neighbor counts.

    `represents` is the window this structure was last narrowed to; the
    invariant is that the content lies within that window's projection and
    contains that window's k-core, so any sub-window's core can still be
    induced from it.  `decompose` tightens the content to exactly the core.
    `edge_count` counts the content's edges and `pairs` its distinct
    adjacent vertex pairs.
    """

    def __init__(self, graph, lo, hi, neighbor_mult, edge_count, pairs, represents, k_applied=None):
        self.graph: TemporalGraph = graph
        # the graph's pair runs, which the window `_lo:_hi` indexes
        self.runs = graph.pair_runs
        self._lo = lo
        self._hi = hi
        self.neighbor_mult: dict = neighbor_mult
        self.edge_count = edge_count
        self.pairs = pairs
        self.represents: TimeInterval | None = represents
        self.k_applied: int | None = k_applied

    # -- construction ---------------------------------------------------

    @classmethod
    def from_graph(cls, g: TemporalGraph, window=None) -> "TEL":
        """The graph's edges, or with `window` only the edges inside it,
        found by bisecting the time-sorted pair runs."""
        runs = g.pair_runs
        if window is None:
            represents = g.time_range()
            lo, hi = 0, len(runs)
        else:
            represents = TimeInterval(*window)
            lo, hi = _window_bounds(runs, *represents)
        mult: dict = {}
        edge_count = 0
        for u, v, _, n in runs[lo:hi]:
            edge_count += n
            mu = mult.get(u)  # not setdefault, which builds a dict every call
            if mu is None:
                mu = mult[u] = {}
            mv = mult.get(v)
            if mv is None:
                mv = mult[v] = {}
            mu[v] = mv[u] = mu.get(v, 0) + n
        pairs = sum(map(len, mult.values())) >> 1  # each pair sits in both endpoints' maps
        return cls(g, lo, hi, mult, edge_count, pairs, represents)

    def clone(self) -> "TEL":
        """Independent copy of the pair counts; mutations never cross over."""
        return TEL(
            self.graph,
            self._lo,
            self._hi,
            {a: dict(m) for a, m in self.neighbor_mult.items()},
            self.edge_count,
            self.pairs,
            self.represents,
            self.k_applied,
        )

    # -- removal --------------------------------------------------------

    def truncate(self, window) -> list:
        """Remove every edge with a timestamp outside `window` by bisecting
        the window's new ends and subtracting the n of each pair run cut
        off.  Content that lost edges is no longer a core, so `k_applied` is
        cleared.  Returns the endpoints whose distinct-neighbor count fell,
        the only vertices that can have fallen below a degree bound."""
        w = TimeInterval(*window)
        runs, lo, hi = self.runs, self._lo, self._hi
        self._lo, self._hi = _window_bounds(runs, w.ts, w.te, lo, hi)
        mult = self.neighbor_mult
        before = self.edge_count
        touched = []
        for u, v, _, n in chain(runs[lo : self._lo], runs[self._hi : hi]):
            mu, mv = mult.get(u), mult.get(v)
            if mu is None or mv is None:
                continue  # already dead
            self.edge_count -= n
            left = mu[v] - n
            if left:
                mu[v] = mv[u] = left
                continue
            del mu[v], mv[u]
            touched += (u, v)
            if not mu:
                del mult[u]
            if not mv:
                del mult[v]
        self.pairs -= len(touched) >> 1  # two endpoints per pair dropped
        if self.edge_count != before:
            self.k_applied = None
        if self.represents is None:
            self.represents = w
        else:
            s = max(self.represents.ts, w.ts)
            e = min(self.represents.te, w.te)
            self.represents = TimeInterval(s, e) if s <= e else w
        return touched

    def decompose(self, k: int, touched=None) -> list:
        """Peel vertices with fewer than k distinct neighbors until the
        content is exactly the k-core of what remained, and return the
        peeled vertices in the order they left.  When the content was a
        k-core before a truncation, the endpoints that truncation returned
        (`touched`) are the only vertices that can start the peel, so no
        other vertex is scanned."""
        if k < 1:
            raise ValueError("k must be at least 1")
        mult = self.neighbor_mult
        if touched is None:
            doomed = [v for v, m in mult.items() if len(m) < k]
        else:
            doomed = list({v for v in touched if v in mult and len(mult[v]) < k})
        dropped = gone = 0
        peeled = []
        while doomed:
            v = doomed.pop()
            peeled.append(v)
            mv = mult.pop(v)
            gone += len(mv)
            for b, count in mv.items():
                mb = mult[b]
                del mb[v]
                if len(mb) == k - 1:  # b just fell below k, and only now
                    doomed.append(b)
                dropped += count
        self.edge_count -= dropped
        self.pairs -= gone
        self.k_applied = k
        return peeled

    def tcd(self, k: int, window) -> None:
        """Truncate to `window` then decompose: induces the temporal k-core
        of any sub-window of what this structure currently holds.  When the
        content is already a k-core, the peel starts only from the vertices
        the truncation touched."""
        w = TimeInterval(*window)
        if self.edge_count and self.represents is not None and not self.represents.contains(w):
            raise ContractViolation(
                f"window {w} is not inside the represented window {self.represents}"
            )
        was_core = self.k_applied == k
        touched = self.truncate(w)
        self.decompose(k, touched if was_core else None)
        self.represents = w

    # -- inspection -----------------------------------------------------

    def tti(self) -> TimeInterval | None:
        """[min, max] surviving timestamp pair, read from the window ends
        after stepping them past dead pair runs."""
        if not self.edge_count:
            return None
        runs, mult = self.runs, self.neighbor_mult  # a run is (u, v, t, n)
        lo, hi = self._lo, self._hi - 1
        while runs[lo][0] not in mult or runs[lo][1] not in mult:
            lo += 1
        while runs[hi][0] not in mult or runs[hi][1] not in mult:
            hi -= 1
        self._lo, self._hi = lo, hi + 1
        return TimeInterval(runs[lo][2], runs[hi][2])

    def iter_edges(self):
        """The content, in the graph's (t, u, v) order."""
        mult = self.neighbor_mult
        for u, v, t, n in self.runs[self._lo : self._hi]:
            if u in mult and v in mult:
                yield from repeat(TemporalEdge(u, v, t), n)

    def snapshot(self) -> CoreSnapshot:
        """Capture the content in O(|V|): its TTI, its degrees by vertex and
        its distinct-pair count.

        The content is always the subgraph its vertices induce inside its
        TTI (truncating and peeling both keep that), so the edges are left
        in the graph's pair runs.  Empty content is captured the same way.
        """
        degrees = {v: len(m) for v, m in self.neighbor_mult.items()}  # distinct neighbors
        return CoreSnapshot.captured(
            degrees, len(degrees), self.tti(), self.k_applied, self.edge_count, self.pairs, degrees,
            self.graph,
        )

    # -- test support ---------------------------------------------------

    def validate(self) -> None:
        """Recount the pair runs, edges and distinct pairs and compare, and
        check that every run between survivors inside `represents` is
        content."""
        runs, lo, hi = self.runs, self._lo, self._hi
        if not 0 <= lo <= hi <= len(runs):
            raise AssertionError("window out of range")
        alive = self.neighbor_mult
        mult: dict = {}
        seen = 0
        for u, v, _, n in runs[lo:hi]:
            if u in alive and v in alive:
                mult.setdefault(u, Counter())[v] += n
                mult.setdefault(v, Counter())[u] += n
                seen += n
        if seen != self.edge_count:
            raise AssertionError("edge count out of sync")
        if mult != alive:
            raise AssertionError("neighbor counts out of sync")
        if sum(map(len, mult.values())) != 2 * self.pairs:
            raise AssertionError("distinct pair count out of sync")
        if self.represents is not None:
            a, b = _window_bounds(runs, *self.represents)
            if lo < hi and (lo < a or hi > b):
                raise AssertionError(f"window reaches outside {self.represents}")
            for u, v, _, _ in chain(runs[a:lo], runs[hi:b]):
                if u in alive and v in alive:
                    raise AssertionError(f"edge {u}-{v} between survivors is missing")
