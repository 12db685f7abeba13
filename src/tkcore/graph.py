"""Temporal multigraph model: ingestion, normalization, projection, synthesis.

A temporal graph is an undirected multigraph whose edges carry integer
timestamps.  Parallel edges between the same endpoints are meaningful and
kept, as the count on their timestamped pair's run; self-loops are dropped
at ingestion because degree counts distinct neighbors and a loop never
contributes one.
"""

from __future__ import annotations

import gzip
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from functools import cached_property
from itertools import chain, islice, repeat
from operator import index, itemgetter
from types import MappingProxyType
from typing import Iterable, NamedTuple


# `degree_in` counts a window's distinct neighbors off the vertex's timeline
# slice while the slice holds at most this many pair runs per neighbor of
# the vertex.  Per pair run a slice costs about an eighth of what one
# per-neighbor bisect costs (20-vertex clique, CPython 3.11), so the two
# break even near 8.
SLICE_PER_NEIGHBOR = 8

# `parse_edge_list` reads this many lines at a time and splits each distinct
# line of a block once, so a block bounds what it holds beyond the counts.
_BLOCK_LINES = 1 << 14


class ContractViolation(ValueError):
    """An operation was called outside its stated precondition."""


class TimeInterval(NamedTuple):
    """Closed integer interval [ts, te]."""

    ts: int
    te: int

    def contains(self, other: "TimeInterval") -> bool:
        return self.ts <= other.ts and other.te <= self.te

    @property
    def span(self) -> int:
        return self.te - self.ts

    @property
    def duration(self) -> int:
        """Number of integer timestamps covered, inclusive of both ends."""
        return self.te - self.ts + 1


class TemporalEdge(NamedTuple):
    """Undirected timestamped edge, stored with u <= v."""

    u: int
    v: int
    t: int


def integer_query(k, window) -> tuple[int, TimeInterval]:
    """`k` and `window` as `operator.index` reads them, or `ValueError` when
    it refuses k or either end of the window, or k is below 1."""
    ts, te = window
    try:
        k, window = index(k), TimeInterval(index(ts), index(te))
    except TypeError:
        raise ValueError(f"k={k!r}, window=({ts!r}, {te!r}): k and window ends must be integers") from None
    if k < 1:
        raise ValueError("k must be at least 1")
    return k, window


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _runs_of(counts: dict) -> tuple[tuple[int, int, int, int], ...]:
    """The pair runs `(u, v, t, n)` of a count `{(t, u, v): n}` of distinct
    timestamped pairs, sorted by (t, u, v).  `counts` is emptied as the runs
    are made, so each key is freed as its run replaces it."""
    order = sorted(counts, reverse=True)
    runs = []
    while order:
        key = order.pop()
        t, u, v = key
        runs.append((u, v, t, counts.pop(key)))
    return tuple(runs)


def _expand(runs) -> tuple[TemporalEdge, ...]:
    """The edges of time-sorted pair runs, each run's edge n times, in order."""
    return tuple(chain.from_iterable(repeat(TemporalEdge(u, v, t), n) for u, v, t, n in runs))


class TemporalGraph:
    """Immutable temporal multigraph with dense vertex ids 0..vertex_count-1.

    The graph is stored as its pair runs (`pair_runs`): one plain tuple
    `(u, v, t, n)` per distinct timestamped pair with u < v, n being its
    parallel edges, sorted by (t, u, v).  The constructor, also called as
    `from_edges`, counts `(u, v, t)` edges in either endpoint order into
    runs, and refuses a self-loop, an id outside the vertex range and an id
    or stamp that is not an integer with `ValueError`.  `edges` is one
    `TemporalEdge` per edge, endpoint-ordered and in run order, expanded
    from the runs on first read.  `labels[i]` is the external label of
    vertex i, by default i as a string.  Graphs compare and hash by vertex
    count, labels, dropped self-loops and pair runs.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, int]],
                 labels: Iterable[str] | None = None, self_loops_dropped: int = 0):
        counts: dict = {}
        for edge in edges:
            try:
                u, v, t = map(index, edge)
            except TypeError:
                raise ValueError(f"edge {tuple(edge)}: vertex ids and stamps must be integers") from None
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v},{t}) outside vertex range")
            key = (t, u, v) if u < v else (t, v, u)
            counts[key] = counts.get(key, 0) + 1
        if labels is None:
            labels = tuple(str(i) for i in range(vertex_count))
        else:
            labels = tuple(labels)
            if len(labels) != vertex_count:
                raise ValueError("label count must equal vertex count")
        self.__dict__.update(
            vertex_count=vertex_count,
            pair_runs=_runs_of(counts),
            labels=labels,
            self_loops_dropped=self_loops_dropped,
        )

    @classmethod
    def _of_runs(cls, vertex_count: int, runs: tuple, labels: tuple, self_loops_dropped: int = 0):
        """A graph stored as `runs`, which must be sorted by (t, u, v) with
        one run per distinct (u, v, t) and u < v."""
        g = cls.__new__(cls)
        g.__dict__.update(
            vertex_count=vertex_count,
            pair_runs=runs,
            labels=labels,
            self_loops_dropped=self_loops_dropped,
        )
        return g

    @classmethod
    def from_edges(cls, vertex_count: int, edges, labels=None, self_loops_dropped: int = 0) -> "TemporalGraph":
        return cls(vertex_count, edges, labels, self_loops_dropped)

    def __setattr__(self, name, value):
        raise AttributeError(f"TemporalGraph is immutable; cannot set {name!r}")

    def _key(self) -> tuple:
        return (self.vertex_count, self.labels, self.self_loops_dropped, self.pair_runs)

    def __eq__(self, other):
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"TemporalGraph(vertex_count={self.vertex_count}, pair_runs={self.pair_runs}, "
            f"labels={self.labels}, self_loops_dropped={self.self_loops_dropped})"
        )

    @cached_property
    def edges(self) -> tuple[TemporalEdge, ...]:
        """The runs expanded, built on first read: no engine reads it."""
        return _expand(self.pair_runs)

    @cached_property
    def edge_count(self) -> int:
        return sum(map(_run_count, self.pair_runs))

    @cached_property
    def min_t(self):
        return self.pair_runs[0][2] if self.pair_runs else None

    @cached_property
    def max_t(self):
        return self.pair_runs[-1][2] if self.pair_runs else None

    def label_of(self, vertex: int) -> str:
        return self.labels[vertex]

    def time_range(self) -> TimeInterval | None:
        if not self.pair_runs:
            return None
        return TimeInterval(self.min_t, self.max_t)

    @cached_property
    def timestamps(self) -> tuple[int, ...]:
        """The distinct timestamps, ascending; built on first use."""
        return tuple(dict.fromkeys(map(_edge_time, self.pair_runs)))

    @cached_property
    def core_indexes(self) -> dict:
        """k -> the graph's core-time index at k (`coreindex.CoreIndex`),
        each built on first use by the queries that read it."""
        return {}

    @cached_property
    def _timelines(self) -> dict:
        """vertex -> (stamps, neighbors, per_neighbor), built on first use
        from one pass over `pair_runs`.  `stamps` and `neighbors` are
        parallel lists with one entry per pair run at the vertex, ascending
        by stamp.  `per_neighbor` holds, for each neighbor, the ascending
        distinct stamps of their edges closed by an infinite sentinel, so
        that the first stamp at or after any time is read without a bounds
        test."""
        stamps, neighbors = defaultdict(list), defaultdict(list)
        for u, v, t, _ in self.pair_runs:
            stamps[u].append(t)
            neighbors[u].append(v)
            stamps[v].append(t)
            neighbors[v].append(u)
        timelines = {}  # each vertex's stamps are grouped by neighbor in turn, to bound peak memory
        for x, line in stamps.items():
            by_neighbor: dict = {}
            for t, y in zip(line, neighbors[x]):
                by_neighbor.setdefault(y, []).append(t)
            timelines[x] = (line, neighbors[x], tuple(st + [math.inf] for st in by_neighbor.values()))
        return timelines

    def degree_in(self, vertex: int, window) -> int:
        """Distinct neighbors of `vertex` over the edges inside `window`.

        Two bisects of the vertex's timeline bound its pair runs inside the
        window.  While they number at most SLICE_PER_NEIGHBOR per neighbor
        of the vertex, the distinct neighbors of that slice are counted.
        Past that (many stamps per pair), each neighbor's stamps are
        bisected for one inside the window instead, so a call never costs
        much more than one bisect per neighbor.  Both counts are exact."""
        timeline = self._timelines.get(vertex)
        if timeline is None:
            return 0
        stamps, neighbors, per_neighbor = timeline
        ts, te = window
        lo = bisect_left(stamps, ts)
        hi = bisect_right(stamps, te, lo)
        if hi - lo <= SLICE_PER_NEIGHBOR * len(per_neighbor):
            return len(set(neighbors[lo:hi]))
        count = 0
        for st in per_neighbor:
            if st[bisect_left(st, ts)] <= te:
                count += 1
        return count


_edge_time = itemgetter(2)  # the t of an edge or a pair run
_run_count = itemgetter(3)  # the n of a pair run


def _window_bounds(records: tuple, ts: int, te: int, lo=0, hi=None) -> tuple[int, int]:
    """Index bounds [lo, hi) of the records with ts <= t <= te in a
    time-sorted tuple of edges or pair runs, by bisection; `lo` and `hi`
    limit the search to a slice."""
    lo = bisect_left(records, ts, lo, hi, key=_edge_time)
    return lo, bisect_right(records, te, lo, hi, key=_edge_time)


class CoreSnapshot:
    """A core, identified by its vertex set and its tightest time interval
    (TTI, the [min, max] surviving timestamp pair; None when empty).

    A core is the subgraph its vertices induce inside its TTI, so its edges
    are exactly the graph edges with a timestamp in the TTI and both ends in
    `vertices`.  A capture (`captured`, from a TEL or a core-time index)
    keeps its vertex count, its distinct-pair count (`pair_count`, half
    the degree sum), the vertex order its source holds (its vertices come
    first) and its graph, and builds `vertices`, `edges`, `pair_counts`,
    `least_pair_count` (the least of them, which `frequency` reads),
    `degrees` (distinct neighbors per vertex, a read-only mapping) and
    `neighbor_sets` on first use, the last five off the graph's pair runs
    inside its TTI.  `CoreSnapshot(vertices, edges, tti, k)` takes an
    explicit vertex set and edge tuple instead, and counts `pair_count` off
    the edges on first use; it refuses (`ContractViolation`) a self-loop,
    an edge with an end outside `vertices` or a stamp outside `tti`, and
    edges without a TTI or a TTI without edges.  `engagement` keeps two
    values on a capture evaluated against its own graph: its vertices by
    degree bound, and its value at the core's own TTI, which depends on
    nothing but the graph, the core and the TTI.  An explicit snapshot
    keeps neither.  A snapshot is shared by every evaluation of its core
    and must not be modified otherwise, and one read off a core-time index
    (`coreindex`) by every later query of its graph and k.

    Cores compare by TTI, `edge_count` and `vertex_count`, which settle most
    comparisons in O(1), then by `vertices`, and hash by those three.
    `k` records which degree bound produced the snapshot; it is metadata.
    """

    _graph = None  # the graph a capture was induced from
    engagement_order = None  # kept by `engagement` on first use against its own graph: its vertices by bound
    engagement_at_tti = None  # kept by `engagement` on a capture's first evaluation at its TTI: the value there

    def __init__(self, vertices: frozenset, edges, tti: TimeInterval | None, k: int | None = None):
        edges = tuple(edges)
        if (tti is None) != (not edges):
            raise ContractViolation(
                f"a core has a TTI exactly when it has edges: tti {tti}, {len(edges)} edges"
            )
        for u, v, t in edges:
            if u == v or u not in vertices or v not in vertices or not tti.ts <= t <= tti.te:
                raise ContractViolation(
                    f"edge {(u, v, t)} is not a graph edge between two of the vertices inside the TTI {tti}"
                )
        self.vertices = vertices  # fills the lazy view
        self.vertex_count = len(vertices)
        self.tti = tti
        self.k = k
        self.__dict__["edges"] = edges  # fills the lazy cache
        self.edge_count = len(edges)

    @classmethod
    def captured(cls, order, n, tti, k, edge_count, pairs, degrees, graph) -> "CoreSnapshot":
        """The core of the first `n` of `order` inside `tti`, with `pairs`
        distinct adjacent pairs, whose edges stay in `graph`'s pair runs.
        `degrees` None is left to the first use."""
        snap = cls.__new__(cls)
        snap._order = order
        snap.vertex_count = n
        snap.tti = tti
        snap.k = k
        snap.edge_count = edge_count
        snap.pair_count = pairs
        if degrees is not None:
            snap.__dict__["degrees"] = MappingProxyType(degrees)
        snap._graph = graph
        return snap

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(islice(self._order, self.vertex_count))

    def __eq__(self, other):
        if not isinstance(other, CoreSnapshot):
            return NotImplemented
        return (
            self.tti == other.tti
            and self.edge_count == other.edge_count
            and self.vertex_count == other.vertex_count
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.tti, self.edge_count, self.vertex_count))

    def __repr__(self):
        return f"CoreSnapshot(vertices={sorted(self.vertices)}, tti={self.tti}, k={self.k})"

    @property
    def is_empty(self) -> bool:
        return self.edge_count == 0

    def _pair_runs(self) -> list:
        """The core's pair runs (u, v, t, n) with u < v, none for an empty
        core: a capture's sorted by (t, u, v), an explicit snapshot's
        counted off its edges, in either endpoint order, as first seen."""
        if self.is_empty:
            return []
        if self._graph is None:
            ends = ((u, v, t) if u < v else (v, u, t) for u, v, t in self.edges)
            return [(*e, n) for e, n in Counter(ends).items()]
        vs = self.vertices
        runs = self._graph.pair_runs
        lo, hi = _window_bounds(runs, *self.tti)
        return [run for run in runs[lo:hi] if run[0] in vs and run[1] in vs]

    @cached_property
    def edges(self) -> tuple[TemporalEdge, ...]:
        return _expand(self._pair_runs())

    @cached_property
    def pair_count(self) -> int:
        return len({(u, v) for u, v, _, _ in self._pair_runs()})

    @cached_property
    def degrees(self) -> MappingProxyType:
        counts = Counter(chain.from_iterable({(u, v) for u, v, _, _ in self._pair_runs()}))
        return MappingProxyType({v: counts[v] for v in self.vertices})

    @cached_property
    def neighbor_sets(self) -> dict:
        out: dict = {v: set() for v in self.vertices}
        for u, v, _, _ in self._pair_runs():
            out[u].add(v)
            out[v].add(u)
        return {v: frozenset(s) for v, s in out.items()}

    @cached_property
    def pair_counts(self) -> Counter:
        """Parallel-edge count per adjacent vertex pair."""
        counts: Counter = Counter()
        for u, v, _, n in self._pair_runs():
            counts[u, v] += n
        return counts

    @cached_property
    def least_pair_count(self) -> int:
        """The least of `pair_counts`, counted in a dict that is not kept."""
        counts: dict = {}
        for u, v, _, n in self._pair_runs():
            counts[u, v] = counts.get((u, v), 0) + n
        return min(counts.values())

    def neighbors(self, v) -> frozenset:
        return self.neighbor_sets[v]


def project(g: TemporalGraph, window) -> TemporalGraph:
    """Restrict the edge multiset to timestamps inside `window`.

    The vertex universe is unchanged: projection never renames or drops
    vertices, only edges.
    """
    w = TimeInterval(*window)
    runs = g.pair_runs
    lo, hi = _window_bounds(runs, w.ts, w.te)
    return TemporalGraph._of_runs(g.vertex_count, runs[lo:hi], g.labels)


def parse_edge_list(lines: Iterable[str]) -> TemporalGraph:
    """Parse whitespace-separated `src dst timestamp` lines.

    Extra trailing fields are ignored, `#` comment lines and blank
    lines are skipped, labels are assigned dense ids in order of first
    appearance, and self-loops are dropped but tallied on the result.
    Parallel edges are counted as they are read, so the graph holds one
    pair run per distinct timestamped pair and never one record per line.

    The lines are read in blocks of _BLOCK_LINES.  Each block's repeats
    are counted first, and each distinct line of a block is split once,
    adding its count to its pair run, so beyond the pair-run counts the
    parser holds at most one block of lines.  A block's distinct lines
    are taken in order of first appearance, so ids and the line number of
    the first malformed line are those of a line-by-line read.
    """
    label_ids: dict = {}
    label = label_ids.get
    counts: dict = {}
    count = counts.get
    loops = 0
    start = 0  # lines read before this block
    read = iter(lines)
    while block := list(islice(read, _BLOCK_LINES)):
        for raw, n in Counter(block).items():
            parts = raw.split()
            try:
                a, b, t = parts
            except ValueError:  # blank, comment, short, or extra fields
                if not parts or parts[0][0] == "#":
                    continue
                if len(parts) < 3:
                    raise ParseError(start + block.index(raw) + 1,
                                     f"expected 'src dst timestamp', got {raw.strip()!r}") from None
                a, b, t = parts[:3]
            if a[0] == "#":
                continue
            try:
                t = int(t)
            except ValueError:
                raise ParseError(start + block.index(raw) + 1, f"timestamp is not an integer: {t!r}") from None
            u = label(a)
            if u is None:
                u = label_ids[a] = len(label_ids)
            v = label(b)
            if v is None:
                v = label_ids[b] = len(label_ids)
            if u < v:
                key = (t, u, v)
            elif v < u:
                key = (t, v, u)
            else:
                loops += n
                continue
            counts[key] = count(key, 0) + n
        start += len(block)
    if not label_ids:
        raise ParseError(0, "no edges in input")
    return TemporalGraph._of_runs(len(label_ids), _runs_of(counts), tuple(label_ids), loops)


def load_edge_list(path) -> TemporalGraph:
    """Read an edge list from `path`; '.gz' files are decompressed."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
        return parse_edge_list(fh)


def normalize_timestamps(g: TemporalGraph, mode: str, width: int | None = None) -> TemporalGraph:
    """Map raw timestamps onto small positive integers.

    bucket: t' = (t - min_t) // width + 1, so each bucket covers `width`
    raw units.  rank: distinct timestamps become 1..m in ascending order,
    which is idempotent.  Each pair run is remapped whole.
    """
    if g.edge_count == 0:
        raise ValueError("cannot normalize a graph with no edges")
    if mode == "bucket":
        try:
            width = index(width)
        except TypeError:
            width = 0  # refused with the widths below 1
        if width <= 0:
            raise ValueError("bucket width must be a positive integer")
        lo = g.min_t
        # a bucket merges stamps, so runs of a later stamp may now sort
        # first, and runs of one pair at two stamps may become one run
        counts: dict = {}
        for u, v, t, n in g.pair_runs:
            key = ((t - lo) // width + 1, u, v)
            counts[key] = counts.get(key, 0) + n
        runs = _runs_of(counts)
    elif mode == "rank":
        ranks = {t: i for i, t in enumerate(g.timestamps, start=1)}
        runs = tuple((u, v, ranks[t], n) for u, v, t, n in g.pair_runs)
    else:
        raise ValueError(f"unknown normalization mode: {mode!r}")
    return TemporalGraph._of_runs(g.vertex_count, runs, g.labels, g.self_loops_dropped)


def generate_synthetic(
    n_vertices: int, n_edges: int, n_timestamps: int, model: str, seed: int
) -> TemporalGraph:
    """Deterministically generate a temporal multigraph.

    Models: `uniform` picks endpoint pairs and timestamps uniformly;
    `preferential` biases one endpoint toward already-busy vertices;
    `planted-community` embeds dense vertex groups that are only active in
    short random sub-windows, so k-cores exist in specific subintervals
    against a sparse background.
    """
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    if n_edges < 1 or n_timestamps < 1:
        raise ValueError("edge and timestamp counts must be positive")
    rng = random.Random(seed)

    def distinct_pair():
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices - 1)
        if v >= u:
            v += 1
        return u, v

    edges: list[tuple[int, int, int]] = []
    if model == "uniform":
        for _ in range(n_edges):
            u, v = distinct_pair()
            edges.append((u, v, rng.randint(1, n_timestamps)))
    elif model == "preferential":
        endpoints: list[int] = []
        for _ in range(n_edges):
            u = rng.randrange(n_vertices)
            if endpoints and rng.random() < 0.8:
                v = rng.choice(endpoints)
            else:
                v = rng.randrange(n_vertices)
            if v == u:
                v = (u + 1 + rng.randrange(n_vertices - 1)) % n_vertices
            edges.append((u, v, rng.randint(1, n_timestamps)))
            endpoints.extend((u, v))
    elif model == "planted-community":
        ids = list(range(n_vertices))
        rng.shuffle(ids)
        width = 2 if n_timestamps >= 2 else 1
        communities = []
        cursor = 0
        target = max(1, n_vertices // 350)
        for _ in range(target):
            size = min(n_vertices - cursor, max(4, rng.randint(12, 28)))
            if size < 4:
                break
            members = ids[cursor : cursor + size]
            cursor += size
            a = rng.randint(1, max(1, n_timestamps - width + 1))
            b = min(n_timestamps, a + width - 1)
            communities.append((members, a, b))
        planted = round(n_edges * 0.94) if communities else 0
        for j in range(n_edges):
            if j < planted:
                members, a, b = communities[j % len(communities)]
                u, v = rng.sample(members, 2)
                edges.append((u, v, rng.randint(a, b)))
            else:
                u, v = distinct_pair()
                edges.append((u, v, rng.randint(1, n_timestamps)))
    else:
        raise ValueError(f"unknown synthetic model: {model!r}")
    return TemporalGraph.from_edges(n_vertices, edges)
