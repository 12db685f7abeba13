"""Temporal edge list: the mutable working representation of temporal cores.

Each edge node is threaded through three doubly-linked lists at once: the
time list of its timestamp (buckets on an ascending timeline), the source
list of one endpoint, and the destination list of the other.  Unlinking a
node is O(1) in all three, so truncating a window or peeling a vertex costs
time proportional to the edges actually removed, and the surviving
[min, max] timestamp pair reads off the timeline ends in O(1).

Degree is the number of distinct surviving neighbors, maintained through
per-pair parallel-edge counts, so parallel edges never inflate it.
"""

from __future__ import annotations

from collections import deque

from .graph import (
    ContractViolation,
    CoreSnapshot,
    TemporalEdge,
    TemporalGraph,
    TimeInterval,
    _edge_order,
    _edges_within,
)


class _Node:
    """One edge occurrence; prev/next links per list family.

    tp/tn: time list, sp/sn: source list of u, dp/dn: destination list of v.
    Sentinels reuse the class with u = v = t = None.
    """

    __slots__ = ("u", "v", "t", "tp", "tn", "sp", "sn", "dp", "dn", "alive")

    def __init__(self, u=None, v=None, t=None):
        self.u = u
        self.v = v
        self.t = t
        self.tp = self.tn = self.sp = self.sn = self.dp = self.dn = None
        self.alive = True


def _list_head() -> _Node:
    head = _Node()
    head.tp = head.tn = head.sp = head.sn = head.dp = head.dn = head
    return head


class _Bucket:
    """Timeline entry holding the time list of a single timestamp."""

    __slots__ = ("t", "prev", "next", "head", "size")

    def __init__(self, t=None):
        self.t = t
        self.prev = None
        self.next = None
        self.head = _list_head()
        self.size = 0


class TEL:
    """Triply-linked temporal edge list.

    `represents` is the window this structure was last narrowed to; the
    invariant is that the content lies within that window's projection and
    contains that window's k-core, so any sub-window's core can still be
    induced from it.  `decompose` tightens the content to exactly the core.
    """

    def __init__(self):
        self._head = _Bucket()
        self._tail = _Bucket()
        self._head.next = self._tail
        self._tail.prev = self._head
        self._buckets: dict[int, _Bucket] = {}
        self._sl: dict = {}
        self._dl: dict = {}
        self.neighbor_mult: dict = {}
        self.degree: dict = {}
        self.edge_count = 0
        self.represents: TimeInterval | None = None
        self.k_applied: int | None = None
        # the source graph's edge tuple, which captured cores read lazily
        self.graph_edges: tuple[TemporalEdge, ...] | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_graph(cls, g: TemporalGraph, window=None) -> "TEL":
        """The graph's edges, or with `window` only the edges inside it,
        found by bisecting the time-sorted edge tuple."""
        tel = cls()
        tel.graph_edges = edges = g.edges
        if window is None:
            tel.represents = g.time_range()
        else:
            w = tel.represents = TimeInterval(*window)
            edges = _edges_within(edges, *w)
        for u, v, t in edges:  # canonical order is ascending by timestamp
            tel._append_edge(u, v, t)
        return tel

    def _append_edge(self, u, v, t):
        bucket = self._buckets.get(t)
        if bucket is None:
            last = self._tail.prev
            if last is not self._head and last.t > t:
                raise ContractViolation("edges must arrive in ascending timestamp order")
            bucket = _Bucket(t)
            bucket.prev = self._tail.prev
            bucket.next = self._tail
            self._tail.prev.next = bucket
            self._tail.prev = bucket
            self._buckets[t] = bucket
        node = _Node(u, v, t)
        th = bucket.head
        node.tp, node.tn = th.tp, th
        th.tp.tn = node
        th.tp = node
        bucket.size += 1
        sl = self._sl.get(u)
        if sl is None:
            sl = self._sl[u] = _list_head()
        node.sp, node.sn = sl.sp, sl
        sl.sp.sn = node
        sl.sp = node
        dl = self._dl.get(v)
        if dl is None:
            dl = self._dl[v] = _list_head()
        node.dp, node.dn = dl.dp, dl
        dl.dp.dn = node
        dl.dp = node
        self._bump(u, v)
        self._bump(v, u)
        self.edge_count += 1

    def _bump(self, a, b):
        mult = self.neighbor_mult.get(a)
        if mult is None:
            mult = self.neighbor_mult[a] = {}
            self.degree[a] = 0
        mult[b] = mult.get(b, 0) + 1
        if mult[b] == 1:
            self.degree[a] += 1

    def clone(self, window=None) -> "TEL":
        """Structurally independent copy; mutations never cross over.

        With `window`, out-of-window edges are simply never copied, which is
        equivalent to (but cheaper than) cloning and then truncating.
        """
        other = TEL()
        other.graph_edges = self.graph_edges
        lo, hi = window if window is not None else (None, None)
        bucket = self._head.next
        while bucket is not self._tail:
            if lo is not None and bucket.t < lo:
                bucket = bucket.next
                continue
            if hi is not None and bucket.t > hi:
                break
            node = bucket.head.tn
            while node is not bucket.head:
                other._append_edge(node.u, node.v, node.t)
                node = node.tn
            bucket = bucket.next
        if window is None or self.represents is None:
            other.represents = self.represents
        else:
            w = TimeInterval(*window)
            s = max(self.represents.ts, w.ts)
            e = min(self.represents.te, w.te)
            other.represents = TimeInterval(s, e) if s <= e else w
        # a windowed copy may have dropped edges, so it is no longer a core
        other.k_applied = self.k_applied if other.edge_count == self.edge_count else None
        return other

    # -- removal --------------------------------------------------------

    def _unlink(self, node: _Node):
        node.sp.sn = node.sn
        node.sn.sp = node.sp
        node.dp.dn = node.dn
        node.dn.dp = node.dp
        node.tp.tn = node.tn
        node.tn.tp = node.tp
        node.alive = False
        bucket = self._buckets[node.t]
        bucket.size -= 1
        if bucket.size == 0:
            bucket.prev.next = bucket.next
            bucket.next.prev = bucket.prev
            del self._buckets[node.t]
        self._drop(node.u, node.v)
        self._drop(node.v, node.u)
        self.edge_count -= 1

    def _drop(self, a, b):
        mult = self.neighbor_mult[a]
        mult[b] -= 1
        if mult[b] == 0:
            del mult[b]
            self.degree[a] -= 1
            if self.degree[a] == 0:
                del self.degree[a]
                del self.neighbor_mult[a]

    def truncate(self, window) -> None:
        """Remove every edge with a timestamp outside `window`, walking the
        timeline inward from whichever ends stick out."""
        w = TimeInterval(*window)
        while self._head.next is not self._tail and self._head.next.t < w.ts:
            self._drain(self._head.next)
        while self._tail.prev is not self._head and self._tail.prev.t > w.te:
            self._drain(self._tail.prev)
        if self.represents is None:
            self.represents = w
        else:
            lo = max(self.represents.ts, w.ts)
            hi = min(self.represents.te, w.te)
            self.represents = TimeInterval(lo, hi) if lo <= hi else w

    def _drain(self, bucket: _Bucket):
        head = bucket.head
        while head.tn is not head:
            self._unlink(head.tn)

    def decompose(self, k: int) -> None:
        """Peel vertices with fewer than k distinct neighbors until the
        content is exactly the k-core of what remained."""
        if k < 1:
            raise ValueError("k must be at least 1")
        worklist = deque(v for v, d in self.degree.items() if d < k)
        while worklist:
            v = worklist.popleft()
            if self.degree.get(v, 0) == 0:
                continue
            doomed = []
            sl = self._sl.get(v)
            if sl is not None:
                node = sl.sn
                while node is not sl:
                    doomed.append(node)
                    node = node.sn
            dl = self._dl.get(v)
            if dl is not None:
                node = dl.dn
                while node is not dl:
                    doomed.append(node)
                    node = node.dn
            for node in doomed:
                other = node.v if node.u == v else node.u
                before = self.degree[other]
                self._unlink(node)
                after = self.degree.get(other, 0)
                if after < before and after == k - 1:
                    worklist.append(other)
        self.k_applied = k

    def tcd(self, k: int, window) -> None:
        """Truncate to `window` then decompose: induces the temporal k-core
        of any sub-window of what this structure currently holds."""
        w = TimeInterval(*window)
        if self.edge_count and self.represents is not None and not self.represents.contains(w):
            raise ContractViolation(
                f"window {w} is not inside the represented window {self.represents}"
            )
        self.truncate(w)
        self.decompose(k)
        self.represents = w

    # -- inspection -----------------------------------------------------

    def tti(self) -> TimeInterval | None:
        """[min, max] surviving timestamp pair, read from the timeline ends."""
        first = self._head.next
        if first is self._tail:
            return None
        return TimeInterval(first.t, self._tail.prev.t)

    def iter_edges(self):
        bucket = self._head.next
        while bucket is not self._tail:
            node = bucket.head.tn
            while node is not bucket.head:
                yield TemporalEdge(node.u, node.v, node.t)
                node = node.tn
            bucket = bucket.next

    def snapshot(self) -> CoreSnapshot:
        """Capture the content in O(|V|): vertex set, TTI and degrees.

        The content is always the subgraph its vertices induce inside its
        TTI (truncating and peeling both keep that), so the edges are left
        in the graph's edge tuple.
        """
        if not self.edge_count:
            return CoreSnapshot(frozenset(), (), None, self.k_applied)
        degrees = dict(self.degree)
        return CoreSnapshot.captured(
            frozenset(degrees), self.tti(), self.k_applied, self.edge_count, degrees, self.graph_edges
        )

    def dump(self) -> str:
        """One line per surviving edge, 't src dst', sorted by (t, src, dst)."""
        return "\n".join(f"{t} {u} {v}" for u, v, t in sorted(self.iter_edges(), key=_edge_order))

    def __len__(self):
        return self.edge_count

    # -- test support ---------------------------------------------------

    def validate(self) -> None:
        """Recompute all bookkeeping from the raw node links and compare."""
        seen = 0
        prev_t = None
        mult: dict = {}
        bucket = self._head.next
        while bucket is not self._tail:
            if prev_t is not None and bucket.t <= prev_t:
                raise AssertionError("timeline not strictly ascending")
            prev_t = bucket.t
            if self._buckets.get(bucket.t) is not bucket:
                raise AssertionError("bucket index out of sync")
            count = 0
            prev_pair = None
            node = bucket.head.tn
            while node is not bucket.head:
                if not node.alive:
                    raise AssertionError("dead node still linked")
                if node.t != bucket.t:
                    raise AssertionError("node filed under wrong timestamp")
                if prev_pair is not None and (node.u, node.v) < prev_pair:
                    raise AssertionError("bucket lost canonical endpoint order")
                prev_pair = (node.u, node.v)
                mult.setdefault(node.u, {}).setdefault(node.v, 0)
                mult[node.u][node.v] += 1
                mult.setdefault(node.v, {}).setdefault(node.u, 0)
                mult[node.v][node.u] += 1
                count += 1
                node = node.tn
            if count != bucket.size:
                raise AssertionError("bucket size out of sync")
            seen += count
            bucket = bucket.next
        if seen != self.edge_count:
            raise AssertionError("edge count out of sync")
        for v, m in mult.items():
            if self.neighbor_mult.get(v) != m:
                raise AssertionError(f"neighbor multiset wrong for {v}")
            if self.degree.get(v) != len(m):
                raise AssertionError(f"degree wrong for {v}")
        for v, d in self.degree.items():
            if d and v not in mult:
                raise AssertionError(f"vertex {v} has degree {d} but no edges")
        sl_total = 0
        for head in self._sl.values():
            node = head.sn
            while node is not head:
                sl_total += 1
                node = node.sn
        dl_total = 0
        for head in self._dl.values():
            node = head.dn
            while node is not head:
                dl_total += 1
                node = node.dn
        if sl_total != self.edge_count or dl_total != self.edge_count:
            raise AssertionError("source/destination lists out of sync")
