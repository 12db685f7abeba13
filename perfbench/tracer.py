"""Spans around the library's layer boundaries, installed from outside.

`Tracer.install()` replaces public functions and methods of `tkcore` with
wrappers for the duration of a `with` block and restores them afterwards;
nothing under `src/` is edited.  A name is wrapped where its caller looks it
up: `evaluate`, `rectangle_prune`, `zone_member_intervals` and
`run_tcd_star` are rebound in `tkcore.txcq`, which imported them by name.

Spans are kept in memory as (id, parent, query, name, start_ns, end_ns,
edges) tuples and written out, gzipped, when the run ends.  A span's self time is its
duration minus the part its child spans cover, minus what the wrappers of
those children cost outside their spans (`wrapper_cost_ns`).
"""

from __future__ import annotations

import gzip
import time
from contextlib import contextmanager

from tkcore import tcq, tel, txcq

now = time.perf_counter_ns


def copied(args, result, before):
    return result.edge_count


def unlinked(args, result, before):
    return before - args[0].edge_count


def listed(args, result, before):
    return len(result)


def wrapper_cost_ns(calls=20_000, repeats=5):
    """What one wrapper adds outside its own span, in ns: the bookkeeping
    before `start` and after `end`, which lands in the caller's self time.

    Timed on an empty function, wrapped against unwrapped, and the fastest
    of `repeats` rounds is kept, as the host's speed swings.
    """

    def empty():
        return None

    best = None
    for _ in range(repeats):
        probe = Tracer()
        wrapped = probe.wrap("probe", empty)
        started = now()
        for _ in range(calls):
            empty()
        direct = now() - started
        started = now()
        for _ in range(calls):
            wrapped()
        total = now() - started
        inside = sum(span[5] - span[4] for span in probe.spans)
        cost = (total - inside - direct) / calls
        best = cost if best is None else min(best, cost)
    return max(best, 0.0)


class Tracer:
    def __init__(self):
        self.spans = []  # finished spans, in end order
        self._stack = []  # ids of the open spans, innermost last
        self._next_id = 0
        self.query = -1  # index of the query being traced
        self.captured = {}  # query -> set of TTIs captured by TEL.snapshot

    def wrap(self, name, fn, edges=None):
        """`fn` inside a span; `edges(args, result, before)` counts its work,
        where `before` is the first argument's edge count on entry.

        The span is kept by hand, without a context manager, because some
        of these functions run hundreds of thousands of times in a query.
        """
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            before = getattr(args[0], "edge_count", None) if edges and args else None
            returned = False
            start = now()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:  # a span that raised is kept too, with no work counted
                end = now()
                stack.pop()
                n = edges(args, result, before) if returned and edges else 0
                tracer.spans.append((sid, parent, tracer.query, name, start, end, n))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _snapshot(self, fn):
        wrapped = self.wrap("tel.capture", fn, copied)

        def snapshot(self_tel):
            snap = wrapped(self_tel)
            self.captured.setdefault(self.query, set()).add(snap.tti)
            return snap

        return snapshot

    @contextmanager
    def install(self):
        """Wrap the layers' public entry points; missing names are skipped."""
        plan = [
            (
                tel.TEL,
                "from_graph",  # a classmethod: wrap the function inside it
                lambda f: classmethod(self.wrap("tel.build", f.__func__, copied)),
            ),
            (tel.TEL, "clone", lambda f: self.wrap("tel.clone", f, copied)),
            (tel.TEL, "truncate", lambda f: self.wrap("tel.truncate", f, unlinked)),
            (tel.TEL, "decompose", lambda f: self.wrap("tel.peel", f, unlinked)),
            (tel.TEL, "snapshot", self._snapshot),
            (tcq, "apply_pruning", lambda f: self.wrap("tcq.prune", f)),
            (tcq, "empty_prune", lambda f: self.wrap("tcq.prune", f)),
            (txcq, "rectangle_prune", lambda f: self.wrap("tcq.prune", f)),
            (tcq.PruneTable, "next_unpruned", lambda f: self.wrap("tcq.next_unpruned", f)),
            (txcq, "evaluate", lambda f: self.wrap("measures.evaluate", f)),
            (txcq, "zone_member_intervals", lambda f: self.wrap("txcq.members", f, listed)),
            (txcq, "run_tcd_star", lambda f: self.wrap("txcq.tcd_star", f)),
        ]
        saved = []
        try:
            for owner, attr, make in plan:
                if attr in vars(owner):
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Gzipped tab-separated spans, times in ns from the first start."""
        origin = min((span[4] for span in self.spans), default=0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tquery\tname\tstart_ns\tend_ns\tedges\n")
            for sid, parent, query, name, start, end, edges in self.spans:
                parent = "" if parent is None else parent
                fh.write(f"{sid}\t{parent}\t{query}\t{name}\t{start - origin}\t{end - origin}\t{edges}\n")
