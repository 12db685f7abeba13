"""A fixed piece of pure-Python work that measures how fast the host is now.

The host this benchmark runs on changes speed by 1.4-1.9x in spells of
seconds to many minutes, and everything in the process slows together.  So
the worker runs a fixed kernel before every query and scales each timing by how
long the kernel took beside it: `scaled_ms = ms * REFERENCE_MS / kernel_ms`.
A program that gets slower still reads slower, because the kernel is the
benchmark's own code and its input is fixed here, so no change to the
library moves it.

The kernel splits edge-list lines into slotted objects, indexes them in
dicts and sorts them: allocation, hashing and attribute access, as in the
library's parser and TEL.  Over fifteen minutes of all three workloads'
queries, the host's speed read from it tracked the queries' speed better
than a kernel that also built linked lists and peeled a k-core did.  It runs
with the cyclic collector off, so that its time does not depend on how many
objects the library keeps alive in the same process.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# kernel time, in ms, of the host the scaled timings refer to: about its
# median on the 2-core Xeon VM described in README.md
REFERENCE_MS = 14.0
NEIGHBOURS = 2  # kernel runs on each side of a timing that set its scale


def _lines(n_vertices=1000, n_edges=4500, n_stamps=100, seed=20230901):
    rng = random.Random(seed)
    return [
        f"{rng.randrange(n_vertices)} {rng.randrange(n_vertices)} {rng.randrange(1, n_stamps + 1)}\n"
        for _ in range(n_edges)
    ]


LINES = _lines()


class _Edge:
    __slots__ = ("u", "v", "t")

    def __init__(self, u, v, t):
        self.u = u
        self.v = v
        self.t = t


def _work():
    edges, seen, by_stamp = [], {}, {}
    for line in LINES:
        a, b, c = line.split()
        e = _Edge(int(a), int(b), int(c))
        edges.append(e)
        seen[(e.u, e.v, e.t)] = e
        by_stamp.setdefault(e.t, []).append(e)
    edges.sort(key=lambda e: (e.t, e.u, e.v))
    return len(seen) + len(by_stamp)


def kernel_ms():
    """Wall time of one kernel run, in ms."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter_ns()
        _work()
        return (time.perf_counter_ns() - started) / 1e6
    finally:
        gc.enable()


def speed_factor(kernel, at):
    """REFERENCE_MS over the median kernel time around position `at` of the
    kernel series: the factor that brings a timing made there to the
    reference host's speed."""
    lo = max(0, min(at, len(kernel) - 1) - NEIGHBOURS)
    return REFERENCE_MS / statistics.median(kernel[lo : lo + 2 * NEIGHBOURS + 1])
