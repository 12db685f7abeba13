"""Seeded workload inputs, kept apart from the library's own generator.

The graphs follow the library's planted-community model: dense vertex
groups, each active in a two-stamp window, over a sparse uniform background
that holds 6% of the edges.  Three things are fixed here that the library
leaves to chance, so that one seed costs about as much as another: every
group has GROUP_SIZE vertices, group i's window sits near the middle of the
i-th equal slice of the timeline, and no background edge joins two group
members (such an edge would add a variant of a planted core).  Inputs leave
this module only as edge-list text, so a change to the library cannot
change a workload.
"""

from __future__ import annotations

import random

GROUP_SIZE = 20
PLANTED_SHARE = 0.94
RAW_EPOCH = 1_600_000_000  # first stamp of a gapped workload, in unix seconds
RAW_MAX_GAP = 2000  # seconds; each later gap is a uniform draw from 1..RAW_MAX_GAP


def slice_of(group: int, n_groups: int, n_timestamps: int) -> tuple[int, int]:
    """First and last stamp of the timeline slice that holds `group`."""
    width = n_timestamps / n_groups
    return int(group * width) + 1, int((group + 1) * width)


def planted_community(n_vertices, n_edges, n_timestamps, n_groups, seed):
    """Edges (u, v, t) and the (first, last) stamp of each group's window."""
    rng = random.Random(seed)
    ids = list(range(n_vertices))
    rng.shuffle(ids)
    groups = []
    for i in range(n_groups):
        lo, hi = slice_of(i, n_groups, n_timestamps)
        jitter = (hi - lo) // 4
        a = (lo + hi) // 2 + rng.randint(-jitter, jitter)
        groups.append((ids[i * GROUP_SIZE : (i + 1) * GROUP_SIZE], a, a + 1))
    in_group = {v for members, _, _ in groups for v in members}
    planted = round(n_edges * PLANTED_SHARE)
    edges = []
    for j in range(n_edges):
        if j < planted:
            members, a, b = groups[j % n_groups]
            u, v = rng.sample(members, 2)
            edges.append((u, v, rng.randint(a, b)))
            continue
        while True:  # a background edge never joins two group members
            u = rng.randrange(n_vertices)
            v = rng.randrange(n_vertices - 1)
            v += v >= u
            if u not in in_group or v not in in_group:
                break
        edges.append((u, v, rng.randint(1, n_timestamps)))
    return edges, [(a, b) for _, a, b in groups]


def gapped_stamps(n_timestamps: int, seed: int) -> dict:
    """Map stamps 1..n onto unix seconds: stamp 1 is RAW_EPOCH and each
    later gap is a seeded uniform draw from 1 to RAW_MAX_GAP seconds."""
    rng = random.Random(seed)
    out = {1: RAW_EPOCH}
    for t in range(2, n_timestamps + 1):
        out[t] = out[t - 1] + rng.randint(1, RAW_MAX_GAP)
    return out


def edge_list_lines(edges, remap=None) -> list[str]:
    """`src dst timestamp` lines, as `parse_edge_list` reads them."""
    if remap is None:
        return [f"{u} {v} {t}\n" for u, v, t in edges]
    return [f"{u} {v} {remap[t]}\n" for u, v, t in edges]
